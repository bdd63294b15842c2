#include "obs/exposition.h"

#include <sstream>

#ifndef MISSL_GIT_REV
#define MISSL_GIT_REV "unknown"
#endif

namespace missl::obs {

namespace {

bool PromNameChar(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':')
    return true;
  return !first && c >= '0' && c <= '9';
}

}  // namespace

std::string PrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (size_t i = 0; i < name.size(); ++i) {
    char c = name[i];
    if (PromNameChar(c, out.empty())) {
      out.push_back(c);
    } else if (out.empty() && c >= '0' && c <= '9') {
      out.push_back('_');
      out.push_back(c);
    } else {
      out.push_back('_');
    }
  }
  if (out.empty()) out = "_";
  return out;
}

std::string PrometheusText(const MetricsSnapshot& snap) {
  std::ostringstream ss;
  for (const auto& [name, v] : snap.counters) {
    std::string p = PrometheusName(name);
    ss << "# TYPE " << p << " counter\n" << p << " " << v << "\n";
  }
  for (const auto& [name, v] : snap.gauges) {
    std::string p = PrometheusName(name);
    ss << "# TYPE " << p << " gauge\n" << p << " " << v << "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    std::string p = PrometheusName(name);
    ss << "# TYPE " << p << " histogram\n";
    // Cumulative buckets over every finite pow2 bound; the last registry
    // bucket is the overflow catch-all, folded into +Inf.
    int64_t cum = 0;
    for (int i = 0; i < Histogram::kNumBuckets - 1; ++i) {
      cum += h.buckets[i];
      ss << p << "_bucket{le=\"" << Histogram::BucketUpperBound(i) << "\"} "
         << cum << "\n";
    }
    ss << p << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    ss << p << "_sum " << h.sum << "\n";
    ss << p << "_count " << h.count << "\n";
  }
  return ss.str();
}

std::string SnapshotText(const MetricsSnapshot& snap) {
  std::ostringstream ss;
  for (const auto& [name, v] : snap.counters) ss << name << " " << v << "\n";
  for (const auto& [name, v] : snap.gauges) ss << name << " " << v << "\n";
  for (const auto& [name, h] : snap.histograms) {
    const double mean = h.count > 0 ? static_cast<double>(h.sum) /
                                          static_cast<double>(h.count)
                                    : 0.0;
    ss << name << " count=" << h.count << " sum=" << h.sum
       << " mean=" << mean << " p50<=" << SnapshotPercentile(h, 0.5)
       << " p99<=" << SnapshotPercentile(h, 0.99) << " buckets=";
    bool first = true;
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      if (h.buckets[i] == 0) continue;
      if (!first) ss << ",";
      first = false;
      ss << Histogram::BucketUpperBound(i) << ":" << h.buckets[i];
    }
    if (first) ss << "-";
    ss << "\n";
  }
  return ss.str();
}

int64_t SnapshotPercentile(const HistogramSnapshot& h, double p) {
  if (h.count <= 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  int64_t target =
      static_cast<int64_t>(p * static_cast<double>(h.count - 1)) + 1;
  int64_t seen = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    seen += h.buckets[i];
    if (seen >= target) return Histogram::BucketUpperBound(i);
  }
  return Histogram::BucketUpperBound(Histogram::kNumBuckets - 1);
}

const char* BuildRev() { return MISSL_GIT_REV; }

}  // namespace missl::obs
