#include "obs/metrics.h"

#include <bit>
#include <cstdlib>

#include "obs/memory.h"

namespace missl::obs {

namespace {

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled = [] {
    const char* v = std::getenv("MISSL_METRICS");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
  }();
  return enabled;
}

}  // namespace

bool MetricsEnabled() { return EnabledFlag().load(std::memory_order_relaxed); }

void SetMetricsEnabled(bool enabled) {
  EnabledFlag().store(enabled, std::memory_order_relaxed);
}

void Histogram::Observe(int64_t v) {
  if (!MetricsEnabled()) return;
  if (v < 0) v = 0;
  int idx = std::bit_width(static_cast<uint64_t>(v));  // 0 -> 0, else log2+1
  if (idx >= kNumBuckets) idx = kNumBuckets - 1;
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

int64_t Histogram::count() const {
  int64_t n = 0;
  for (int i = 0; i < kNumBuckets; ++i) n += bucket(i);
  return n;
}

int64_t Histogram::BucketUpperBound(int i) {
  if (i <= 0) return 0;
  return (int64_t{1} << i) - 1;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked so instrument references handed out to worker threads stay valid
  // through static destruction (still reachable, so LSan stays quiet).
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> l(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> l(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> l(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  {
    std::lock_guard<std::mutex> l(mu_);
    for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
    for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
    for (const auto& [name, h] : histograms_) {
      HistogramSnapshot& hs = snap.histograms[name];
      hs.sum = h->sum();
      // count is the bucket total (Histogram::count's rule), summed from
      // the same reads, so le="+Inf" == _count in every scrape.
      for (int i = 0; i < Histogram::kNumBuckets; ++i) {
        hs.buckets[i] = h->bucket(i);
        hs.count += hs.buckets[i];
      }
    }
  }
  MemoryStats m = CurrentMemoryStats();
  snap.gauges["memory.live_bytes"] = m.live_bytes;
  snap.gauges["memory.peak_bytes"] = m.peak_bytes;
  snap.gauges["memory.live_tensors"] = m.live_tensors;
  snap.gauges["memory.live_autograd_nodes"] = m.live_autograd_nodes;
  return snap;
}

}  // namespace missl::obs
