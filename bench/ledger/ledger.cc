#include "ledger.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace missl::ledger {

void Report::Fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, int64_t samples) {
  json.push_back(Metric{name, value, unit, samples});
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit, int64_t samples) {
  info.push_back(Metric{name, value, unit, samples});
}

void PrintReport(const std::string& workload, const Options& opts,
                 const Report& r) {
  std::printf("== %s  seed=%llu seconds=%g %s%s==\n", workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? "traced " : "", opts.smoke ? "smoke " : "");
  auto row = [](const Metric& m, const char* tag) {
    std::printf("  %-5s %-40s %14.6g %-8s n=%lld\n", tag, m.name.c_str(),
                m.value, m.unit.c_str(), static_cast<long long>(m.samples));
  };
  for (const Metric& m : r.json) row(m, "");
  for (const Metric& m : r.info) row(m, "info");
  std::printf("  attempted=%lld failed=%lld failed_share=%g correct=%s\n",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed),
              r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted
                              : 0.0,
              r.correct ? "true" : "false");
  for (const std::string& e : r.errors) std::printf("  FAIL: %s\n", e.c_str());

  bool finite = true;
  std::string metrics;
  for (const Metric& m : r.json) {
    double v = m.value;
    if (!std::isfinite(v)) {
      finite = false;
      v = 0.0;
    }
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", v);
    if (!metrics.empty()) metrics += ",";
    metrics += "\"" + m.name + "\":{\"value\":" + num + ",\"unit\":\"" +
               m.unit + "\"}";
  }
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
              "\"metrics\":{%s}}\n",
              r.correct && finite ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(1, r.attempted)),
              static_cast<long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
}

uint64_t SplitMix::Next() {
  uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  SplitMix a(seed);
  SplitMix b(a.Next() ^ (stream * 0xd1342543de82ef95ULL));
  return b.Next();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

namespace {

// Reads one "Key:   N kB" line of /proc/self/status, in MiB.
double ProcStatusMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0 && line.size() > n && line[n] == ':') {
      return std::strtod(line.c_str() + n + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double RssMb() { return ProcStatusMb("VmRSS"); }
double PeakRssMb() { return ProcStatusMb("VmHWM"); }

bool MakeDirs(const std::string& dir) {
  std::string path;
  size_t pos = 0;
  while (pos != std::string::npos) {
    pos = dir.find('/', pos + 1);
    path = dir.substr(0, pos);
    if (path.empty()) continue;
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

}  // namespace missl::ledger
