// Thread-safe metrics registry: named counters, gauges and log2-bucketed
// histograms with O(1) hot-path updates.
//
// Usage pattern: resolve the instrument once (registry lookup takes a mutex)
// and keep the reference — references stay valid for the process lifetime:
//
//   static obs::Counter& c =
//       obs::MetricsRegistry::Global().GetCounter("runtime.pool.jobs");
//   c.Add(1);
//
// Every update is gated on the process-wide enabled flag (default off,
// opt-in via SetMetricsEnabled or MISSL_METRICS=1), so the disabled hot
// path costs one predictable branch on a relaxed atomic load and leaves
// every instrument untouched. Tensor memory accounting is deliberately NOT
// behind this flag — see obs/memory.h.
//
// There is one read path: MetricsRegistry::Snapshot() copies everything into
// a plain-data MetricsSnapshot, and obs/exposition.h renders that copy
// (PrometheusText for /metrics, SnapshotText for the human dump).
#ifndef MISSL_OBS_METRICS_H_
#define MISSL_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace missl::obs {

/// True while metric updates are recorded. Initialized from MISSL_METRICS
/// ("1" enables) on first use; flipped at runtime with SetMetricsEnabled.
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

/// Monotonically increasing count. Add is safe from any thread.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    if (MetricsEnabled()) v_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Point-in-time value that can move both ways.
class Gauge {
 public:
  void Set(int64_t v) {
    if (MetricsEnabled()) v_.store(v, std::memory_order_relaxed);
  }
  void Add(int64_t delta) {
    if (MetricsEnabled()) v_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Histogram over non-negative integer samples (durations in ns, sizes in
/// bytes, ...) with power-of-two buckets: bucket 0 holds the value 0 and
/// bucket i >= 1 holds values in [2^(i-1), 2^i). Observe is two relaxed
/// atomic adds plus a bit scan. Read it through MetricsRegistry::Snapshot;
/// percentiles are obs::SnapshotPercentile (obs/exposition.h).
class Histogram {
 public:
  static constexpr int kNumBuckets = 44;  ///< covers up to ~2^43 (~2.4h in ns)

  void Observe(int64_t v);

  /// The sum of the bucket loads, the same count a snapshot reports.
  int64_t count() const;
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of bucket i (0 for bucket 0, 2^i - 1 otherwise).
  static int64_t BucketUpperBound(int i);

 private:
  std::atomic<int64_t> buckets_[kNumBuckets]{};
  std::atomic<int64_t> sum_{0};
};

/// Plain-data copy of one histogram, taken with relaxed loads. `count` is
/// the sum of the bucket reads, so count and buckets always agree — the
/// Prometheus invariant le="+Inf" == _count holds even mid-update. `sum` is
/// read separately and may be off by in-flight observations; scrapers must
/// not cross-check it against count.
struct HistogramSnapshot {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t buckets[Histogram::kNumBuckets] = {};
};

/// Point-in-time copy of every registered instrument plus the always-on
/// memory gauges (as "memory.*" gauges). The exposition layer
/// (obs/exposition.h) renders these without holding the registry lock.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// Name -> instrument map. Get* registers on first use and returns a
/// reference that remains valid for the process lifetime (instruments are
/// never destroyed), so callers cache it and pay the lock once.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Copies every instrument's current value (relaxed loads under the
  /// registry lock) into a plain-data snapshot, including the memory gauges.
  /// Safe to call at any time from any thread, including while other threads
  /// update instruments. This is the registry's only read path: /metrics,
  /// /statusz, the examples' metrics dumps and the bench ledger all read it.
  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace missl::obs

#endif  // MISSL_OBS_METRICS_H_
