// Shared pieces of the performance ledger (bench/ledger/README.md): the
// command-line options, the per-run report and its printing, the seeded
// input generator, and small timing/statistics helpers.
#ifndef MISSL_BENCH_LEDGER_LEDGER_H_
#define MISSL_BENCH_LEDGER_LEDGER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace missl::ledger {

/// Command-line options of one run. `seed` drives every generated input.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;  ///< length of the timed window
  bool trace = false;     ///< per-layer run instead of the headline run
  bool smoke = false;     ///< ~1 s per workload, every gate on, no bounds
  std::string work_dir = ".bench_build/ledger-work";  ///< checkpoints, traces
};

/// One named number with its unit and the count of samples behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 1;
};

/// Outcome of one workload run. `json` holds the metrics of the final
/// result line (the end-to-end set untraced, the per-layer set traced);
/// `info` holds numbers that are printed but not part of that line.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> json;
  std::vector<Metric> info;
  std::vector<std::string> errors;

  void Fail(const std::string& why);
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples = 1);
  void Info(const std::string& name, double value, const std::string& unit,
            int64_t samples = 1);
};

/// Prints the human-readable table of `r` followed, as the last line, by
/// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
void PrintReport(const std::string& workload, const Options& opts,
                 const Report& r);

/// splitmix64: a fully specified generator, so a seed yields the same
/// inputs on every platform and library version.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : s_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n), n >= 1.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  bool Chance(double p) { return Unit() < p; }

 private:
  uint64_t s_;
};

/// Derives an independent stream seed from (seed, stream).
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// Monotonic nanoseconds.
int64_t NowNs();

/// Nearest-rank percentile of `v` (p in (0, 1]); 0 when empty.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}
double Mean(const std::vector<double>& v);

/// VmRSS / VmHWM of this process, in MiB.
double RssMb();
double PeakRssMb();

/// Creates `dir` and its parents; false on failure.
bool MakeDirs(const std::string& dir);

}  // namespace missl::ledger

#endif  // MISSL_BENCH_LEDGER_LEDGER_H_
