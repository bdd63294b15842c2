// missl_ledger: the benchmark every performance or simplicity change of this
// repository is judged by (bench/ledger/README.md).
//
//   missl_ledger --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//                [--smoke] [--work-dir DIR] [--trace-dir DIR]
//
// Workloads: serve_open_small, serve_closed_large, train_missl. The run
// prints every metric with its unit and sample count, then, as its last line,
// one JSON object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics untraced, the per-layer metrics with --trace 1 (which also writes
// DIR/<workload>.trace.json). Exits 1 when an output was wrong, 2 on a usage
// error.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "ledger.h"
#include "span_recorder.h"
#include "workloads.h"

namespace {

using missl::ledger::Options;
using missl::ledger::Report;

struct Workload {
  const char* name;
  Report (*run)(const Options&);
};

const Workload kWorkloads[] = {
    {"serve_open_small", missl::ledger::RunServeOpenSmall},
    {"serve_closed_large", missl::ledger::RunServeClosedLarge},
    {"train_missl", missl::ledger::RunTrainMissl},
};

int Usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s\nusage: %s --workload NAME|all [--seed N] [--seconds S] "
               "[--trace 0|1] [--smoke] [--work-dir DIR] [--trace-dir DIR]\n"
               "workloads: serve_open_small serve_closed_large train_missl\n",
               why.c_str(), argv0);
  return 2;
}

bool ParseNumber(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string which, trace_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    double num = 0.0;
    if (a == "--smoke") {
      opts.smoke = true;
      continue;
    }
    if (v == nullptr) return Usage(argv[0], "missing value for " + a);
    ++i;
    if (a == "--workload") {
      which = v;
    } else if (a == "--seed" && ParseNumber(v, &num) && num >= 0) {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && ParseNumber(v, &num) && num > 0 &&
               num <= 120) {
      opts.seconds = num;
    } else if (a == "--trace" && (std::strcmp(v, "0") == 0 ||
                                  std::strcmp(v, "1") == 0)) {
      opts.trace = v[0] == '1';
    } else if (a == "--work-dir") {
      opts.work_dir = v;
    } else if (a == "--trace-dir") {
      trace_dir = v;
    } else {
      return Usage(argv[0], "bad argument: " + a + " " + v);
    }
  }
  if (opts.smoke) {
    // About a second per workload, through the traced path so every gate
    // and every reading runs.
    opts.seconds = 0.8;
    opts.trace = true;
  }
  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads) {
    if (which == "all" || which == w.name) selected.push_back(&w);
  }
  if (selected.empty()) return Usage(argv[0], "unknown workload: " + which);
  if (trace_dir.empty()) trace_dir = opts.work_dir;
  if (!missl::ledger::MakeDirs(opts.work_dir) ||
      !missl::ledger::MakeDirs(trace_dir)) {
    std::fprintf(stderr, "cannot create %s or %s\n", opts.work_dir.c_str(),
                 trace_dir.c_str());
    return 2;
  }
  // A wedged run is killed (no result line) rather than left to hang; at
  // 20 s windows the limit is 170 s per workload.
  ::alarm(static_cast<unsigned>((3 * opts.seconds + 110) * selected.size()));

  bool all_correct = true;
  for (const Workload* w : selected) {
    Report r = w->run(opts);
    missl::ledger::spans::SetEnabled(false);
    if (opts.trace) {
      const std::string path = trace_dir + "/" + w->name + ".trace.json";
      if (missl::ledger::spans::WriteChromeTrace(path)) {
        std::printf("trace written to %s\n", path.c_str());
      } else {
        r.Fail("cannot write " + path);
      }
    }
    missl::ledger::PrintReport(w->name, opts, r);
    all_correct = all_correct && r.correct;
  }
  return all_correct ? 0 : 1;
}
