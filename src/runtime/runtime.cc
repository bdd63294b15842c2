#include "runtime/runtime.h"

#include <sched.h>

#include <cstdlib>
#include <cstring>

namespace missl::runtime {

namespace {

// This thread's ScopedNumThreads override; 0 = none.
thread_local int t_num_threads = 0;

int ProcessDefault() {
  static const int n = DefaultNumThreads(1);
  return n;
}

}  // namespace

int NumThreads() {
  return t_num_threads > 0 ? t_num_threads : ProcessDefault();
}

int AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n < 1 ? 1 : n;
}

int DefaultNumThreads(int unset) {
  const char* v = std::getenv("MISSL_NUM_THREADS");
  if (v == nullptr || v[0] == '\0') return unset;
  if (std::strcmp(v, "auto") == 0 || std::strcmp(v, "0") == 0) {
    return AvailableCpus();
  }
  int n = std::atoi(v);
  return n < 1 ? 1 : n;
}

ScopedNumThreads::ScopedNumThreads(int n) : prev_(t_num_threads) {
  t_num_threads = n < 1 ? ProcessDefault() : n;
}

ScopedNumThreads::~ScopedNumThreads() { t_num_threads = prev_; }

}  // namespace missl::runtime
