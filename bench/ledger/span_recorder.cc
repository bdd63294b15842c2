#include "span_recorder.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace missl::ledger::spans {

namespace {

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int64_t id;
};

struct ThreadSpans {
  int tid = 0;
  std::vector<Span> spans;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadSpans>> g_threads;  // guarded by g_mu

ThreadSpans* Mine() {
  thread_local ThreadSpans* mine = nullptr;
  if (mine == nullptr) {
    std::lock_guard<std::mutex> l(g_mu);
    g_threads.push_back(std::make_unique<ThreadSpans>());
    mine = g_threads.back().get();
    mine->tid = static_cast<int>(g_threads.size());
    mine->spans.reserve(1 << 16);
  }
  return mine;
}

}  // namespace

void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Record(const char* name, int64_t start_ns, int64_t end_ns, int64_t id) {
  if (!Enabled()) return;
  Mine()->spans.push_back(Span{name, start_ns, end_ns, id});
}

bool WriteChromeTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  bool first = true;
  std::lock_guard<std::mutex> l(g_mu);
  for (const auto& t : g_threads) {
    for (const Span& s : t->spans) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"ledger\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f",
                   first ? "" : ",", s.name, t->tid, s.start_ns / 1e3,
                   (s.end_ns - s.start_ns) / 1e3);
      if (s.id >= 0) {
        std::fprintf(f, ",\"args\":{\"id\":%lld}",
                     static_cast<long long>(s.id));
      }
      std::fputs("}", f);
      first = false;
    }
    t->spans.clear();
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace missl::ledger::spans
