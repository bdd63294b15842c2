#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <vector>

#include "obs/json.h"

namespace missl::obs {

namespace {

// One span slot, guarded by its own sequence number (seqlock): the owner
// thread bumps seq to odd, stores the fields, bumps it back to even. All
// fields are atomics, so a concurrent dump never has a data race — it just
// discards slots whose seq was odd or changed under it.
struct Slot {
  std::atomic<uint32_t> seq{0};
  std::atomic<const SpanSite*> site{nullptr};
  std::atomic<int64_t> start_ns{0};
  std::atomic<int64_t> dur_ns{0};
  std::atomic<int64_t> arg{0};
};
static_assert(sizeof(Slot) == 40, "ring memory is capacity * 40 bytes");

// Per-thread ring. Only the owning thread writes slots and head, and only
// it replaces `slots`, under the registry mutex; dumps read everything under
// that mutex. `floor` implements ClearTrace without touching the slots:
// records with index < floor are dropped.
struct Ring {
  explicit Ring(size_t cap) : slots(cap) {}
  std::vector<Slot> slots;
  std::atomic<uint64_t> head{0};   // total records ever written by the owner
  std::atomic<uint64_t> floor{0};  // records before this index are cleared
  int tid = 0;
};

struct RingRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<Ring>> rings;
  int next_tid = 0;
};

RingRegistry& Registry() {
  // Leaked: thread_local destructors of late-exiting threads may still touch
  // the registry after main() returns (still reachable, LSan-clean).
  static RingRegistry* registry = new RingRegistry();
  return *registry;
}

// Rings outlive their thread (the registry co-owns them), so a dump still
// shows the spans of short-lived threads.
Ring& LocalRing() {
  thread_local std::shared_ptr<Ring> ring = [] {
    auto r = std::make_shared<Ring>(FlightRingCapacity());
    RingRegistry& reg = Registry();
    std::lock_guard<std::mutex> l(reg.mu);
    r->tid = reg.next_tid++;
    reg.rings.push_back(r);
    return r;
  }();
  return *ring;
}

std::atomic<bool> g_session{false};

struct Span {
  const SpanSite* site;
  int64_t start_ns;
  int64_t dur_ns;
  int64_t arg;
};

// Seqlock write of one slot; only the ring's owner thread writes.
void WriteSlot(Slot& slot, const Span& e) {
  uint32_t s = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(s + 1, std::memory_order_relaxed);  // odd: write in progress
  std::atomic_thread_fence(std::memory_order_release);
  slot.site.store(e.site, std::memory_order_relaxed);
  slot.start_ns.store(e.start_ns, std::memory_order_relaxed);
  slot.dur_ns.store(e.dur_ns, std::memory_order_relaxed);
  slot.arg.store(e.arg, std::memory_order_relaxed);
  slot.seq.store(s + 2, std::memory_order_release);  // even: consistent
}

// Seqlock read of one slot; false when the slot was empty or mid-write.
bool ReadSlot(const Slot& slot, Span& out) {
  uint32_t s1 = slot.seq.load(std::memory_order_acquire);
  if (s1 == 0 || (s1 & 1u) != 0) return false;
  out.site = slot.site.load(std::memory_order_relaxed);
  out.start_ns = slot.start_ns.load(std::memory_order_relaxed);
  out.dur_ns = slot.dur_ns.load(std::memory_order_relaxed);
  out.arg = slot.arg.load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  uint32_t s2 = slot.seq.load(std::memory_order_relaxed);
  return s1 == s2 && out.site != nullptr;
}

// Moves the ring's live records into `cap` fresh slots. Called by the owner
// holding the registry mutex, so no dump is walking the old slots.
void Resize(Ring& ring, size_t cap, uint64_t head) {
  std::vector<Slot> slots(cap);
  const uint64_t old_cap = ring.slots.size();
  uint64_t lo = std::max(ring.floor.load(std::memory_order_relaxed),
                         head > old_cap ? head - old_cap : 0);
  for (uint64_t i = lo; i < head; ++i) {
    Span e;
    if (ReadSlot(ring.slots[i % old_cap], e)) WriteSlot(slots[i % cap], e);
  }
  ring.slots = std::move(slots);
}

void WriteTraceJson(std::ostream& out) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  RingRegistry& reg = Registry();
  std::lock_guard<std::mutex> l(reg.mu);
  uint64_t overwritten = 0;
  const char* sep = "\n";
  for (auto& ring : reg.rings) {
    uint64_t head = ring->head.load(std::memory_order_acquire);
    uint64_t floor = ring->floor.load(std::memory_order_relaxed);
    uint64_t cap = ring->slots.size();
    uint64_t lo = head > cap ? head - cap : 0;
    if (lo > floor) {
      overwritten += lo - floor;
    } else {
      lo = floor;
    }
    for (uint64_t i = lo; i < head; ++i) {
      Span e;
      if (!ReadSlot(ring->slots[i % cap], e)) continue;
      // Chrome trace timestamps are microseconds; keep ns precision via the
      // fractional part.
      out << sep << "{\"name\":\"" << JsonEscape(e.site->name)
          << "\",\"cat\":\"" << JsonEscape(e.site->cat)
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << ring->tid
          << ",\"ts\":" << JsonNumber(static_cast<double>(e.start_ns) / 1e3)
          << ",\"dur\":" << JsonNumber(static_cast<double>(e.dur_ns) / 1e3);
      if (e.site->arg_key != nullptr) {
        out << ",\"args\":{\"" << JsonEscape(e.site->arg_key)
            << "\":" << e.arg << "}";
      }
      out << "}";
      sep = ",\n";
    }
  }
  out << "\n],\"otherData\":{\"overwritten_spans\":" << overwritten << "}}\n";
}

}  // namespace

size_t FlightRingCapacity() {
  static const size_t capacity = [] {
    size_t cap = 4096;
    if (const char* v = std::getenv("MISSL_FLIGHT_CAPACITY")) {
      char* end = nullptr;
      long long parsed = std::strtoll(v, &end, 10);
      if (end != v && parsed > 0) cap = static_cast<size_t>(parsed);
    }
    return std::clamp<size_t>(cap, 64, kTraceSessionBound);
  }();
  return capacity;
}

int64_t NowNanos() {
  static const std::chrono::steady_clock::time_point base =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - base)
      .count();
}

void RecordSpan(const SpanSite& site, int64_t start_ns, int64_t dur_ns,
                int64_t arg) {
  Ring& ring = LocalRing();
  uint64_t h = ring.head.load(std::memory_order_relaxed);
  uint64_t live = h - ring.floor.load(std::memory_order_relaxed);
  size_t cap = ring.slots.size();
  // A session doubles a full ring instead of overwriting; the first span
  // after a clear outside a session returns a grown ring to its base size.
  size_t want = cap;
  if (live >= cap && cap < kTraceSessionBound && TracingEnabled()) {
    want = std::min(2 * cap, kTraceSessionBound);
  } else if (live == 0 && cap != FlightRingCapacity() && !TracingEnabled()) {
    want = FlightRingCapacity();
  }
  if (want != cap) {
    std::lock_guard<std::mutex> l(Registry().mu);
    Resize(ring, want, h);
  }
  WriteSlot(ring.slots[h % ring.slots.size()],
            {&site, start_ns, dur_ns, arg});
  ring.head.store(h + 1, std::memory_order_release);
}

bool TracingEnabled() { return g_session.load(std::memory_order_relaxed); }

void StartTracing() {
  ClearTrace();
  g_session.store(true, std::memory_order_relaxed);
}

void StopTracing() { g_session.store(false, std::memory_order_relaxed); }

void ClearTrace() {
  RingRegistry& reg = Registry();
  std::lock_guard<std::mutex> l(reg.mu);
  for (auto& ring : reg.rings) {
    ring->floor.store(ring->head.load(std::memory_order_acquire),
                      std::memory_order_relaxed);
  }
}

int64_t TraceSpansRecorded() {
  RingRegistry& reg = Registry();
  std::lock_guard<std::mutex> l(reg.mu);
  int64_t n = 0;
  for (auto& ring : reg.rings) {
    n += static_cast<int64_t>(ring->head.load(std::memory_order_acquire) -
                              ring->floor.load(std::memory_order_relaxed));
  }
  return n;
}

std::string TraceToJson() {
  std::ostringstream ss;
  WriteTraceJson(ss);
  return ss.str();
}

Status WriteTrace(const std::string& path) {
  std::ofstream f(path);
  if (!f.is_open()) return Status::IOError("cannot open trace file " + path);
  WriteTraceJson(f);
  f.close();
  if (f.fail()) return Status::IOError("short write to trace file " + path);
  return Status::OK();
}

}  // namespace missl::obs
