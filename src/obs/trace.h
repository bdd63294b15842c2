// Span store: every TraceSpan (and, inside a tracing session, every per-op
// kernel span from obs/op_stats.h) lands in a per-thread ring of the most
// recent spans, exported as Chrome trace-event JSON — open it at
// https://ui.perfetto.dev or chrome://tracing to see pool workers, autograd,
// plan runs, serve batches and training epochs as nested "X" events on
// their thread's track.
//
// The store is always on, in one of two modes:
//   - always-on: each ring holds FlightRingCapacity() slots
//     (MISSL_FLIGHT_CAPACITY, default 4096) and overwrites its oldest span,
//     so memory stays fixed regardless of uptime. /tracez, SIGUSR1 in
//     missl_serve and WriteTrace dump it at any time.
//   - session (StartTracing .. StopTracing): the rings are cleared, per-op
//     kernel spans are recorded too, and a full ring doubles instead of
//     overwriting, up to kTraceSessionBound slots per thread. Past that
//     bound the oldest spans are overwritten.
// Every dump ends with "otherData":{"overwritten_spans":N}, the spans
// recorded since the last clear that the rings no longer hold.
//
// Recording takes no lock: each slot is a seqlock built from std::atomic
// fields (TSan-clean), written only by the ring's owner thread. A dump walks
// the rings under the registry mutex, concurrently with writers, and skips
// slots it catches mid-write. A ring changes size only on its owner thread,
// under that same mutex. Slots hold a pointer to the span's static SpanSite,
// so a span costs no allocation.
//
//   static constexpr obs::SpanSite kPhase{"my.phase", "app", "items"};
//   obs::StartTracing();
//   { obs::TraceSpan span(kPhase, n); ...work...; }
//   obs::StopTracing();
//   obs::WriteTrace("trace.json");
#ifndef MISSL_OBS_TRACE_H_
#define MISSL_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "utils/status.h"

namespace missl::obs {

/// One span call site. Every field is a string literal; `arg_key`, when
/// set, names the span's one integer argument (exported as "args").
/// Spans store a pointer to the site, so it must have static storage.
struct SpanSite {
  const char* name;
  const char* cat;
  const char* arg_key = nullptr;
};

/// Slots a thread ring may grow to inside a tracing session.
inline constexpr size_t kTraceSessionBound = size_t{1} << 20;

/// Slots per thread ring outside a session. Read once from
/// MISSL_FLIGHT_CAPACITY at first use and clamped to [64, kTraceSessionBound].
size_t FlightRingCapacity();

/// Monotonic nanoseconds since a process-wide base; the time axis for all
/// spans (and for the metric timers in obs/op_stats.h).
int64_t NowNanos();

/// Records one complete span into the calling thread's ring.
void RecordSpan(const SpanSite& site, int64_t start_ns, int64_t dur_ns,
                int64_t arg = 0);

/// True while a tracing session is open.
bool TracingEnabled();

/// Clears the rings and opens a session.
void StartTracing();

/// Closes the session; the recorded spans stay for WriteTrace.
void StopTracing();

/// Drops every recorded span. Outside a session, a ring a session grew
/// returns to FlightRingCapacity() slots on its owner's next span.
void ClearTrace();

/// Spans recorded since the last clear across all rings, counting those
/// overwritten since.
int64_t TraceSpansRecorded();

/// Serializes the rings to a Chrome trace-event JSON document, one event
/// per line. Safe at any time from any thread.
std::string TraceToJson();

/// TraceToJson streamed straight to a file.
Status WriteTrace(const std::string& path);

/// RAII span covering its C++ scope, recorded when the scope ends.
class TraceSpan {
 public:
  explicit TraceSpan(const SpanSite& site, int64_t arg = 0)
      : site_(site), arg_(arg), start_(NowNanos()) {}
  TraceSpan(SpanSite&&, int64_t = 0) = delete;  // the site must outlive it
  ~TraceSpan() { RecordSpan(site_, start_, NowNanos() - start_, arg_); }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const SpanSite& site_;
  int64_t arg_;
  int64_t start_;
};

}  // namespace missl::obs

#endif  // MISSL_OBS_TRACE_H_
