// The ledger's own span recorder for traced runs. Spans are recorded from
// the benchmark's files, around its calls into each layer of the library,
// so the trace does not depend on the library's own tracing. Each thread
// appends to its own in-memory vector; WriteChromeTrace dumps everything
// as a Chrome trace-event document (open in https://ui.perfetto.dev).
#ifndef MISSL_BENCH_LEDGER_SPAN_RECORDER_H_
#define MISSL_BENCH_LEDGER_SPAN_RECORDER_H_

#include <cstdint>
#include <string>

namespace missl::ledger::spans {

/// Starts or stops recording (spans are dropped while off).
void SetEnabled(bool on);
bool Enabled();

/// Records a complete span on the calling thread. `name` must be a string
/// literal. `id` >= 0 is written as args.id (the request id).
void Record(const char* name, int64_t start_ns, int64_t end_ns,
            int64_t id = -1);

/// Writes every recorded span to `path` and forgets them; false on I/O
/// failure.
bool WriteChromeTrace(const std::string& path);

}  // namespace missl::ledger::spans

#endif  // MISSL_BENCH_LEDGER_SPAN_RECORDER_H_
