// The ledger's workloads and the serving pieces they share: the seeded query
// generator, the in-process load client, the offline oracle, server start-up
// and the per-layer readings of a served window. README.md says why each
// workload exists and which metric each layer reading should move.
#ifndef MISSL_BENCH_LEDGER_WORKLOADS_H_
#define MISSL_BENCH_LEDGER_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/missl.h"
#include "ledger.h"
#include "obs/metrics.h"
#include "serve/service.h"
#include "serve/tcp_server.h"
#include "tensor/alloc.h"

namespace missl::ledger {

Report RunServeOpenSmall(const Options& opts);
Report RunServeClosedLarge(const Options& opts);
Report RunTrainMissl(const Options& opts);

// ---- serving pieces, shared with the train workload's served window ----

/// Serving knobs every workload uses: max_batch 16, max_wait_us 500 and
/// four TcpServer workers, the missl_serve defaults for a small box.
inline constexpr int32_t kMaxBatch = 16;
inline constexpr int64_t kMaxWaitUs = 500;
inline constexpr int kServerWorkers = 4;
/// Client connections (= cores of the reference box).
inline constexpr int kConnections = 4;
/// Answers compared with the oracle: request ids [0, kOracleQueries), the
/// first distinct queries, plus an even sample of about kSampledAnswers of
/// the rest.
inline constexpr int64_t kOracleQueries = 256;
inline constexpr int64_t kSampledAnswers = 2048;

/// Shape of the model a served workload loads.
struct ModelShape {
  int32_t num_items = 0;
  int32_t num_behaviors = 4;
  int64_t max_len = 0;
  uint64_t seed = 0;  ///< weight initialisation
};

/// The MISSL configuration every workload uses: d = 32, K = 3.
core::MisslConfig ModelConfig(const ModelShape& shape);
std::unique_ptr<core::MisslModel> MakeModel(const ModelShape& shape);

/// A model loaded from `checkpoint` for inference; nullptr with `*err` set
/// on failure.
std::unique_ptr<core::MisslModel> LoadFrozen(const ModelShape& shape,
                                             const std::string& checkpoint,
                                             std::string* err);

/// Where a workload keeps its checkpoint inside the work directory.
std::string CheckpointPath(const Options& opts, const std::string& workload);

/// A RecoService behind a TcpServer; the server goes first on destruction.
struct Served {
  std::unique_ptr<serve::RecoService> service;
  std::unique_ptr<serve::TcpServer> server;
  void Stop();
  ~Served() { Stop(); }
};

/// Builds the model, loads `checkpoint` and starts the server `reps` times
/// (keeping the last instance), appending the time of each whole start-up
/// to `setup_s` and of each RecoService::Load to `load_s`. False with
/// `*err` set on failure.
bool StartServed(const ModelShape& shape, const std::string& checkpoint,
                 int reps, Served* out, std::vector<double>* setup_s,
                 std::vector<double>* load_s, std::string* err);

/// The offline oracle for served answers: BuildQueryBatch -> ScoreAllItems
/// -> TopKRow -> TopKToJson on `model`, a second model loaded from the
/// served checkpoint, for the query of each request id. Answers are compared
/// after the load phase through a hash of each response line, so checking
/// costs the client nothing while it is timed.
struct Oracle {
  core::MisslModel* model = nullptr;
  ModelShape shape;
  std::function<serve::Query(int64_t)> query;
};

/// One load phase: a single client thread poll()s kConnections sockets.
/// Open loop when `rate` > 0 (Poisson arrivals, latency timed from each
/// request's scheduled send), closed loop with `depth` pipelined requests
/// per connection otherwise. Only requests due inside the window after the
/// warm-up are measured.
struct LoadSpec {
  int port = 0;
  double rate = 0.0;
  int depth = 0;
  double warmup_s = 2.0;
  double window_s = 10.0;
  uint64_t arrival_seed = 0;
  const Oracle* oracle = nullptr;  ///< also supplies each request's query
  /// Called on the client thread when the measured window opens / closes.
  std::function<void()> on_window_start, on_window_end;
};

struct LoadResult {
  int64_t sent = 0;
  int64_t answered = 0;
  int64_t errors = 0;       ///< error lines
  int64_t window_sent = 0;
  int64_t window_answers = 0;  ///< answers received inside the window
  std::vector<double> latency_ms;       ///< from scheduled send, window only
  std::vector<double> send_latency_ms;  ///< from actual send, window only
  std::vector<double> late_ms;          ///< actual minus scheduled send
  /// Per request id: hash of its answer line, 0 if unanswered or an error.
  std::vector<uint64_t> line_hash;
  std::string error;                    ///< fatal client error, if any
};

/// Server-side instruments at one instant, read in-process.
struct WindowReading {
  obs::MetricsSnapshot metrics;
  alloc::AllocStats alloc;
  int64_t heap_allocs = 0;
};
WindowReading ReadWindow();

/// Change of a registry counter between two readings (0 when unregistered).
int64_t CounterDelta(const WindowReading& begin, const WindowReading& end,
                     const std::string& name);

/// Runs one traced served window on a warm server, with spans and heap
/// counting on. Applies the serving gates (every request answered exactly
/// once, no error line, every sampled answer equal to the oracle's) and adds
/// the window's
/// per-layer readings to `r`: serve.stage.*, serve.batch_fill,
/// serve.unattributed_us, serve.tcp.bytes_*_per_req,
/// serve.heap_allocs_per_req and tensor.alloc.*_per_batch.
LoadResult RunTracedWindow(LoadSpec spec, Report* r);

/// Layer probes: single-threaded timed calls into the protocol, batching,
/// scoring, ranking and planned-executor layers on the workload's own model
/// and queries. Adds the median of `calls` calls per probe (p90 as info).
inline constexpr int kProbeCalls = 200;
void RunProbes(core::MisslModel* model, const ModelShape& shape,
               const std::vector<serve::Query>& queries, int calls,
               Report* r);

}  // namespace missl::ledger

#endif  // MISSL_BENCH_LEDGER_WORKLOADS_H_
