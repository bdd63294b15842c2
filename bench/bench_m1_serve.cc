// M1-serve — sustained-load serving benchmark. Headline metrics: achieved
// QPS and client-observed p50/p99/p999 latency of the TCP front-end
// (src/serve/tcp_server.h) in front of the micro-batching RecoService,
// driven by the seeded load generator (src/serve/loadgen.h) over real
// loopback sockets. Closed-loop rows sweep connection counts (concurrency =
// offered load); the open-loop row replays a fixed-rate schedule at half the
// measured closed-loop capacity, the regime where queueing delay shows up in
// the tail. Server-side serve.* histogram percentiles are reported next to
// the client-observed ones so queue wait vs network/syscall overhead can be
// told apart. All rows land in BENCH_bench_m1_serve.json via
// MISSL_BENCH_JSON_DIR (docs/OBSERVABILITY.md).
//
// The server runs with its admin endpoint up, and every row is bracketed by
// two /metrics scrapes over real HTTP: the serve.stage.* histograms
// (parse -> queue -> batch -> score -> rank -> write) are diffed with
// PromHistogramDelta and printed as a second table, so the JSON carries the
// per-window stage breakdown exactly as an external scraper would see it —
// the scrape path itself is under test, not just the instruments.
//
// In --smoke mode this doubles as the CI serving-load gate: a few hundred
// requests against a real socket server, exit non-zero if any request
// errors, goes unanswered, the serve.* instrumentation misses requests, or
// the admin plane (/metrics /healthz /tracez) serves malformed output.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/missl.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "serve/loadgen.h"
#include "serve/service.h"
#include "serve/tcp_server.h"

namespace {

// The per-request pipeline stages, in wire order (docs/OBSERVABILITY.md).
const char* const kStages[] = {"parse", "queue", "batch",
                               "score", "rank",  "write"};

struct RowResult {
  std::string mode;
  int conns = 0;
  double target_qps = 0;
  missl::serve::LoadGenResult load;
  int64_t srv_p50_us = 0;   // serve.request_ns bucket upper bounds
  int64_t srv_p99_us = 0;
  int64_t srv_p999_us = 0;
  double srv_mean_batch = 0;
  // serve.stage.* deltas between the row's two /metrics scrapes.
  std::map<std::string, missl::serve::PromHistogram> stages;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace missl;
  bench::InitBench(&argc, argv);
  bench::PrintHeader(
      "M1-serve",
      "TCP serving under sustained load: achieved QPS + latency tails");

  const bool smoke = bench::SmokeMode();
  const int32_t kItems = smoke ? 120 : 2000;
  const int32_t kBehaviors = 3;
  const int64_t kMaxLen = 20;
  const int64_t kRequests = smoke ? 240 : 4000;
  const std::vector<int> kClosedConns = smoke ? std::vector<int>{1, 4}
                                              : std::vector<int>{1, 4, 16};

  obs::SetMetricsEnabled(true);

  // Frozen checkpoint → RecoService → TCP front-end, all in-process so the
  // bench is self-contained and the loopback stack is the only network.
  core::MisslConfig mcfg;
  mcfg.dim = 32;
  mcfg.num_interests = 3;
  mcfg.seed = 17;
  auto make_model = [&] {
    return std::make_unique<core::MisslModel>(kItems, kBehaviors, kMaxLen,
                                              mcfg);
  };
  const char* tmp = std::getenv("TMPDIR");
  std::string ckpt = std::string(tmp != nullptr ? tmp : "/tmp") +
                     "/missl_bench_serve_" + std::to_string(getpid()) +
                     ".bin";
  {
    auto model = make_model();
    Status s = nn::SaveParameters(*model, ckpt);
    if (!s.ok()) {
      std::fprintf(stderr, "checkpoint write failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
  }
  serve::ServeConfig scfg;
  scfg.max_len = kMaxLen;
  scfg.max_batch = 16;
  scfg.max_wait_us = 500;
  Status status;
  auto service = serve::RecoService::Load(make_model(), kItems, kBehaviors,
                                          ckpt, scfg, &status);
  std::remove(ckpt.c_str());
  if (service == nullptr) {
    std::fprintf(stderr, "service load failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  serve::TcpServerConfig tcfg;
  tcfg.port = 0;
  tcfg.max_connections = 64;
  auto server = serve::TcpServer::Start(service.get(), tcfg, &status);
  if (server == nullptr) {
    std::fprintf(stderr, "server start failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  auto& reg = obs::MetricsRegistry::Global();

  // One validated /metrics scrape over the admin endpoint. The strict
  // parser doubles as the malformed-exposition gate: any bad line fails
  // the bench.
  auto scrape = [&](std::map<std::string, serve::PromHistogram>* hists)
      -> bool {
    serve::HttpResponse r;
    Status s =
        serve::HttpGet("127.0.0.1", server->admin_port(), "/metrics", &r);
    if (!s.ok() || r.code != 200) {
      std::fprintf(stderr, "FAIL: /metrics scrape: %s (code %d)\n",
                   s.ToString().c_str(), r.code);
      return false;
    }
    if (!serve::ParsePrometheusText(r.body, nullptr, hists)) {
      std::fprintf(stderr, "FAIL: /metrics output is malformed\n");
      return false;
    }
    return true;
  };

  auto run_row = [&](const std::string& mode, int conns, double target_qps,
                     RowResult* row) -> bool {
    // Per-row metric window so server-side percentiles describe this row
    // only (names stay registered; see obs/metrics.h).
    reg.ResetAll();
    std::map<std::string, serve::PromHistogram> base;
    if (!scrape(&base)) return false;
    serve::LoadGenConfig lg;
    lg.port = server->port();
    lg.connections = conns;
    lg.target_qps = target_qps;
    lg.total_requests = kRequests;
    lg.seed = 20240809 + static_cast<uint64_t>(conns);
    lg.num_items = kItems;
    lg.num_behaviors = kBehaviors;
    lg.max_history = static_cast<int>(kMaxLen);
    Status s = serve::RunLoadGen(lg, &row->load);
    if (!s.ok()) {
      std::fprintf(stderr, "loadgen (%s, %d conns): %s\n", mode.c_str(),
                   conns, s.ToString().c_str());
      return false;
    }
    row->mode = mode;
    row->conns = conns;
    row->target_qps = target_qps;
    auto& request_ns = reg.GetHistogram("serve.request_ns");
    row->srv_p50_us = request_ns.ApproxPercentile(0.50) / 1000;
    row->srv_p99_us = request_ns.ApproxPercentile(0.99) / 1000;
    row->srv_p999_us = request_ns.ApproxPercentile(0.999) / 1000;
    row->srv_mean_batch = reg.GetHistogram("serve.batch_size").mean();
    std::map<std::string, serve::PromHistogram> cur;
    if (!scrape(&cur)) return false;
    for (const char* stage : kStages) {
      std::string fam = std::string("serve_stage_") + stage + "_ns";
      auto it = cur.find(fam);
      if (it == cur.end()) {
        std::fprintf(stderr, "FAIL: /metrics is missing %s\n", fam.c_str());
        return false;
      }
      auto bit = base.find(fam);
      // A family absent from the base scrape registered mid-row: the whole
      // current histogram is this row's delta.
      row->stages[stage] = bit == base.end()
                               ? it->second
                               : serve::PromHistogramDelta(it->second,
                                                           bit->second);
    }
    bool complete =
        row->load.ok == row->load.sent && row->load.errors == 0 &&
        reg.GetCounter("serve.requests").value() == row->load.sent;
    if (!complete) {
      std::fprintf(stderr,
                   "FAIL: %s %d conns: sent=%lld ok=%lld errors=%lld "
                   "serve.requests=%lld\n",
                   mode.c_str(), conns,
                   static_cast<long long>(row->load.sent),
                   static_cast<long long>(row->load.ok),
                   static_cast<long long>(row->load.errors),
                   static_cast<long long>(
                       reg.GetCounter("serve.requests").value()));
    }
    return complete;
  };

  bool all_ok = true;
  std::vector<RowResult> rows;
  double closed_capacity = 0;
  for (int conns : kClosedConns) {
    RowResult row;
    all_ok = run_row("closed", conns, 0, &row) && all_ok;
    closed_capacity = std::max(closed_capacity, row.load.achieved_qps);
    rows.push_back(row);
  }
  {
    // Fixed-rate row at ~half of measured capacity: feasible on any machine
    // this runs on, yet high enough that batching and queueing engage.
    double target = std::max(50.0, 0.5 * closed_capacity);
    RowResult row;
    all_ok = run_row("open", kClosedConns.back(), target, &row) && all_ok;
    rows.push_back(row);
  }

  Table table({"Mode", "Conns", "TargetQPS", "Requests", "QPS", "p50us",
               "p99us", "p999us", "maxus", "MaxInFl", "Err", "SrvP50us",
               "SrvP99us", "SrvP999us", "MeanBatch"});
  for (const auto& row : rows) {
    table.Row()
        .Cell(row.mode)
        .Int(row.conns)
        .Num(row.target_qps, 0)
        .Int(row.load.sent)
        .Num(row.load.achieved_qps, 1)
        .Int(row.load.p50_us)
        .Int(row.load.p99_us)
        .Int(row.load.p999_us)
        .Int(row.load.max_us)
        .Int(row.load.max_in_flight)
        .Int(row.load.errors)
        .Int(row.srv_p50_us)
        .Int(row.srv_p99_us)
        .Int(row.srv_p999_us)
        .Num(row.srv_mean_batch, 2);
  }
  table.Print();
  std::printf(
      "Expected shape: closed-loop QPS grows with connections as the "
      "micro-batcher coalesces (MeanBatch > 1 past 1 conn); the open-loop "
      "row holds its target with p99 well under the closed-loop ceiling. "
      "SrvP*us are log2-bucket upper bounds of serve.request_ns — queue + "
      "model time; the client-observed gap on top is loopback + epoll "
      "overhead.\n");

  // Per-stage breakdown, scraped over the admin endpoint: each row is one
  // stage of one load row, diffed between the row's two /metrics scrapes.
  Table stage_table(
      {"Mode", "Conns", "Stage", "Count", "P50us", "P99us", "MeanUs"});
  for (const auto& row : rows) {
    for (const char* stage : kStages) {
      auto it = row.stages.find(stage);
      if (it == row.stages.end()) continue;
      const serve::PromHistogram& h = it->second;
      stage_table.Row()
          .Cell(row.mode)
          .Int(row.conns)
          .Cell(stage)
          .Int(h.count)
          .Int(serve::PromHistogramPercentile(h, 0.50) / 1000)
          .Int(serve::PromHistogramPercentile(h, 0.99) / 1000)
          .Num(h.count > 0 ? static_cast<double>(h.sum) /
                                 static_cast<double>(h.count) / 1000.0
                           : 0.0,
               2);
    }
  }
  stage_table.Print();
  std::printf(
      "Stage rows are server-side serve.stage.* deltas per load row "
      "(parse -> queue -> batch -> score -> rank -> write); P*us are "
      "log2-bucket upper bounds, MeanUs is exact. queue+batch dominate "
      "under light load (the micro-batch window), score under saturation.\n");

  // Admin-plane smoke: the remaining endpoints must answer well-formed
  // while the server is still up — this is the CI gate's view of /healthz
  // and /tracez (the /metrics path was validated per row above).
  {
    serve::HttpResponse r;
    Status s =
        serve::HttpGet("127.0.0.1", server->admin_port(), "/healthz", &r);
    if (!s.ok() || r.code != 200 || r.body != "ok\n") {
      std::fprintf(stderr, "FAIL: /healthz: %s (code %d body %s)\n",
                   s.ToString().c_str(), r.code, r.body.c_str());
      all_ok = false;
    }
    s = serve::HttpGet("127.0.0.1", server->admin_port(), "/tracez", &r);
    if (!s.ok() || r.code != 200 ||
        r.body.find("\"traceEvents\"") == std::string::npos) {
      std::fprintf(stderr, "FAIL: /tracez did not return a trace document\n");
      all_ok = false;
    }
  }

  server->Shutdown();
  if (!all_ok) {
    std::fprintf(stderr, "FAIL: at least one load row lost or errored "
                         "requests (see above)\n");
    return 1;
  }
  return 0;
}
