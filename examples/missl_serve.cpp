// missl_serve: drive the online serving subsystem (src/serve/) headlessly.
//
// Loads a frozen MISSL checkpoint into a serve::RecoService and answers a
// file (or stdin) of line-protocol queries from several concurrent client
// threads, printing one JSON object per answer. See docs/SERVING.md for the
// protocol and architecture.
//
//   # write a freshly initialized (seeded) checkpoint and exit
//   ./build/examples/missl_serve --init-checkpoint ckpt.bin
//
//   # serve a query file through 4 client threads
//   ./build/examples/missl_serve --checkpoint ckpt.bin
//       --queries examples/serve_queries.tsv --clients 4 --metrics
//
//   # CI smoke: checkpoint round trip + serve + offline parity + histogram
//   # checks, all in one process (exit code 0 only if everything holds)
//   ./build/examples/missl_serve --smoke --queries examples/serve_queries.tsv
//
//   # serve over TCP (epoll front-end, src/serve/tcp_server.h) until
//   # SIGINT/SIGTERM, then drain gracefully; port 0 picks an ephemeral one
//   # and the bound port is printed to stderr
//   ./build/examples/missl_serve --checkpoint ckpt.bin --listen 7421
//
// Flags:
//   --checkpoint PATH        checkpoint to serve from
//   --init-checkpoint PATH   write a seeded, untrained checkpoint and exit
//   --queries PATH           query file (default: stdin)
//   --listen PORT            serve the line protocol over TCP on
//                            127.0.0.1:PORT instead of answering a query
//                            file ("--listen=PORT" also accepted); runs
//                            until SIGINT/SIGTERM, then drains; SIGUSR1
//                            dumps the flight recorder to a timestamped
//                            Chrome trace file and keeps serving
//   --admin PORT             TCP mode: admin HTTP port for /metrics,
//                            /healthz, /statusz, /tracez (default 0 =
//                            ephemeral; -1 disables the admin plane)
//   --port-file PATH         TCP mode: write "port=P\nadmin_port=Q\n" once
//                            both listeners are bound (for scripts driving
//                            ephemeral ports)
//   --max-conns N            TCP mode: connection limit (default 256)
//   --clients N              concurrent client threads (default 4)
//   --batch N                micro-batcher max batch size (default 8)
//   --wait-us N              micro-batcher max wait in us (default 2000)
//   --precision P            catalog-scoring precision: "fp32" (default) or
//                            "int8" (quantized catalog tier —
//                            docs/INFERENCE.md)
//   --selftest               compare every answer with the offline
//                            core::RecommendTopN path (exit 1 on mismatch);
//                            under --precision int8 the reference is an
//                            offline int8 plan instead
//   --smoke                  --selftest + temp checkpoint + metric checks
//   --metrics                print the metrics registry at exit
//   --trace PATH             write a Chrome trace of the run
//   --items/--behaviors/--dim/--interests/--max-len/--seed
//                            model shape (must match between --init-checkpoint
//                            and serving; defaults: 120/3/32/3/20/17)
//   --help                   print this flag reference and exit 0
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/missl.h"
#include "core/recommend.h"
#include "infer/plan.h"
#include "nn/serialize.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/tcp_server.h"

namespace {

// Printed by --help (exit 0) and pointed at by the unknown-flag error. Keep
// in sync with the file header comment and docs/SERVING.md.
constexpr const char kUsage[] =
    R"(usage: missl_serve [flags]

Loads a frozen MISSL checkpoint into a serve::RecoService and answers
line-protocol queries, either from a file/stdin through in-process client
threads or over TCP (--listen). See docs/SERVING.md for the protocol.

Checkpoint:
  --checkpoint PATH        checkpoint to serve from
  --init-checkpoint PATH   write a seeded, untrained checkpoint and exit

Query input (file mode, the default):
  --queries PATH           query file (default: stdin)
  --clients N              concurrent client threads (default 4)

TCP mode:
  --listen PORT            serve the line protocol over TCP on
                           127.0.0.1:PORT ("--listen=PORT" also accepted;
                           port 0 picks an ephemeral one, logged to stderr).
                           Runs until SIGINT/SIGTERM, then drains
                           gracefully. SIGUSR1 dumps the always-on flight
                           recorder to a timestamped Chrome trace file
                           (missl_flight_<unix-time>.json) and keeps
                           serving.
  --admin PORT             admin HTTP port for /metrics (Prometheus),
                           /healthz, /statusz, /tracez (default 0 =
                           ephemeral; -1 disables the admin plane)
  --port-file PATH         write "port=P\nadmin_port=Q\n" once both
                           listeners are bound (for scripts driving
                           ephemeral ports)
  --max-conns N            connection limit (default 256)

Scoring:
  --batch N                micro-batcher max batch size (default 8)
  --wait-us N              micro-batcher max wait in us (default 2000)
  --precision P            catalog-scoring precision: "fp32" (default) or
                           "int8" (symmetric per-item quantized catalog with
                           int32 maddubs scoring; deterministic but not
                           bitwise fp32; see docs/INFERENCE.md)
                           Batches are scored by the compiled op plan
                           (src/infer/), bitwise identical to the training
                           forward at fp32.

Model shape (must match between --init-checkpoint and serving):
  --items N / --behaviors N / --dim N / --interests N / --max-len N /
  --seed N                 defaults: 120 / 3 / 32 / 3 / 20 / 17

Diagnostics:
  --selftest               compare every answer with the offline
                           core::RecommendTopN path (exit 1 on mismatch);
                           under --precision int8 the reference is an
                           offline int8 plan
  --smoke                  --selftest + temp checkpoint + metric checks
  --metrics                print the metrics registry at exit
  --trace PATH             write a Chrome trace of the run
  --help                   print this reference and exit 0
)";

struct Options {
  std::string checkpoint;
  std::string init_checkpoint;
  std::string queries;
  std::string trace;
  int listen_port = -1;  ///< >= 0: TCP mode on 127.0.0.1:port (0 ephemeral)
  int admin_port = 0;    ///< admin HTTP port (0 ephemeral, -1 disabled)
  std::string port_file;
  int max_conns = 256;
  int clients = 4;
  int32_t batch = 8;
  int64_t wait_us = 2000;
  missl::serve::Precision precision = missl::serve::Precision::kFp32;
  bool selftest = false;
  bool smoke = false;
  bool metrics = false;
  int32_t items = 120;
  int32_t behaviors = 3;
  int64_t dim = 32;
  int64_t interests = 3;
  int64_t max_len = 20;
  uint64_t seed = 17;
};

missl::core::MisslConfig ModelConfig(const Options& opt) {
  missl::core::MisslConfig cfg;
  cfg.dim = opt.dim;
  cfg.num_interests = opt.interests;
  cfg.seed = opt.seed;
  return cfg;
}

std::unique_ptr<missl::core::MisslModel> MakeModel(const Options& opt) {
  return std::make_unique<missl::core::MisslModel>(
      opt.items, opt.behaviors, opt.max_len, ModelConfig(opt));
}

int Fail(const std::string& msg) {
  std::fprintf(stderr, "missl_serve: %s\n", msg.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace missl;

  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--checkpoint") opt.checkpoint = next("--checkpoint");
    else if (a == "--init-checkpoint") opt.init_checkpoint = next("--init-checkpoint");
    else if (a == "--queries") opt.queries = next("--queries");
    else if (a == "--listen") opt.listen_port = std::atoi(next("--listen").c_str());
    else if (a.rfind("--listen=", 0) == 0) opt.listen_port = std::atoi(a.c_str() + 9);
    else if (a == "--admin") opt.admin_port = std::atoi(next("--admin").c_str());
    else if (a == "--port-file") opt.port_file = next("--port-file");
    else if (a == "--max-conns") opt.max_conns = std::atoi(next("--max-conns").c_str());
    else if (a == "--trace") opt.trace = next("--trace");
    else if (a == "--clients") opt.clients = std::atoi(next("--clients").c_str());
    else if (a == "--batch") opt.batch = std::atoi(next("--batch").c_str());
    else if (a == "--wait-us") opt.wait_us = std::atoll(next("--wait-us").c_str());
    else if (a == "--precision") {
      std::string p = next("--precision");
      if (p == "fp32") opt.precision = serve::Precision::kFp32;
      else if (p == "int8") opt.precision = serve::Precision::kInt8;
      else {
        std::fprintf(stderr, "--precision must be 'fp32' or 'int8', got '%s'\n",
                     p.c_str());
        return 2;
      }
    }
    else if (a == "--help" || a == "-h") {
      std::fputs(kUsage, stdout);
      return 0;
    }
    else if (a == "--selftest") opt.selftest = true;
    else if (a == "--smoke") opt.smoke = true;
    else if (a == "--metrics") opt.metrics = true;
    else if (a == "--items") opt.items = std::atoi(next("--items").c_str());
    else if (a == "--behaviors") opt.behaviors = std::atoi(next("--behaviors").c_str());
    else if (a == "--dim") opt.dim = std::atoll(next("--dim").c_str());
    else if (a == "--interests") opt.interests = std::atoll(next("--interests").c_str());
    else if (a == "--max-len") opt.max_len = std::atoll(next("--max-len").c_str());
    else if (a == "--seed") opt.seed = std::strtoull(next("--seed").c_str(), nullptr, 10);
    else {
      std::fprintf(stderr, "unknown flag '%s' (--help for usage)\n",
                   a.c_str());
      return 2;
    }
  }
  if (opt.clients < 1) return Fail("--clients must be >= 1");

  // --init-checkpoint: write a seeded untrained model and exit. A real
  // deployment would point --checkpoint at a train::Fit best checkpoint
  // instead; the frozen weights are bit-identical either way.
  if (!opt.init_checkpoint.empty()) {
    auto model = MakeModel(opt);
    Status s = nn::SaveParameters(*model, opt.init_checkpoint);
    if (!s.ok()) return Fail("init-checkpoint failed: " + s.ToString());
    std::fprintf(stderr, "wrote %s (%lld params, seed %llu)\n",
                 opt.init_checkpoint.c_str(),
                 static_cast<long long>(model->NumParams()),
                 static_cast<unsigned long long>(opt.seed));
    return 0;
  }

  std::string smoke_ckpt;
  if (opt.smoke) {
    opt.selftest = true;
    opt.metrics = true;
    const char* tmp = std::getenv("TMPDIR");
    smoke_ckpt = std::string(tmp != nullptr ? tmp : "/tmp") +
                 "/missl_serve_smoke_" + std::to_string(getpid()) + ".bin";
    auto model = MakeModel(opt);
    Status s = nn::SaveParameters(*model, smoke_ckpt);
    if (!s.ok()) return Fail("smoke checkpoint write failed: " + s.ToString());
    opt.checkpoint = smoke_ckpt;
  }
  if (opt.checkpoint.empty()) {
    return Fail("--checkpoint (or --smoke / --init-checkpoint) is required");
  }

  obs::SetMetricsEnabled(true);
  if (!opt.trace.empty()) obs::StartTracing();

  // --listen: TCP mode. Load the frozen service, put the epoll front-end in
  // front of it, and serve until SIGINT/SIGTERM triggers a graceful drain.
  if (opt.listen_port >= 0) {
    // Block the shutdown/dump signals before any server thread exists so
    // they are delivered to sigwait below, not to a worker.
    sigset_t sigs;
    sigemptyset(&sigs);
    sigaddset(&sigs, SIGINT);
    sigaddset(&sigs, SIGTERM);
    sigaddset(&sigs, SIGUSR1);
    pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

    serve::ServeConfig scfg;
    scfg.max_len = opt.max_len;
    scfg.max_batch = opt.batch;
    scfg.max_wait_us = opt.wait_us;
    scfg.precision = opt.precision;
    Status status;
    auto service = serve::RecoService::Load(MakeModel(opt), opt.items,
                                            opt.behaviors, opt.checkpoint,
                                            scfg, &status);
    if (service == nullptr) return Fail("load failed: " + status.ToString());
    serve::TcpServerConfig tcfg;
    tcfg.port = opt.listen_port;
    tcfg.admin_port = opt.admin_port;
    tcfg.max_connections = opt.max_conns;
    auto server = serve::TcpServer::Start(service.get(), tcfg, &status);
    if (server == nullptr) {
      return Fail("listen failed: " + status.ToString());
    }
    // Log the *resolved* ports: with ephemeral ports (0) these are the only
    // place the actual numbers appear.
    std::fprintf(stderr,
                 "listening on 127.0.0.1:%d (<=%d connections, batch<=%d, "
                 "wait %lldus); SIGINT/SIGTERM drains, SIGUSR1 dumps the "
                 "flight recorder\n",
                 server->port(), opt.max_conns, opt.batch,
                 static_cast<long long>(opt.wait_us));
    if (server->admin_port() >= 0) {
      std::fprintf(stderr,
                   "admin endpoint on 127.0.0.1:%d "
                   "(/metrics /healthz /statusz /tracez)\n",
                   server->admin_port());
    }
    if (!opt.port_file.empty()) {
      std::ofstream pf(opt.port_file);
      if (!pf.is_open()) return Fail("cannot write " + opt.port_file);
      pf << "port=" << server->port() << "\n"
         << "admin_port=" << server->admin_port() << "\n";
    }
    for (;;) {
      int sig = 0;
      sigwait(&sigs, &sig);
      if (sig == SIGUSR1) {
        std::string path =
            "missl_flight_" + std::to_string(time(nullptr)) + ".json";
        Status s = obs::WriteTrace(path);
        if (s.ok()) {
          std::fprintf(stderr, "SIGUSR1: flight recorder dumped to %s\n",
                       path.c_str());
        } else {
          std::fprintf(stderr, "SIGUSR1: flight dump failed: %s\n",
                       s.ToString().c_str());
        }
        continue;
      }
      std::fprintf(stderr, "signal %d: draining...\n", sig);
      break;
    }
    server->Shutdown();
    std::fprintf(stderr,
                 "drained: %lld connections served, %lld refused, %lld "
                 "requests answered\n",
                 static_cast<long long>(server->connections_accepted()),
                 static_cast<long long>(server->connections_refused()),
                 static_cast<long long>(service->requests_served()));
    if (opt.metrics) {
      std::fprintf(
          stderr, "\n== metrics ==\n%s",
          obs::SnapshotText(obs::MetricsRegistry::Global().Snapshot()).c_str());
    }
    if (!smoke_ckpt.empty()) std::remove(smoke_ckpt.c_str());
    return 0;
  }

  // Read and parse all queries up front (blank and '#' lines skipped).
  std::ifstream file;
  std::istream* in = &std::cin;
  if (!opt.queries.empty()) {
    file.open(opt.queries);
    if (!file.is_open()) return Fail("cannot open " + opt.queries);
    in = &file;
  }
  std::vector<serve::ParsedQuery> queries;
  std::string line;
  int lineno = 0;
  while (std::getline(*in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    serve::ParsedQuery q;
    Status s = serve::ParseQueryLine(line, &q);
    if (!s.ok()) {
      return Fail("query line " + std::to_string(lineno) + ": " + s.ToString());
    }
    queries.push_back(std::move(q));
  }
  if (queries.empty()) return Fail("no queries");

  // Load the frozen service.
  serve::ServeConfig scfg;
  scfg.max_len = opt.max_len;
  scfg.max_batch = opt.batch;
  scfg.max_wait_us = opt.wait_us;
  scfg.precision = opt.precision;
  Status load_status;
  auto service = serve::RecoService::Load(MakeModel(opt), opt.items,
                                          opt.behaviors, opt.checkpoint, scfg,
                                          &load_status);
  if (service == nullptr) return Fail("load failed: " + load_status.ToString());
  std::fprintf(stderr,
               "serving %s: %d items, %d behaviors, batch<=%d, wait %lldus, "
               "%d client threads, %zu queries, %s catalog\n",
               opt.checkpoint.c_str(), opt.items, opt.behaviors, opt.batch,
               static_cast<long long>(opt.wait_us), opt.clients,
               queries.size(), serve::PrecisionName(opt.precision));

  // Fan the queries out over the client threads (query i -> thread i mod C)
  // and collect answers by index so output order matches input order.
  std::vector<serve::TopKResult> results(queries.size());
  std::vector<Status> statuses(queries.size());
  std::atomic<bool> ok{true};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(opt.clients));
  for (int t = 0; t < opt.clients; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < queries.size();
           i += static_cast<size_t>(opt.clients)) {
        statuses[i] = service->TopK(queries[i].query, &results[i]);
        if (!statuses[i].ok()) ok.store(false);
      }
    });
  }
  for (auto& c : clients) c.join();
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!statuses[i].ok()) {
      return Fail("query id " + std::to_string(queries[i].id) + ": " +
                  statuses[i].ToString());
    }
    std::printf("%s\n", serve::TopKToJson(queries[i].id, results[i]).c_str());
  }

  int exit_code = 0;
  if (opt.selftest) {
    // Offline reference: the same histories through a plainly-loaded model,
    // in one batch. Every list must match bitwise. Under --precision int8
    // the reference is an offline int8 plan instead of RecommendTopN
    // (which scores fp32): row independence makes the
    // service's coalesced sub-batches bitwise equal to this one-shot full
    // batch, so the check stays a strict bitwise one. Int8-vs-fp32 accuracy
    // is tests/quant_test.cc's job, not the smoke's.
    auto offline = MakeModel(opt);
    std::vector<const serve::Query*> qptrs;
    std::vector<std::vector<int32_t>> seen;
    for (const auto& q : queries) {
      qptrs.push_back(&q.query);
      seen.push_back(q.query.exclude);
    }
    data::Batch batch =
        serve::BuildQueryBatch(qptrs, opt.max_len, opt.behaviors);
    int32_t max_k = 1;
    for (const auto& q : queries) max_k = std::max(max_k, q.query.k);
    std::vector<core::Recommendation> recs;
    const char* ref_name = "offline RecommendTopN";
    if (opt.precision == serve::Precision::kInt8) {
      ref_name = "offline int8 plan";
      Status s = nn::LoadParametersForInference(offline.get(), opt.checkpoint);
      if (!s.ok()) return Fail("selftest load failed: " + s.ToString());
      Tensor catalog;
      {
        NoGradGuard ng;
        catalog = offline->PrecomputeCatalog();
      }
      infer::InferConfig icfg;
      icfg.quantize_catalog = true;
      auto plan = infer::PlannedExecutor::Compile(
          *offline, catalog, static_cast<int64_t>(queries.size()), icfg, &s);
      if (plan == nullptr) {
        return Fail("selftest int8 compile failed: " + s.ToString());
      }
      const float* scores = plan->Run(batch);
      recs.resize(queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        std::vector<int32_t> excl = seen[i];
        std::sort(excl.begin(), excl.end());
        core::TopKRow(scores + i * static_cast<size_t>(opt.items), opt.items,
                      &excl, max_k, &recs[i].items, &recs[i].scores);
      }
    } else {
      Status s = nn::LoadParameters(offline.get(), opt.checkpoint);
      if (!s.ok()) return Fail("selftest load failed: " + s.ToString());
      recs = core::RecommendTopN(offline.get(), batch, seen, max_k, opt.items);
    }
    size_t mismatches = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      size_t want = std::min<size_t>(
          static_cast<size_t>(queries[i].query.k), recs[i].items.size());
      bool match = results[i].items.size() == want;
      for (size_t j = 0; match && j < want; ++j) {
        match = results[i].items[j] == recs[i].items[j] &&
                results[i].scores[j] == recs[i].scores[j];
      }
      if (!match) {
        ++mismatches;
        std::fprintf(stderr, "selftest MISMATCH on query id %lld\n",
                     static_cast<long long>(queries[i].id));
      }
    }
    if (mismatches > 0) {
      exit_code = Fail("selftest failed: " + std::to_string(mismatches) +
                       " of " + std::to_string(queries.size()) +
                       " lists differ from the offline path");
    } else {
      std::fprintf(stderr, "selftest OK: %zu/%zu lists bitwise-identical to "
                   "%s\n", queries.size(), queries.size(), ref_name);
    }
    // The serving instrumentation must actually have observed the run.
    auto& reg = obs::MetricsRegistry::Global();
    int64_t requests = reg.GetCounter("serve.requests").value();
    int64_t batch_wait = reg.GetHistogram("serve.stage.batch_ns").count();
    int64_t request_ns = reg.GetHistogram("serve.request_ns").count();
    if (requests != static_cast<int64_t>(queries.size()) ||
        batch_wait != static_cast<int64_t>(queries.size()) ||
        request_ns != static_cast<int64_t>(queries.size())) {
      exit_code = Fail("metrics check failed: serve.requests=" +
                       std::to_string(requests) + " stage.batch_ns count=" +
                       std::to_string(batch_wait) + " request_ns count=" +
                       std::to_string(request_ns) + ", want all == " +
                       std::to_string(queries.size()));
    }
  }

  if (!opt.trace.empty()) {
    obs::StopTracing();
    Status s = obs::WriteTrace(opt.trace);
    if (!s.ok()) exit_code = Fail("trace write failed: " + s.ToString());
  }
  if (opt.metrics) {
    std::fprintf(
        stderr, "\n== metrics ==\n%s",
        obs::SnapshotText(obs::MetricsRegistry::Global().Snapshot()).c_str());
  }
  if (!smoke_ckpt.empty()) std::remove(smoke_ckpt.c_str());
  return exit_code;
}
