// Load-generator tests (serve/loadgen.h): the query mix must be a pure
// function of the seed (so bench rows are reproducible run to run), the
// nearest-rank percentile extraction must match a naive reference, and the
// closed-loop concurrency bound — at most one outstanding request per
// connection — must hold against a real TCP server.
#include "serve/loadgen.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/missl.h"
#include "nn/serialize.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/tcp_server.h"
#include "utils/rng.h"

namespace missl {
namespace {

constexpr int32_t kItems = 60;
constexpr int32_t kBehaviors = 3;
constexpr int64_t kMaxLen = 12;

std::unique_ptr<serve::RecoService> MakeService(const char* ckpt_name,
                                                Status* status) {
  core::MisslConfig cfg;
  cfg.dim = 16;
  cfg.num_interests = 2;
  cfg.seed = 61;
  auto make_model = [&] {
    return std::make_unique<core::MisslModel>(kItems, kBehaviors, kMaxLen,
                                              cfg);
  };
  std::string path = ::testing::TempDir() + "/" + ckpt_name;
  {
    auto model = make_model();
    Status s = nn::SaveParameters(*model, path);
    if (!s.ok()) {
      *status = s;
      return nullptr;
    }
  }
  serve::ServeConfig scfg;
  scfg.max_len = kMaxLen;
  scfg.max_batch = 8;
  scfg.max_wait_us = 1000;
  auto service = serve::RecoService::Load(make_model(), kItems, kBehaviors,
                                          path, scfg, status);
  std::remove(path.c_str());
  return service;
}

serve::LoadGenConfig MixConfig() {
  serve::LoadGenConfig cfg;
  cfg.num_items = kItems;
  cfg.num_behaviors = kBehaviors;
  cfg.max_history = static_cast<int>(kMaxLen);
  return cfg;
}

TEST(LoadGenTest, QueryMixIsDeterministicPerSeed) {
  serve::LoadGenConfig cfg = MixConfig();
  auto draw = [&](uint64_t seed, uint64_t stream) {
    Rng rng(seed, stream);
    std::vector<std::string> lines;
    for (int64_t id = 0; id < 50; ++id) {
      serve::ParsedQuery p = serve::MakeLoadQuery(&rng, id, cfg);
      lines.push_back(serve::QueryToLine(p.id, p.query));
    }
    return lines;
  };
  // Same (seed, stream): identical wire bytes. Different seed or different
  // sub-stream: the mix must diverge somewhere.
  EXPECT_EQ(draw(9, 0), draw(9, 0));
  EXPECT_NE(draw(9, 0), draw(10, 0));
  EXPECT_NE(draw(9, 0), draw(9, 1));
}

TEST(LoadGenTest, MadeQueriesAreWireRepresentable) {
  // Every generated query must survive the wire round trip exactly — the
  // load numbers are meaningless if the server sees a different query than
  // the generator drew (e.g. a `now` the line cannot carry).
  serve::LoadGenConfig cfg = MixConfig();
  Rng rng(123, 4);
  for (int64_t id = 0; id < 200; ++id) {
    serve::ParsedQuery p = serve::MakeLoadQuery(&rng, id, cfg);
    ASSERT_GE(static_cast<int>(p.query.items.size()), cfg.min_history);
    ASSERT_LE(static_cast<int>(p.query.items.size()), cfg.max_history);
    serve::ParsedQuery back;
    Status s = serve::ParseQueryLine(serve::QueryToLine(p.id, p.query), &back);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(back.id, p.id);
    EXPECT_EQ(back.query.items, p.query.items);
    EXPECT_EQ(back.query.behaviors, p.query.behaviors);
    EXPECT_EQ(back.query.timestamps, p.query.timestamps);
    EXPECT_EQ(back.query.now, p.query.now);
    EXPECT_EQ(back.query.exclude, p.query.exclude);
    EXPECT_EQ(back.query.k, p.query.k);
  }
}

TEST(LoadGenTest, PercentileNearestRankMatchesReference) {
  // Known values over 1..100: the p-th percentile is the ceil(p*100)-th
  // smallest sample.
  std::vector<int64_t> v;
  for (int64_t i = 1; i <= 100; ++i) v.push_back(i);
  Rng rng(55);
  rng.Shuffle(&v);  // order must not matter
  EXPECT_EQ(serve::PercentileNearestRank(v, 0.50), 50);
  EXPECT_EQ(serve::PercentileNearestRank(v, 0.99), 99);
  EXPECT_EQ(serve::PercentileNearestRank(v, 0.999), 100);
  EXPECT_EQ(serve::PercentileNearestRank(v, 1.0), 100);
  EXPECT_EQ(serve::PercentileNearestRank(v, 0.0), 1);
  EXPECT_EQ(serve::PercentileNearestRank(v, 0.001), 1);

  // Random sample set vs a naive reference implementation.
  std::vector<int64_t> samples;
  for (int i = 0; i < 777; ++i) {
    samples.push_back(static_cast<int64_t>(rng.UniformInt(1000000)));
  }
  std::vector<int64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (double p : {0.25, 0.5, 0.9, 0.99, 0.999}) {
    size_t rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(sorted.size())));
    EXPECT_EQ(serve::PercentileNearestRank(samples, p), sorted[rank - 1])
        << "p=" << p;
  }

  EXPECT_EQ(serve::PercentileNearestRank({}, 0.5), 0);
  EXPECT_EQ(serve::PercentileNearestRank({42}, 0.5), 42);
}

TEST(LoadGenTest, RejectsBadConfig) {
  serve::LoadGenConfig cfg = MixConfig();
  serve::LoadGenResult out;
  cfg.port = 0;  // unset
  EXPECT_EQ(serve::RunLoadGen(cfg, &out).code(),
            StatusCode::kInvalidArgument);
  cfg.port = 1234;
  cfg.connections = 0;
  EXPECT_EQ(serve::RunLoadGen(cfg, &out).code(),
            StatusCode::kInvalidArgument);
  cfg.connections = 1;
  cfg.total_requests = 0;
  EXPECT_EQ(serve::RunLoadGen(cfg, &out).code(),
            StatusCode::kInvalidArgument);
  cfg.total_requests = 1;
  cfg.target_qps = -1;
  EXPECT_EQ(serve::RunLoadGen(cfg, &out).code(),
            StatusCode::kInvalidArgument);
}

TEST(LoadGenTest, ClosedLoopBoundHoldsAgainstRealServer) {
  Status status;
  auto service = MakeService("loadgen_closed.bin", &status);
  ASSERT_NE(service, nullptr) << status.ToString();
  serve::TcpServerConfig tcfg;
  auto server = serve::TcpServer::Start(service.get(), tcfg, &status);
  ASSERT_NE(server, nullptr) << status.ToString();

  serve::LoadGenConfig cfg = MixConfig();
  cfg.port = server->port();
  cfg.connections = 3;
  cfg.target_qps = 0;  // closed loop
  cfg.total_requests = 30;
  cfg.seed = 5;
  serve::LoadGenResult out;
  Status s = serve::RunLoadGen(cfg, &out);
  ASSERT_TRUE(s.ok()) << s.ToString();

  // Every request answered, none as errors; the closed loop never had more
  // outstanding than it has connections; the server agrees on the count.
  EXPECT_EQ(out.sent, 30);
  EXPECT_EQ(out.ok, 30);
  EXPECT_EQ(out.errors, 0);
  EXPECT_GT(out.max_in_flight, 0);
  EXPECT_LE(out.max_in_flight, cfg.connections);
  EXPECT_GT(out.achieved_qps, 0);
  EXPECT_GT(out.wall_seconds, 0);
  EXPECT_LE(out.p50_us, out.p99_us);
  EXPECT_LE(out.p99_us, out.p999_us);
  EXPECT_LE(out.p999_us, out.max_us);
  EXPECT_EQ(service->requests_served(), 30);
  EXPECT_EQ(server->connections_accepted(), cfg.connections);
  server->Shutdown();
}

TEST(LoadGenTest, OpenLoopAnswersEveryScheduledRequest) {
  Status status;
  auto service = MakeService("loadgen_open.bin", &status);
  ASSERT_NE(service, nullptr) << status.ToString();
  serve::TcpServerConfig tcfg;
  auto server = serve::TcpServer::Start(service.get(), tcfg, &status);
  ASSERT_NE(server, nullptr) << status.ToString();

  serve::LoadGenConfig cfg = MixConfig();
  cfg.port = server->port();
  cfg.connections = 2;
  cfg.target_qps = 400;  // well within loopback capacity; run lasts ~0.1s
  cfg.total_requests = 40;
  cfg.seed = 6;
  serve::LoadGenResult out;
  Status s = serve::RunLoadGen(cfg, &out);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(out.sent, 40);
  EXPECT_EQ(out.ok, 40);
  EXPECT_EQ(out.errors, 0);
  EXPECT_EQ(service->requests_served(), 40);
  server->Shutdown();
}

}  // namespace
}  // namespace missl
