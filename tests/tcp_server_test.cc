// Socket-level tests for the epoll TCP front-end (serve/tcp_server.h).
// These drive a real TcpServer over loopback sockets — the same code path
// the bench and the CLI use — and lock the serving invariants:
//   - the line protocol round-trips every query the clients draw;
//   - answers delivered over TCP are bitwise-identical to offline
//     RecommendTopN, under 8 concurrent pipelining client threads;
//   - graceful shutdown drains in-flight queries to completion while late
//     connects are refused with a clean error line, and a Shutdown that
//     lands mid-burst still answers every pipelined request exactly once;
//   - the connection limit refuses extras and recovers when slots free up;
//   - malformed lines are answered in-band and the connection stays usable;
//   - a half-closed peer (shutdown(SHUT_WR)) still receives its answers;
//   - the admin plane (/metrics /healthz /statusz /tracez) answers during
//     query load without perturbing answers, flips /healthz to 503 while
//     draining, and turns malformed/oversized HTTP into 4xx without
//     disturbing the query plane;
//   - two real /metrics scrapes around a pipelined multi-connection load
//     account for every request in serve.requests and in each of the six
//     serve.stage.* histograms;
//   - Start on a port another server holds fails with an IOError naming the
//     listener, for the query and the admin port alike, and leaves no
//     descriptor or thread behind.
// tcp_server_test runs in the TSan CI job, so every cross-thread handoff in
// the server is exercised under the race detector here.
#include "serve/tcp_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/missl.h"
#include "core/recommend.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "utils/rng.h"

#include "json_test_util.h"
#include "prom_test_util.h"

namespace missl {
namespace {

using testutil::JVal;
using testutil::ParseJsonOrFail;
using testutil::ParsePrometheusText;
using testutil::PromHistogram;

constexpr int32_t kItems = 60;
constexpr int32_t kBehaviors = 3;
constexpr int64_t kMaxLen = 12;

std::unique_ptr<core::MisslModel> MakeModel(uint64_t seed) {
  core::MisslConfig cfg;
  cfg.dim = 16;
  cfg.num_interests = 2;
  cfg.seed = seed;
  return std::make_unique<core::MisslModel>(kItems, kBehaviors, kMaxLen, cfg);
}

std::string CkptPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

// Builds the service the tests serve from. `model_seed` picks the frozen
// weights; the in-memory module is seeded differently on purpose so only
// the checkpoint contents can explain matching answers.
std::unique_ptr<serve::RecoService> MakeService(const char* ckpt_name,
                                                uint64_t model_seed,
                                                int32_t max_batch,
                                                int64_t max_wait_us,
                                                Status* status) {
  std::string path = CkptPath(ckpt_name);
  {
    auto model = MakeModel(model_seed);
    Status s = nn::SaveParameters(*model, path);
    if (!s.ok()) {
      *status = s;
      return nullptr;
    }
  }
  serve::ServeConfig cfg;
  cfg.max_len = kMaxLen;
  cfg.max_batch = max_batch;
  cfg.max_wait_us = max_wait_us;
  auto service = serve::RecoService::Load(MakeModel(model_seed + 1000),
                                          kItems, kBehaviors, path, cfg,
                                          status);
  std::remove(path.c_str());
  return service;
}

// A wire-representable random query: `now` is implicit on the wire, so it
// must equal the newest timestamp (or be 0 with no timestamps).
serve::Query RandomWireQuery(Rng* rng) {
  serve::Query q;
  int64_t len = 1 + static_cast<int64_t>(rng->UniformInt(2 * kMaxLen));
  bool with_ts = rng->Bernoulli(0.5f);
  int64_t ts = 100;
  for (int64_t i = 0; i < len; ++i) {
    q.items.push_back(static_cast<int32_t>(rng->UniformInt(kItems)));
    q.behaviors.push_back(static_cast<int32_t>(rng->UniformInt(kBehaviors)));
    if (with_ts) {
      ts += 1 + static_cast<int64_t>(rng->UniformInt(50));
      q.timestamps.push_back(ts);
    }
  }
  if (with_ts) q.now = q.timestamps.back();
  // Exclude a few ids, deliberately in event (unsorted) order.
  for (int64_t i = 0; i < len; i += 3) {
    q.exclude.push_back(q.items[static_cast<size_t>(i)]);
  }
  q.k = 5 + static_cast<int32_t>(rng->UniformInt(6));
  return q;
}

// Blocking loopback client socket with a receive-stall guard.
int ConnectLoopback(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_sec = 30;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

void SendAllBytes(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t w = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(w, 0) << "send: " << std::strerror(errno);
    off += static_cast<size_t>(w);
  }
}

// Reads one '\n'-terminated line; `acc` carries partial bytes across calls.
// Returns false on EOF-with-empty-buffer or error.
bool RecvLine(int fd, std::string* acc, std::string* line) {
  for (;;) {
    size_t nl = acc->find('\n');
    if (nl != std::string::npos) {
      line->assign(*acc, 0, nl);
      acc->erase(0, nl + 1);
      return true;
    }
    char tmp[4096];
    ssize_t r = ::recv(fd, tmp, sizeof(tmp), 0);
    if (r <= 0) return false;
    acc->append(tmp, static_cast<size_t>(r));
  }
}

// True when the peer has cleanly closed (recv returns 0 with nothing left).
bool RecvEof(int fd) {
  char tmp[64];
  ssize_t r = ::recv(fd, tmp, sizeof(tmp), 0);
  return r == 0;
}

int64_t ExtractId(const std::string& response) {
  size_t pos = response.find("\"id\":");
  if (pos == std::string::npos) return INT64_MIN;
  return std::strtoll(response.c_str() + pos + 5, nullptr, 10);
}

// Turns the metrics registry on for one test and restores the previous
// setting on every way out of it, a failed ASSERT included.
class ScopedMetricsOn {
 public:
  ScopedMetricsOn() : was_on_(obs::MetricsEnabled()) {
    obs::SetMetricsEnabled(true);
  }
  ~ScopedMetricsOn() { obs::SetMetricsEnabled(was_on_); }

 private:
  bool was_on_;
};

// The offline reference: one big RecommendTopN batch over all queries,
// trimmed to each query's k and rendered through the same JSON formatter
// the server uses, keyed by protocol id. String comparison makes the
// bitwise claim exact — no float reparsing on the client side.
std::map<int64_t, std::string> OfflineExpected(
    core::MisslModel* model, const std::vector<serve::ParsedQuery>& parsed) {
  std::vector<serve::Query> queries;
  std::vector<std::vector<int32_t>> seen;
  int32_t max_k = 0;
  for (const auto& p : parsed) {
    queries.push_back(p.query);
    seen.push_back(p.query.exclude);
    max_k = std::max(max_k, p.query.k);
  }
  data::Batch batch = serve::BuildQueryBatch(queries, kMaxLen, kBehaviors);
  auto recs = core::RecommendTopN(model, batch, seen, max_k, kItems);
  std::map<int64_t, std::string> expected;
  for (size_t i = 0; i < parsed.size(); ++i) {
    size_t want = std::min<size_t>(static_cast<size_t>(parsed[i].query.k),
                                   recs[i].items.size());
    serve::TopKResult trimmed;
    trimmed.items.assign(recs[i].items.begin(),
                         recs[i].items.begin() + static_cast<int64_t>(want));
    trimmed.scores.assign(recs[i].scores.begin(),
                          recs[i].scores.begin() + static_cast<int64_t>(want));
    expected[parsed[i].id] = serve::TopKToJson(parsed[i].id, trimmed);
  }
  return expected;
}

TEST(TcpServerTest, WireQueriesRoundTripThroughTheLineProtocol) {
  // Every client here speaks through QueryToLine: the server must parse back
  // exactly the query that was drawn, or the offline comparisons below would
  // be made against a different query.
  Rng rng(123);
  for (int64_t id = 0; id < 200; ++id) {
    const serve::Query q = RandomWireQuery(&rng);
    serve::ParsedQuery back;
    Status s = serve::ParseQueryLine(serve::QueryToLine(id, q), &back);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(back.id, id);
    EXPECT_EQ(back.query.items, q.items);
    EXPECT_EQ(back.query.behaviors, q.behaviors);
    EXPECT_EQ(back.query.timestamps, q.timestamps);
    EXPECT_EQ(back.query.now, q.now);
    EXPECT_EQ(back.query.exclude, q.exclude);
    EXPECT_EQ(back.query.k, q.k);
  }
}

TEST(TcpServerTest, EightClientThreadsBitwiseMatchOffline) {
  // 8 threads x 8 pipelined queries, generated up front so the offline
  // reference sees exactly the same mix.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 8;
  std::vector<std::vector<serve::ParsedQuery>> per_thread(kThreads);
  std::vector<serve::ParsedQuery> all;
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(400 + static_cast<uint64_t>(t));
    for (int j = 0; j < kPerThread; ++j) {
      serve::ParsedQuery p;
      p.id = t * 1000 + j;
      p.query = RandomWireQuery(&rng);
      per_thread[static_cast<size_t>(t)].push_back(p);
      all.push_back(p);
    }
  }
  // Frozen weights for the offline reference and the served checkpoint come
  // from the same seed; the serve-side module starts from different init.
  // The offline forward runs BEFORE the service spawns its threads so the
  // main-thread model pass is ordered before any dispatcher activity.
  auto offline_model = MakeModel(21);
  std::map<int64_t, std::string> expected =
      OfflineExpected(offline_model.get(), all);

  std::string path = CkptPath("tcp_bitwise.bin");
  ASSERT_TRUE(nn::SaveParameters(*offline_model, path).ok());
  serve::ServeConfig scfg;
  scfg.max_len = kMaxLen;
  scfg.max_batch = 8;
  scfg.max_wait_us = 2000;
  Status status;
  auto service = serve::RecoService::Load(MakeModel(909), kItems, kBehaviors,
                                          path, scfg, &status);
  std::remove(path.c_str());
  ASSERT_NE(service, nullptr) << status.ToString();

  serve::TcpServerConfig tcfg;
  auto server = serve::TcpServer::Start(service.get(), tcfg, &status);
  ASSERT_NE(server, nullptr) << status.ToString();

  // Each thread pipelines all its requests in one write, then collects the
  // responses — which may come back in any order; "id" is the join key.
  std::vector<std::map<int64_t, std::string>> received(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      int fd = ConnectLoopback(server->port());
      ASSERT_GE(fd, 0);
      std::string batch;
      for (const auto& p : per_thread[static_cast<size_t>(t)]) {
        batch += serve::QueryToLine(p.id, p.query);
        batch += '\n';
      }
      SendAllBytes(fd, batch);
      std::string acc, line;
      for (int j = 0; j < kPerThread; ++j) {
        ASSERT_TRUE(RecvLine(fd, &acc, &line)) << "thread " << t;
        received[static_cast<size_t>(t)][ExtractId(line)] = line;
      }
      ::close(fd);
    });
  }
  for (auto& c : clients) c.join();

  int matched = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (const auto& p : per_thread[static_cast<size_t>(t)]) {
      auto it = received[static_cast<size_t>(t)].find(p.id);
      ASSERT_NE(it, received[static_cast<size_t>(t)].end())
          << "no response for id " << p.id;
      EXPECT_EQ(it->second, expected[p.id]) << "id " << p.id;
      ++matched;
    }
  }
  EXPECT_EQ(matched, kThreads * kPerThread);
  EXPECT_EQ(server->connections_accepted(), kThreads);
  EXPECT_EQ(server->connections_refused(), 0);
  EXPECT_EQ(service->requests_served(), kThreads * kPerThread);
  server->Shutdown();
  EXPECT_EQ(server->active_connections(), 0);
}

TEST(TcpServerTest, GracefulShutdownDrainsInFlightAndRefusesLate) {
  // Queries and their offline expectations are computed before the service
  // exists: the main-thread model forward must be ordered before any
  // dispatcher-thread activity.
  constexpr int kConns = 3;
  Rng rng(77);
  std::vector<serve::ParsedQuery> parsed;
  for (int c = 0; c < kConns; ++c) {
    serve::ParsedQuery p;
    p.id = 500 + c;
    p.query = RandomWireQuery(&rng);
    parsed.push_back(p);
  }
  auto offline = MakeModel(23);
  std::map<int64_t, std::string> expected = OfflineExpected(offline.get(),
                                                            parsed);

  Status status;
  // A wide batch window keeps the queries parked inside the micro-batcher
  // when BeginShutdown() fires — genuinely in flight, not yet answered.
  auto service = MakeService("tcp_drain.bin", 23, /*max_batch=*/64,
                             /*max_wait_us=*/200000, &status);
  ASSERT_NE(service, nullptr) << status.ToString();
  serve::TcpServerConfig tcfg;
  auto server = serve::TcpServer::Start(service.get(), tcfg, &status);
  ASSERT_NE(server, nullptr) << status.ToString();

  std::vector<int> fds;
  for (int c = 0; c < kConns; ++c) {
    int fd = ConnectLoopback(server->port());
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
    SendAllBytes(fd, serve::QueryToLine(parsed[static_cast<size_t>(c)].id,
                                        parsed[static_cast<size_t>(c)].query) +
                         "\n");
  }
  // Give the epoll thread time to parse and submit the queries, which the
  // batcher now holds in its 200ms window.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  server->BeginShutdown();

  // A connect arriving after drain begins gets a clean refusal, then EOF.
  int late = ConnectLoopback(server->port());
  ASSERT_GE(late, 0);
  std::string acc, line;
  ASSERT_TRUE(RecvLine(late, &acc, &line));
  EXPECT_EQ(line, "{\"id\":-1,\"error\":\"shutting down\"}");
  EXPECT_TRUE(RecvEof(late));
  ::close(late);

  // Every in-flight query still gets its complete, correct answer, then the
  // drained connection is closed by the server.
  for (int c = 0; c < kConns; ++c) {
    std::string cacc, cline;
    ASSERT_TRUE(RecvLine(fds[static_cast<size_t>(c)], &cacc, &cline))
        << "conn " << c << " lost its in-flight answer";
    EXPECT_EQ(cline, expected[500 + c]) << "conn " << c;
    EXPECT_TRUE(RecvEof(fds[static_cast<size_t>(c)])) << "conn " << c;
    ::close(fds[static_cast<size_t>(c)]);
  }

  server->Shutdown();
  EXPECT_EQ(server->active_connections(), 0);
  EXPECT_GE(server->connections_refused(), 1);
  // After a full Shutdown the listener is gone: connects are refused by the
  // kernel, not parked in the backlog.
  EXPECT_LT(ConnectLoopback(server->port()), 0);
}

TEST(TcpServerTest, ShutdownDuringBatchesAnswersEveryPipelinedRequestOnce) {
  // Completions run on the service's dispatcher thread and still touch the
  // server (its flush list and eventfd) after their connection's last
  // in_flight decrement. Shutdown lands while batches of a pipelined burst
  // are still running, then the server is destroyed before the service:
  // every request must be answered exactly once, bitwise like offline. The
  // last connection resets right after its burst, so its queries are still
  // queued when every live connection has drained; Shutdown must wait for
  // their completions too, or they touch a destroyed server (ASan/TSan).
  constexpr int kConns = 4;
  constexpr int kPerConn = 64;
  constexpr int kTotal = (kConns + 1) * kPerConn;
  Rng rng(91);
  std::vector<serve::ParsedQuery> parsed;
  for (int i = 0; i < kTotal; ++i) {
    serve::ParsedQuery p;
    p.id = 2000 + i;
    p.query = RandomWireQuery(&rng);
    parsed.push_back(p);
  }
  auto offline = MakeModel(29);
  std::map<int64_t, std::string> expected =
      OfflineExpected(offline.get(), parsed);

  ScopedMetricsOn metrics_on;
  obs::Counter& lines = obs::MetricsRegistry::Global().GetCounter(
      "serve.tcp.lines");
  const int64_t lines_before = lines.value();
  Status status;
  // One query per batch keeps the dispatcher busy long after the epoll
  // thread has parsed the whole burst.
  auto service = MakeService("tcp_burst.bin", 29, /*max_batch=*/1,
                             /*max_wait_us=*/500, &status);
  ASSERT_NE(service, nullptr) << status.ToString();
  auto server =
      serve::TcpServer::Start(service.get(), serve::TcpServerConfig(), &status);
  ASSERT_NE(server, nullptr) << status.ToString();

  std::vector<int> fds;
  for (int c = 0; c <= kConns; ++c) {
    int fd = ConnectLoopback(server->port());
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
    std::string burst;
    for (int i = 0; i < kPerConn; ++i) {
      const serve::ParsedQuery& p =
          parsed[static_cast<size_t>(c * kPerConn + i)];
      burst += serve::QueryToLine(p.id, p.query) + "\n";
    }
    SendAllBytes(fd, burst);
    // Draining stops reading, so wait until the burst has been submitted.
    for (int spin = 0; spin < 30000 && lines.value() - lines_before <
                                           (c + 1) * kPerConn;
         ++spin) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ASSERT_EQ(lines.value() - lines_before, (c + 1) * kPerConn);
  }
  linger reset{1, 0};
  ::setsockopt(fds.back(), SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
  ::close(fds.back());
  fds.pop_back();
  std::thread shutdown([&] { server->Shutdown(); });

  std::map<int64_t, int> answers;
  for (int c = 0; c < kConns; ++c) {
    std::string acc, line;
    while (RecvLine(fds[static_cast<size_t>(c)], &acc, &line)) {
      const int64_t id = ExtractId(line);
      ++answers[id];
      EXPECT_EQ(line, expected[id]) << "conn " << c;
    }
    ::close(fds[static_cast<size_t>(c)]);
  }
  shutdown.join();
  server.reset();
  ASSERT_EQ(answers.size(), static_cast<size_t>(kConns * kPerConn));
  for (int i = 0; i < kConns * kPerConn; ++i) {
    EXPECT_EQ(answers[parsed[static_cast<size_t>(i)].id], 1) << "query " << i;
  }
  EXPECT_EQ(service->requests_served(), kTotal);
}

TEST(TcpServerTest, ConnectionLimitRefusesExtrasAndRecovers) {
  Status status;
  auto service = MakeService("tcp_limit.bin", 29, /*max_batch=*/4,
                             /*max_wait_us=*/500, &status);
  ASSERT_NE(service, nullptr) << status.ToString();
  serve::TcpServerConfig tcfg;
  tcfg.max_connections = 2;
  auto server = serve::TcpServer::Start(service.get(), tcfg, &status);
  ASSERT_NE(server, nullptr) << status.ToString();

  // Occupy both slots and prove the server processed the accepts by
  // completing a round-trip on each.
  Rng rng(31);
  int fd1 = ConnectLoopback(server->port());
  int fd2 = ConnectLoopback(server->port());
  ASSERT_GE(fd1, 0);
  ASSERT_GE(fd2, 0);
  std::string acc1, acc2, line;
  SendAllBytes(fd1, serve::QueryToLine(1, RandomWireQuery(&rng)) + "\n");
  ASSERT_TRUE(RecvLine(fd1, &acc1, &line));
  EXPECT_EQ(ExtractId(line), 1);
  SendAllBytes(fd2, serve::QueryToLine(2, RandomWireQuery(&rng)) + "\n");
  ASSERT_TRUE(RecvLine(fd2, &acc2, &line));
  EXPECT_EQ(ExtractId(line), 2);

  // Third client: refused in-band, then closed.
  int fd3 = ConnectLoopback(server->port());
  ASSERT_GE(fd3, 0);
  std::string acc3;
  ASSERT_TRUE(RecvLine(fd3, &acc3, &line));
  EXPECT_EQ(line, "{\"id\":-1,\"error\":\"connection limit reached\"}");
  EXPECT_TRUE(RecvEof(fd3));
  ::close(fd3);
  EXPECT_EQ(server->connections_refused(), 1);

  // Freeing a slot lets the next client in.
  ::close(fd1);
  for (int i = 0; i < 200 && server->active_connections() > 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_LE(server->active_connections(), 1);
  int fd4 = ConnectLoopback(server->port());
  ASSERT_GE(fd4, 0);
  std::string acc4;
  SendAllBytes(fd4, serve::QueryToLine(4, RandomWireQuery(&rng)) + "\n");
  ASSERT_TRUE(RecvLine(fd4, &acc4, &line));
  EXPECT_EQ(ExtractId(line), 4);
  ::close(fd4);
  ::close(fd2);
  server->Shutdown();
}

TEST(TcpServerTest, MalformedLineAnsweredInBandConnectionStaysUsable) {
  Status status;
  auto service = MakeService("tcp_malformed.bin", 37, /*max_batch=*/4,
                             /*max_wait_us=*/500, &status);
  ASSERT_NE(service, nullptr) << status.ToString();
  serve::TcpServerConfig tcfg;
  auto server = serve::TcpServer::Start(service.get(), tcfg, &status);
  ASSERT_NE(server, nullptr) << status.ToString();

  int fd = ConnectLoopback(server->port());
  ASSERT_GE(fd, 0);
  std::string acc, line;

  // Garbage gets an in-band error with id -1 (the line never yielded one).
  SendAllBytes(fd, "definitely not a query\n");
  ASSERT_TRUE(RecvLine(fd, &acc, &line));
  EXPECT_EQ(ExtractId(line), -1);
  EXPECT_NE(line.find("\"error\""), std::string::npos);

  // Blank lines and comments produce no response at all: the next answer on
  // the wire belongs to the valid query after them.
  Rng rng(41);
  SendAllBytes(fd, "\n# a comment line\n" +
                       serve::QueryToLine(88, RandomWireQuery(&rng)) + "\n");
  ASSERT_TRUE(RecvLine(fd, &acc, &line));
  EXPECT_EQ(ExtractId(line), 88);
  EXPECT_EQ(line.find("\"error\""), std::string::npos);
  ::close(fd);
  server->Shutdown();
}

TEST(TcpServerTest, HalfClosedPeerStillReceivesItsAnswers) {
  Status status;
  auto service = MakeService("tcp_halfclose.bin", 43, /*max_batch=*/4,
                             /*max_wait_us=*/2000, &status);
  ASSERT_NE(service, nullptr) << status.ToString();
  serve::TcpServerConfig tcfg;
  auto server = serve::TcpServer::Start(service.get(), tcfg, &status);
  ASSERT_NE(server, nullptr) << status.ToString();

  int fd = ConnectLoopback(server->port());
  ASSERT_GE(fd, 0);
  Rng rng(47);
  std::string batch;
  for (int64_t id = 0; id < 3; ++id) {
    batch += serve::QueryToLine(id, RandomWireQuery(&rng));
    batch += '\n';
  }
  SendAllBytes(fd, batch);
  // Half-close: we will send nothing more, but the in-flight answers must
  // still arrive, after which the server closes its side.
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  std::string acc, line;
  std::map<int64_t, bool> got;
  for (int j = 0; j < 3; ++j) {
    ASSERT_TRUE(RecvLine(fd, &acc, &line)) << "answer " << j;
    EXPECT_EQ(line.find("\"error\""), std::string::npos) << line;
    got[ExtractId(line)] = true;
  }
  EXPECT_EQ(got.size(), 3u);
  EXPECT_TRUE(RecvEof(fd));
  ::close(fd);
  server->Shutdown();
}

// Reads whatever the peer sends until EOF (admin responses are one-shot:
// the server closes after the flush). *clean_eof, when given, tells a clean
// close from a recv error or the socket's 30 s receive timeout.
std::string RecvAll(int fd, bool* clean_eof = nullptr) {
  std::string out;
  char tmp[4096];
  for (;;) {
    ssize_t r = ::recv(fd, tmp, sizeof(tmp), 0);
    if (r <= 0) {
      if (clean_eof != nullptr) *clean_eof = r == 0;
      return out;
    }
    out.append(tmp, static_cast<size_t>(r));
  }
}

// One admin-plane answer: the status-line code and the body.
struct HttpResponse {
  int code = 0;
  std::string body;
};

// One HTTP/1.0 GET against the admin endpoint. False when the connect is
// refused, the read ends in an error or a stall rather than the server's
// close, or the response lacks a "HTTP/1.x <code>" status line, the header
// terminator or a Content-Length that matches the body; 4xx/5xx answers
// return true with the code set.
bool HttpGet(int port, const std::string& path, HttpResponse* out) {
  int fd = ConnectLoopback(port);
  if (fd < 0) return false;
  SendAllBytes(fd, "GET " + path + " HTTP/1.0\r\n\r\n");
  bool clean_eof = false;
  const std::string raw = RecvAll(fd, &clean_eof);
  ::close(fd);
  const size_t head_end = raw.find("\r\n\r\n");
  if (!clean_eof || raw.rfind("HTTP/1.", 0) != 0 || raw.size() < 12 ||
      raw[8] != ' ' || head_end == std::string::npos) {
    return false;
  }
  out->code = 0;
  for (size_t i = 9; i < 12; ++i) {
    if (raw[i] < '0' || raw[i] > '9') return false;
    out->code = out->code * 10 + (raw[i] - '0');
  }
  const std::string kLength = "\r\nContent-Length: ";
  const size_t len_at = raw.find(kLength);
  if (len_at == std::string::npos || len_at >= head_end) return false;
  out->body = raw.substr(head_end + 4);
  return std::strtoull(raw.c_str() + len_at + kLength.size(), nullptr, 10) ==
         out->body.size();
}

TEST(TcpServerTest, AdminEndpointsServeDuringLoadWithoutPerturbingAnswers) {
  // Same bitwise-vs-offline workload as the eight-thread test, with metrics
  // on and a scraper hammering every admin endpoint the whole time. The
  // query answers must not change by a byte, every scrape must come back
  // well-formed (introspection is read-only), and the /metrics deltas
  // across the load must count each request once: serve.requests and every
  // serve.stage.* family, the per-stage breakdown as a scraper reads it.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 8;
  constexpr int64_t kTotal = kThreads * kPerThread;
  const char* const kStages[] = {"parse", "queue", "batch",
                                 "score", "rank",  "write"};
  std::vector<std::vector<serve::ParsedQuery>> per_thread(kThreads);
  std::vector<serve::ParsedQuery> all;
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(600 + static_cast<uint64_t>(t));
    for (int j = 0; j < kPerThread; ++j) {
      serve::ParsedQuery p;
      p.id = t * 1000 + j;
      p.query = RandomWireQuery(&rng);
      per_thread[static_cast<size_t>(t)].push_back(p);
      all.push_back(p);
    }
  }
  auto offline_model = MakeModel(61);
  std::map<int64_t, std::string> expected =
      OfflineExpected(offline_model.get(), all);

  ScopedMetricsOn metrics_on;
  // The serving metrics register on first use; registering them here puts
  // every family in the scrape taken before the load too.
  obs::MetricsRegistry::Global().GetCounter("serve.requests");
  for (const char* stage : kStages) {
    obs::MetricsRegistry::Global().GetHistogram(std::string("serve.stage.") +
                                                stage + "_ns");
  }
  std::string path = CkptPath("tcp_admin_load.bin");
  ASSERT_TRUE(nn::SaveParameters(*offline_model, path).ok());
  serve::ServeConfig scfg;
  scfg.max_len = kMaxLen;
  scfg.max_batch = 8;
  scfg.max_wait_us = 2000;
  Status status;
  auto service = serve::RecoService::Load(MakeModel(919), kItems, kBehaviors,
                                          path, scfg, &status);
  std::remove(path.c_str());
  ASSERT_NE(service, nullptr) << status.ToString();

  serve::TcpServerConfig tcfg;
  auto server = serve::TcpServer::Start(service.get(), tcfg, &status);
  ASSERT_NE(server, nullptr) << status.ToString();
  ASSERT_GT(server->admin_port(), 0);

  struct Scrape {
    std::map<std::string, double> scalars;
    std::map<std::string, PromHistogram> hists;
  };
  auto scrape = [&](Scrape* out) {
    HttpResponse r;
    ASSERT_TRUE(HttpGet(server->admin_port(), "/metrics", &r));
    ASSERT_EQ(r.code, 200);
    ASSERT_TRUE(ParsePrometheusText(r.body, &out->scalars, &out->hists))
        << "malformed /metrics:\n"
        << r.body;
  };
  Scrape base;
  ASSERT_NO_FATAL_FAILURE(scrape(&base));
  ASSERT_EQ(base.scalars.count("serve_requests"), 1u);
  for (const char* stage : kStages) {
    const std::string fam = std::string("serve_stage_") + stage + "_ns";
    ASSERT_EQ(base.hists.count(fam), 1u) << fam << " missing before load";
  }

  std::atomic<bool> load_done{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([&] {
    bool final_pass = false;
    for (;;) {
      HttpResponse r;
      ASSERT_TRUE(HttpGet(server->admin_port(), "/healthz", &r));
      EXPECT_EQ(r.code, 200);
      EXPECT_EQ(r.body, "ok\n");
      ASSERT_TRUE(HttpGet(server->admin_port(), "/metrics", &r));
      EXPECT_EQ(r.code, 200);
      std::map<std::string, PromHistogram> hists;
      EXPECT_TRUE(ParsePrometheusText(r.body, nullptr, &hists))
          << "malformed /metrics under load";
      ASSERT_TRUE(HttpGet(server->admin_port(), "/statusz", &r));
      EXPECT_EQ(r.code, 200);
      JVal statusz = ParseJsonOrFail(r.body, "/statusz");
      EXPECT_NE(statusz.Get("stages"), nullptr);
      ASSERT_TRUE(HttpGet(server->admin_port(), "/tracez", &r));
      EXPECT_EQ(r.code, 200);
      JVal tracez = ParseJsonOrFail(r.body, "/tracez");
      EXPECT_NE(tracez.Get("traceEvents"), nullptr);
      scrapes.fetch_add(1);
      // One full sweep after the load finishes so at least one scrape
      // observes the final counts.
      if (final_pass) break;
      if (load_done.load()) final_pass = true;
    }
  });

  std::vector<std::map<int64_t, std::string>> received(kThreads);
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      int fd = ConnectLoopback(server->port());
      ASSERT_GE(fd, 0);
      std::string batch;
      for (const auto& p : per_thread[static_cast<size_t>(t)]) {
        batch += serve::QueryToLine(p.id, p.query);
        batch += '\n';
      }
      SendAllBytes(fd, batch);
      std::string acc, line;
      for (int j = 0; j < kPerThread; ++j) {
        ASSERT_TRUE(RecvLine(fd, &acc, &line)) << "thread " << t;
        received[static_cast<size_t>(t)][ExtractId(line)] = line;
      }
      ::close(fd);
    });
  }
  for (auto& c : clients) c.join();
  load_done.store(true);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0);

  for (int t = 0; t < kThreads; ++t) {
    for (const auto& p : per_thread[static_cast<size_t>(t)]) {
      auto it = received[static_cast<size_t>(t)].find(p.id);
      ASSERT_NE(it, received[static_cast<size_t>(t)].end())
          << "no response for id " << p.id;
      EXPECT_EQ(it->second, expected[p.id]) << "id " << p.id;
    }
  }

  // write_ns is observed after an answer's last byte leaves the server,
  // which can trail the client's read of it: poll until the write stage
  // has counted every request (bounded at ~10 s).
  const int64_t write_base = base.hists.at("serve_stage_write_ns").count;
  Scrape cur;
  for (int spin = 0; spin < 1000; ++spin) {
    cur = Scrape();
    ASSERT_NO_FATAL_FAILURE(scrape(&cur));
    auto it = cur.hists.find("serve_stage_write_ns");
    if (it != cur.hists.end() && it->second.count - write_base >= kTotal) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(cur.scalars.count("serve_requests"), 1u);
  EXPECT_EQ(
      cur.scalars.at("serve_requests") - base.scalars.at("serve_requests"),
      static_cast<double>(kTotal));
  for (const char* stage : kStages) {
    const std::string fam = std::string("serve_stage_") + stage + "_ns";
    ASSERT_EQ(cur.hists.count(fam), 1u) << fam << " missing after load";
    EXPECT_EQ(cur.hists.at(fam).count - base.hists.at(fam).count, kTotal)
        << fam;
  }

  // Scrapes ride the admin plane: the query-side accept counter only saw
  // the client connections.
  EXPECT_EQ(server->connections_accepted(), kThreads);
  server->Shutdown();
  EXPECT_EQ(service->requests_served(), kTotal);
}

TEST(TcpServerTest, HealthzFlipsDrainingDuringShutdown) {
  Rng rng(83);
  serve::ParsedQuery parked;
  parked.id = 700;
  parked.query = RandomWireQuery(&rng);
  auto offline = MakeModel(67);
  std::map<int64_t, std::string> expected =
      OfflineExpected(offline.get(), {parked});

  std::string path = CkptPath("tcp_admin_drain.bin");
  ASSERT_TRUE(nn::SaveParameters(*offline, path).ok());
  serve::ServeConfig scfg;
  scfg.max_len = kMaxLen;
  // Wide batch window: the query sits in the micro-batcher while healthz
  // flips, so the drain observation is made with work genuinely in flight.
  scfg.max_batch = 64;
  scfg.max_wait_us = 200000;
  Status status;
  auto service = serve::RecoService::Load(MakeModel(929), kItems, kBehaviors,
                                          path, scfg, &status);
  std::remove(path.c_str());
  ASSERT_NE(service, nullptr) << status.ToString();

  serve::TcpServerConfig tcfg;
  auto server = serve::TcpServer::Start(service.get(), tcfg, &status);
  ASSERT_NE(server, nullptr) << status.ToString();
  ASSERT_GT(server->admin_port(), 0);

  HttpResponse r;
  ASSERT_TRUE(HttpGet(server->admin_port(), "/healthz", &r));
  EXPECT_EQ(r.code, 200);
  EXPECT_EQ(r.body, "ok\n");

  int fd = ConnectLoopback(server->port());
  ASSERT_GE(fd, 0);
  SendAllBytes(fd, serve::QueryToLine(parked.id, parked.query) + "\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(60));

  server->BeginShutdown();

  // The admin plane stays reachable while the query plane drains, and
  // reports the drain.
  ASSERT_TRUE(HttpGet(server->admin_port(), "/healthz", &r));
  EXPECT_EQ(r.code, 503);
  EXPECT_EQ(r.body, "draining\n");
  ASSERT_TRUE(HttpGet(server->admin_port(), "/statusz", &r));
  EXPECT_EQ(r.code, 200);
  JVal statusz = ParseJsonOrFail(r.body, "/statusz");
  const JVal* draining = statusz.Get("draining");
  ASSERT_NE(draining, nullptr);
  EXPECT_TRUE(draining->b);

  // The parked query still drains to its bitwise-correct answer.
  std::string acc, line;
  ASSERT_TRUE(RecvLine(fd, &acc, &line));
  EXPECT_EQ(line, expected[parked.id]);
  EXPECT_TRUE(RecvEof(fd));
  ::close(fd);

  server->Shutdown();
  // Full shutdown closes the admin listener too.
  EXPECT_FALSE(HttpGet(server->admin_port(), "/healthz", &r));
}

TEST(TcpServerTest, AdminMalformedRequestsGet4xxQueryPlaneUndisturbed) {
  Status status;
  auto service = MakeService("tcp_admin_bad.bin", 71, /*max_batch=*/4,
                             /*max_wait_us=*/500, &status);
  ASSERT_NE(service, nullptr) << status.ToString();
  serve::TcpServerConfig tcfg;
  auto server = serve::TcpServer::Start(service.get(), tcfg, &status);
  ASSERT_NE(server, nullptr) << status.ToString();
  ASSERT_GT(server->admin_port(), 0);

  // A query connection opened before the abuse, checked after it: the admin
  // plane's failures must not leak into the query plane.
  int qfd = ConnectLoopback(server->port());
  ASSERT_GE(qfd, 0);

  // Garbage request line -> 400.
  int fd = ConnectLoopback(server->admin_port());
  ASSERT_GE(fd, 0);
  SendAllBytes(fd, "definitely not http\r\n\r\n");
  EXPECT_EQ(RecvAll(fd).substr(0, 12), "HTTP/1.0 400");
  ::close(fd);

  // Wrong method -> 405.
  fd = ConnectLoopback(server->admin_port());
  ASSERT_GE(fd, 0);
  SendAllBytes(fd, "POST /metrics HTTP/1.0\r\n\r\n");
  EXPECT_EQ(RecvAll(fd).substr(0, 12), "HTTP/1.0 405");
  ::close(fd);

  // Unknown path -> 404.
  HttpResponse r;
  ASSERT_TRUE(HttpGet(server->admin_port(), "/nope", &r));
  EXPECT_EQ(r.code, 404);

  // Oversized head without a terminator -> 400 before buffering forever.
  fd = ConnectLoopback(server->admin_port());
  ASSERT_GE(fd, 0);
  SendAllBytes(fd, std::string(9 * 1024, 'a'));
  EXPECT_EQ(RecvAll(fd).substr(0, 12), "HTTP/1.0 400");
  ::close(fd);

  // The well-formed endpoints still answer...
  ASSERT_TRUE(HttpGet(server->admin_port(), "/healthz", &r));
  EXPECT_EQ(r.code, 200);

  // ...and so does the query connection that sat through all of it.
  Rng rng(89);
  SendAllBytes(qfd, serve::QueryToLine(9, RandomWireQuery(&rng)) + "\n");
  std::string acc, line;
  ASSERT_TRUE(RecvLine(qfd, &acc, &line));
  EXPECT_EQ(ExtractId(line), 9);
  EXPECT_EQ(line.find("\"error\""), std::string::npos);
  ::close(qfd);
  server->Shutdown();
}

TEST(TcpServerTest, StartRejectsBadConfig) {
  Status status;
  auto service = MakeService("tcp_badcfg.bin", 53, 4, 500, &status);
  ASSERT_NE(service, nullptr) << status.ToString();
  serve::TcpServerConfig bad;
  bad.max_connections = 0;
  EXPECT_EQ(serve::TcpServer::Start(service.get(), bad, &status), nullptr);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  bad = serve::TcpServerConfig();
  bad.port = -5;
  EXPECT_EQ(serve::TcpServer::Start(service.get(), bad, &status), nullptr);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  bad = serve::TcpServerConfig();
  bad.admin_port = 70000;
  EXPECT_EQ(serve::TcpServer::Start(service.get(), bad, &status), nullptr);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

// Number of entries in a /proc/self directory: open descriptors ("fd") or
// threads ("task") of this process.
int64_t CountProcEntries(const char* dir) {
  int64_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::string("/proc/self/") + dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

TEST(TcpServerTest, StartOnATakenPortFailsWithoutLeaking) {
  Status status;
  auto service = MakeService("tcp_taken.bin", 59, 4, 500, &status);
  ASSERT_NE(service, nullptr) << status.ToString();
  auto first =
      serve::TcpServer::Start(service.get(), serve::TcpServerConfig(), &status);
  ASSERT_NE(first, nullptr) << status.ToString();
  const int64_t fds = CountProcEntries("fd");
  const int64_t threads = CountProcEntries("task");

  serve::TcpServerConfig taken;
  taken.port = first->port();
  EXPECT_EQ(serve::TcpServer::Start(service.get(), taken, &status), nullptr);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find("query listener bind"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(CountProcEntries("fd"), fds);
  EXPECT_EQ(CountProcEntries("task"), threads);

  // The query listener binds an ephemeral port first; the admin bind then
  // fails, and the query socket it opened must be closed too.
  taken = serve::TcpServerConfig();
  taken.admin_port = first->admin_port();
  EXPECT_EQ(serve::TcpServer::Start(service.get(), taken, &status), nullptr);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_NE(status.message().find("admin listener bind"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(CountProcEntries("fd"), fds);
  EXPECT_EQ(CountProcEntries("task"), threads);

  // The first server still owns both ports and answers on them.
  HttpResponse r;
  ASSERT_TRUE(HttpGet(first->admin_port(), "/healthz", &r));
  EXPECT_EQ(r.code, 200);
  Rng rng(61);
  int qfd = ConnectLoopback(first->port());
  ASSERT_GE(qfd, 0);
  SendAllBytes(qfd, serve::QueryToLine(3, RandomWireQuery(&rng)) + "\n");
  std::string acc, line;
  ASSERT_TRUE(RecvLine(qfd, &acc, &line));
  EXPECT_EQ(ExtractId(line), 3);
  ::close(qfd);
  first->Shutdown();
}

}  // namespace
}  // namespace missl
