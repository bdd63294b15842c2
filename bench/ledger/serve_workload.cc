// The two serving workloads and the serving pieces the train workload
// reuses. The client speaks the wire through serve/protocol.h only and
// generates its own queries, so the load it offers depends on nothing but
// the seed.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/recommend.h"
#include "heap_counter.h"
#include "nn/serialize.h"
#include "obs/memory.h"
#include "serve/protocol.h"
#include "span_recorder.h"
#include "workloads.h"

namespace missl::ledger {

namespace {

constexpr int kSetupReps = 15;
constexpr int64_t kStallNs = 10'000'000'000;
constexpr const char* kStages[] = {"parse", "queue", "batch",
                                   "score", "rank",  "write"};

// ---- query generation ----

struct QueryMix {
  int32_t num_items;
  int32_t num_behaviors;
  int min_history;
  int max_history;
};

// Query `id` of the stream: a pure function of (seed, id). Half the queries
// carry timestamps (so recency buckets are exercised) and a quarter exclude
// one to three items of their own history.
serve::Query MakeQuery(uint64_t seed, int64_t id, const QueryMix& mix) {
  SplitMix rng(StreamSeed(seed, static_cast<uint64_t>(id)));
  serve::Query q;
  const int len =
      mix.min_history + static_cast<int>(rng.Below(static_cast<uint64_t>(
                            mix.max_history - mix.min_history + 1)));
  const bool with_ts = rng.Chance(0.5);
  int64_t ts = 1000;
  for (int i = 0; i < len; ++i) {
    q.items.push_back(static_cast<int32_t>(
        rng.Below(static_cast<uint64_t>(mix.num_items))));
    q.behaviors.push_back(static_cast<int32_t>(
        rng.Below(static_cast<uint64_t>(mix.num_behaviors))));
    if (with_ts) {
      ts += 1 + static_cast<int64_t>(rng.Below(500));
      q.timestamps.push_back(ts);
    }
  }
  // The wire carries `now` as the newest timestamp.
  if (with_ts) q.now = ts;
  if (rng.Chance(0.25)) {
    const int n = 1 + static_cast<int>(rng.Below(3));
    for (int i = 0; i < n; ++i) {
      q.exclude.push_back(q.items[rng.Below(static_cast<uint64_t>(len))]);
    }
  }
  q.k = 10;
  return q;
}

// ---- the load client ----

struct Conn {
  int fd = -1;
  std::string out;  // bytes not yet accepted by the socket
  size_t out_off = 0;
  std::string in;   // bytes of an incomplete response line
};

int Connect(int port, std::string* err) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *err = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool Flush(Conn* c, std::string* err) {
  while (c->out_off < c->out.size()) {
    ssize_t n = ::send(c->fd, c->out.data() + c->out_off,
                       c->out.size() - c->out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      c->out_off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else {
      *err = std::string("send: ") + std::strerror(errno);
      return false;
    }
  }
  c->out.clear();
  c->out_off = 0;
  return true;
}

// The id echoed at the start of a response line ({"id":N,...}).
bool ResponseId(const std::string& line, int64_t* id) {
  static const char kPrefix[] = "{\"id\":";
  if (line.compare(0, sizeof(kPrefix) - 1, kPrefix) != 0) return false;
  char* end = nullptr;
  long long v = std::strtoll(line.c_str() + sizeof(kPrefix) - 1, &end, 10);
  if (end == line.c_str() + sizeof(kPrefix) - 1 || *end != ',') return false;
  *id = v;
  return true;
}

// ---- server-side readings ----

struct HistDelta {
  int64_t count = 0;
  int64_t sum = 0;
  double Mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
};

HistDelta HistogramDelta(const WindowReading& a, const WindowReading& b,
                         const std::string& name) {
  HistDelta d;
  auto ib = b.metrics.histograms.find(name);
  if (ib == b.metrics.histograms.end()) return d;
  d.count = ib->second.count;
  d.sum = ib->second.sum;
  auto ia = a.metrics.histograms.find(name);
  if (ia != a.metrics.histograms.end()) {
    d.count -= ia->second.count;
    d.sum -= ia->second.sum;
  }
  return d;
}

double Ratio(int64_t num, int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

// FNV-1a of a response line, never 0 (0 marks an unanswered request).
uint64_t LineHash(const std::string& line) {
  uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : line) h = (h ^ c) * 1099511628211ULL;
  return h | 1;
}

// Recomputes the answers of ids [0, kOracleQueries) and of an even sample of
// the rest, and counts those whose line hash differs from the served one.
int64_t OracleMismatches(const Oracle& oracle,
                         const std::vector<uint64_t>& line_hash,
                         int64_t* checked) {
  NoGradGuard no_grad;
  const Tensor catalog = oracle.model->PrecomputeCatalog();
  const ModelShape& shape = oracle.shape;
  const int64_t n = static_cast<int64_t>(line_hash.size());
  const int64_t stride = std::max<int64_t>(1, n / kSampledAnswers);
  std::vector<int64_t> ids;
  for (int64_t id = 0; id < n; ++id) {
    if (line_hash[static_cast<size_t>(id)] != 0 &&
        (id < kOracleQueries || id % stride == 0)) {
      ids.push_back(id);
    }
  }
  int64_t mismatches = 0;
  for (size_t first = 0; first < ids.size(); first += kMaxBatch) {
    std::vector<serve::Query> queries;
    for (size_t i = first; i < std::min(ids.size(), first + kMaxBatch); ++i) {
      queries.push_back(oracle.query(ids[i]));
    }
    const data::Batch batch = serve::BuildQueryBatch(
        queries, shape.max_len, shape.num_behaviors);
    const Tensor scores =
        oracle.model->ScoreAllItems(batch, shape.num_items, catalog);
    for (size_t row = 0; row < queries.size(); ++row) {
      std::vector<int32_t> exclude = queries[row].exclude;
      std::sort(exclude.begin(), exclude.end());
      serve::TopKResult result;
      core::TopKRow(scores.data() + row * shape.num_items, shape.num_items,
                    exclude.empty() ? nullptr : &exclude, queries[row].k,
                    &result.items, &result.scores);
      const int64_t id = ids[first + row];
      if (LineHash(serve::TopKToJson(id, result)) !=
          line_hash[static_cast<size_t>(id)]) {
        ++mismatches;
      }
    }
  }
  *checked = static_cast<int64_t>(ids.size());
  return mismatches;
}

LoadResult RunLoad(const LoadSpec& spec) {
  LoadResult res;
  heap::ScopedExcludeThread client_is_not_the_program;
  // Wake for scheduled sends within a microsecond, not the default 50 us.
  ::prctl(PR_SET_TIMERSLACK, 1000UL);

  std::vector<Conn> conns(kConnections);
  std::string fail;
  for (Conn& c : conns) {
    c.fd = Connect(spec.port, &fail);
    if (c.fd < 0) break;
  }
  const bool open = spec.rate > 0;
  const int64_t t0 = NowNs();
  const int64_t win_begin = t0 + static_cast<int64_t>(spec.warmup_s * 1e9);
  const int64_t win_end = win_begin + static_cast<int64_t>(spec.window_s * 1e9);
  // Per request id: when it was due (scheduled, or sent on the closed loop),
  // when it was sent, and whether it was answered.
  std::vector<int64_t> due, sent_at;
  std::vector<uint8_t> done;
  SplitMix arrivals(spec.arrival_seed);
  auto gap_ns = [&] {
    return static_cast<int64_t>(-std::log1p(-arrivals.Unit()) / spec.rate *
                                1e9);
  };
  int64_t next_due = open ? t0 + gap_ns() : 0;
  int64_t outstanding = 0;
  int64_t last_progress = t0;
  bool in_window = false, window_closed = false;

  auto send_request = [&](Conn* c, int64_t when) {
    const int64_t id = static_cast<int64_t>(due.size());
    c->out += serve::QueryToLine(id, spec.oracle->query(id));
    c->out += '\n';
    const int64_t now = NowNs();
    due.push_back(open ? when : now);
    sent_at.push_back(now);
    done.push_back(0);
    res.line_hash.push_back(0);
    ++res.sent;
    ++outstanding;
    if (due.back() >= win_begin && due.back() < win_end) ++res.window_sent;
    return Flush(c, &fail);
  };

  // One complete response line received at `t_recv` on `c`.
  auto on_line = [&](Conn* c, const std::string& line, int64_t t_recv) {
    int64_t id = -1;
    const bool parsed = ResponseId(line, &id);
    if (!parsed || id < 0 || id >= static_cast<int64_t>(due.size()) ||
        done[static_cast<size_t>(id)] != 0) {
      fail = "unexpected or duplicate response: " + line.substr(0, 200);
      return false;
    }
    done[static_cast<size_t>(id)] = 1;
    --outstanding;
    last_progress = t_recv;
    if (line.find("\"error\"") != std::string::npos) {
      ++res.errors;
    } else {
      ++res.answered;
      res.line_hash[static_cast<size_t>(id)] = LineHash(line);
    }
    const int64_t d = due[static_cast<size_t>(id)];
    const int64_t s = sent_at[static_cast<size_t>(id)];
    if (d >= win_begin && d < win_end) {
      res.latency_ms.push_back((t_recv - d) / 1e6);
      res.send_latency_ms.push_back((t_recv - s) / 1e6);
      if (open) res.late_ms.push_back((s - d) / 1e6);
    }
    if (t_recv >= win_begin && t_recv < win_end) ++res.window_answers;
    spans::Record("client.request", d, t_recv, id);
    return open || t_recv >= win_end || send_request(c, 0);
  };

  bool ok = fail.empty();
  if (ok && !open) {
    for (Conn& c : conns) {
      for (int j = 0; ok && j < spec.depth; ++j) ok = send_request(&c, 0);
    }
  }
  std::string line;
  while (ok) {
    const int64_t now = NowNs();
    if (!in_window && now >= win_begin) {
      in_window = true;
      if (spec.on_window_start) spec.on_window_start();
    }
    if (in_window && !window_closed && now >= win_end) {
      window_closed = true;
      if (spec.on_window_end) spec.on_window_end();
    }
    while (ok && open && next_due <= now && next_due < win_end) {
      ok = send_request(&conns[static_cast<size_t>(res.sent % kConnections)],
                        next_due);
      next_due += gap_ns();
    }
    if (!ok) break;
    if (window_closed && outstanding == 0) break;
    if (outstanding > 0 && now - last_progress > kStallNs) {
      fail = "stalled: " + std::to_string(outstanding) +
             " requests unanswered for 10 s";
      break;
    }

    int64_t wake = now + 50'000'000;
    if (open && next_due < win_end) wake = std::min(wake, next_due);
    wake = std::min(wake, in_window ? (window_closed ? wake : win_end)
                                    : win_begin);
    pollfd pfds[kConnections];
    for (int i = 0; i < kConnections; ++i) {
      pfds[i].fd = conns[static_cast<size_t>(i)].fd;
      pfds[i].events = static_cast<short>(
          POLLIN | (conns[static_cast<size_t>(i)].out.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
    }
    const int64_t wait = std::max<int64_t>(0, wake - NowNs());
    timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                static_cast<long>(wait % 1'000'000'000)};
    if (::ppoll(pfds, kConnections, &ts, nullptr) < 0 && errno != EINTR) {
      fail = std::string("ppoll: ") + std::strerror(errno);
      break;
    }
    for (int i = 0; ok && i < kConnections; ++i) {
      Conn& c = conns[static_cast<size_t>(i)];
      if ((pfds[i].revents & POLLOUT) != 0) ok = Flush(&c, &fail);
      if (!ok || (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      char buf[1 << 16];
      for (;;) {
        ssize_t got = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
        if (got > 0) {
          c.in.append(buf, static_cast<size_t>(got));
        } else if (got == 0) {
          fail = "server closed a connection";
          ok = false;
          break;
        } else if (errno != EINTR) {
          if (errno != EAGAIN && errno != EWOULDBLOCK) {
            fail = std::string("recv: ") + std::strerror(errno);
            ok = false;
          }
          break;
        }
      }
      const int64_t t_recv = NowNs();
      size_t start = 0;
      for (size_t nl; ok && (nl = c.in.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        line.assign(c.in, start, nl - start);
        ok = on_line(&c, line, t_recv);
      }
      c.in.erase(0, start);
    }
  }
  for (Conn& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
  res.error = fail;
  return res;
}

void CheckLoad(const LoadSpec& spec, const LoadResult& lr, Report* r) {
  int64_t checked = 0;
  const int64_t mismatches =
      OracleMismatches(*spec.oracle, lr.line_hash, &checked);
  r->attempted += lr.sent;
  r->failed += lr.sent - lr.answered + mismatches;
  if (!lr.error.empty()) r->Fail("client: " + lr.error);
  if (lr.errors > 0) {
    r->Fail(std::to_string(lr.errors) + " error responses");
  }
  if (lr.sent - lr.answered - lr.errors > 0) {
    r->Fail(std::to_string(lr.sent - lr.answered - lr.errors) +
            " requests unanswered");
  }
  if (mismatches > 0) {
    r->Fail(std::to_string(mismatches) + " of " + std::to_string(checked) +
            " answers differ from the offline oracle");
  }
  if (lr.latency_ms.empty()) r->Fail("no request completed in the window");
}

void AddServedLayers(const WindowReading& begin, const WindowReading& end,
                     const LoadResult& lr, Report* r) {
  double stage_sum_us = 0.0;
  for (const char* stage : kStages) {
    const HistDelta h = HistogramDelta(
        begin, end, std::string("serve.stage.") + stage + "_ns");
    stage_sum_us += h.Mean() / 1e3;
    r->Add(std::string("serve.stage.") + stage + "_us", h.Mean() / 1e3, "us",
           h.count);
  }
  const HistDelta batch = HistogramDelta(begin, end, "serve.batch_size");
  r->Add("serve.batch_fill", batch.Mean() / kMaxBatch, "ratio", batch.count);
  r->Info("serve.batch_size_mean", batch.Mean(), "count", batch.count);
  const double client_us = Mean(lr.send_latency_ms) * 1e3;
  r->Add("serve.unattributed_us", client_us - stage_sum_us, "us",
         static_cast<int64_t>(lr.send_latency_ms.size()));
  const int64_t lines = CounterDelta(begin, end, "serve.tcp.lines");
  r->Add("serve.tcp.bytes_in_per_req",
         Ratio(CounterDelta(begin, end, "serve.tcp.bytes_in"), lines), "bytes",
         lines);
  r->Add("serve.tcp.bytes_out_per_req",
         Ratio(CounterDelta(begin, end, "serve.tcp.bytes_out"), lines),
         "bytes", lines);
  const int64_t requests = CounterDelta(begin, end, "serve.requests");
  r->Add("serve.heap_allocs_per_req",
         Ratio(end.heap_allocs - begin.heap_allocs, requests), "count",
         requests);
  const int64_t batches = CounterDelta(begin, end, "serve.batches");
  r->Add("tensor.alloc.pool_hits_per_batch",
         Ratio(end.alloc.pool_hits - begin.alloc.pool_hits, batches), "count",
         batches);
  r->Add("tensor.alloc.system_allocs_per_batch",
         Ratio(end.alloc.system_allocs - begin.alloc.system_allocs, batches),
         "count", batches);
}

}  // namespace

core::MisslConfig ModelConfig(const ModelShape& shape) {
  core::MisslConfig cfg;
  cfg.dim = 32;
  cfg.num_interests = 3;
  cfg.seed = shape.seed;
  return cfg;
}

std::unique_ptr<core::MisslModel> MakeModel(const ModelShape& shape) {
  return std::make_unique<core::MisslModel>(
      shape.num_items, shape.num_behaviors, shape.max_len, ModelConfig(shape));
}

std::unique_ptr<core::MisslModel> LoadFrozen(const ModelShape& shape,
                                             const std::string& checkpoint,
                                             std::string* err) {
  auto model = MakeModel(shape);
  Status st = nn::LoadParametersForInference(model.get(), checkpoint);
  if (!st.ok()) {
    *err = "LoadParametersForInference: " + st.ToString();
    return nullptr;
  }
  return model;
}

std::string CheckpointPath(const Options& opts, const std::string& workload) {
  return opts.work_dir + "/" + workload + "-" + std::to_string(::getpid()) +
         ".ckpt";
}

void Served::Stop() {
  server.reset();
  service.reset();
}

bool StartServed(const ModelShape& shape, const std::string& checkpoint,
                 int reps, Served* out, std::vector<double>* setup_s,
                 std::vector<double>* load_s, std::string* err) {
  serve::ServeConfig scfg;
  scfg.max_len = shape.max_len;
  scfg.max_batch = kMaxBatch;
  scfg.max_wait_us = kMaxWaitUs;
  serve::TcpServerConfig tcfg;
  tcfg.num_workers = kServerWorkers;
  for (int i = 0; i < reps; ++i) {
    out->Stop();
    Status st;
    const int64_t t0 = NowNs();
    auto model = MakeModel(shape);
    const int64_t t1 = NowNs();
    auto service =
        serve::RecoService::Load(std::move(model), shape.num_items,
                                 shape.num_behaviors, checkpoint, scfg, &st);
    const int64_t t2 = NowNs();
    if (service == nullptr) {
      *err = "RecoService::Load: " + st.ToString();
      return false;
    }
    auto server = serve::TcpServer::Start(service.get(), tcfg, &st);
    const int64_t t3 = NowNs();
    if (server == nullptr) {
      *err = "TcpServer::Start: " + st.ToString();
      return false;
    }
    setup_s->push_back((t3 - t0) / 1e9);
    load_s->push_back((t2 - t1) / 1e9);
    out->service = std::move(service);
    out->server = std::move(server);
  }
  return true;
}

int64_t CounterDelta(const WindowReading& begin, const WindowReading& end,
                     const std::string& name) {
  auto get = [&name](const WindowReading& w) -> int64_t {
    auto it = w.metrics.counters.find(name);
    return it == w.metrics.counters.end() ? 0 : it->second;
  };
  return get(end) - get(begin);
}

WindowReading ReadWindow() {
  heap::ScopedExcludeThread reading_is_not_the_program;
  WindowReading w;
  w.metrics = obs::MetricsRegistry::Global().Snapshot();
  w.alloc = alloc::GetAllocStats();
  w.heap_allocs = heap::Allocations();
  return w;
}

LoadResult RunTracedWindow(LoadSpec spec, Report* r) {
  WindowReading begin, end;
  spec.on_window_start = [&begin] { begin = ReadWindow(); };
  spec.on_window_end = [&end] { end = ReadWindow(); };
  spans::SetEnabled(true);
  heap::SetCounting(true);
  LoadResult lr = RunLoad(spec);
  heap::SetCounting(false);
  CheckLoad(spec, lr, r);
  AddServedLayers(begin, end, lr, r);
  return lr;
}

namespace {

// ---- the two serving workloads ----

struct ServeWorkload {
  const char* name;
  int32_t num_items;
  int64_t max_len;
  int min_history;
  int max_history;
  double rate;  // open-loop arrivals per second; 0 = closed loop
  int depth;    // closed loop: pipelined requests per connection
};

Report RunServe(const Options& opts, const ServeWorkload& w) {
  Report r;
  // As missl_serve runs: the serving instruments are on.
  obs::SetMetricsEnabled(true);
  const ModelShape shape{w.num_items, 4, w.max_len, StreamSeed(opts.seed, 1)};
  const QueryMix mix{w.num_items, shape.num_behaviors, w.min_history,
                     w.max_history};
  const uint64_t query_seed = StreamSeed(opts.seed, 2);
  auto query = [query_seed, mix](int64_t id) {
    return MakeQuery(query_seed, id, mix);
  };

  const std::string ckpt = CheckpointPath(opts, w.name);
  Status st = nn::SaveParameters(*MakeModel(shape), ckpt);
  if (!st.ok()) {
    r.Fail("checkpoint write: " + st.ToString());
    return r;
  }
  Served served;
  std::vector<double> setup_s, load_s;
  std::string err;
  std::unique_ptr<core::MisslModel> frozen;
  if (StartServed(shape, ckpt, opts.smoke ? 2 : kSetupReps, &served,
                  &setup_s, &load_s, &err)) {
    frozen = LoadFrozen(shape, ckpt, &err);
  }
  std::remove(ckpt.c_str());
  if (frozen == nullptr) {
    r.Fail(err);
    return r;
  }
  const Oracle oracle{frozen.get(), shape, query};

  LoadSpec spec;
  spec.port = served.server->port();
  spec.rate = w.rate;
  spec.depth = w.depth;
  spec.warmup_s = opts.smoke ? 0.2 : 2.0;
  // A traced run spends half its window untraced and half traced.
  spec.window_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  spec.arrival_seed = StreamSeed(opts.seed, 3);
  spec.oracle = &oracle;

  const LoadResult lr = RunLoad(spec);
  const double rss_mb = RssMb();
  const double peak_rss_mb = PeakRssMb();
  CheckLoad(spec, lr, &r);
  const double throughput = lr.window_answers / spec.window_s;
  const double p50 = Percentile(lr.latency_ms, 0.5);
  const int64_t n = static_cast<int64_t>(lr.latency_ms.size());
  if (w.rate > 0) {
    // An open loop that answers less than it was offered measured a
    // backlog, not a latency.
    const double offered = lr.window_sent / spec.window_s;
    r.Info("offered_qps", offered, "1/s", lr.window_sent);
    r.Info("achieved_qps", throughput, "1/s", lr.window_answers);
    if (throughput < 0.98 * offered) {
      r.Fail("open loop fell behind: achieved " + std::to_string(throughput) +
             " of " + std::to_string(offered) + " q/s");
    }
  }

  if (!opts.trace) {
    r.Add("setup_s", Median(setup_s), "s", static_cast<int64_t>(setup_s.size()));
    r.Add("throughput_per_s", throughput, "1/s", lr.window_answers);
    r.Add("latency_p50_ms", p50, "ms", n);
    r.Add("latency_p90_ms", Percentile(lr.latency_ms, 0.9), "ms", n);
    r.Add("rss_mb", rss_mb, "MiB");
    r.Add("peak_rss_mb", peak_rss_mb, "MiB");
    r.Info("latency_p99_ms", Percentile(lr.latency_ms, 0.99), "ms", n);
    r.Info("latency_p999_ms", Percentile(lr.latency_ms, 0.999), "ms", n);
    if (w.rate > 0) {
      r.Info("gen_late_p99_ms", Percentile(lr.late_ms, 0.99), "ms",
             static_cast<int64_t>(lr.late_ms.size()));
      r.Info("gen_late_max_ms", Percentile(lr.late_ms, 1.0), "ms",
             static_cast<int64_t>(lr.late_ms.size()));
    }
  } else {
    obs::ResetPeakBytes();
    const LoadResult traced = RunTracedWindow(spec, &r);
    r.Add("obs.memory.peak_tensor_mb",
          obs::CurrentMemoryStats().peak_bytes / 1048576.0, "MiB");
    // The headline each workload is judged by: p50 latency on the open
    // loop, throughput on the closed loop. Positive = tracing slows it.
    const double overhead =
        w.rate > 0
            ? (Percentile(traced.latency_ms, 0.5) / p50 - 1.0) * 100.0
            : (1.0 - (traced.window_answers / spec.window_s) / throughput) *
                  100.0;
    r.Add("trace_overhead_pct", overhead, "%");
    std::vector<serve::Query> probe_queries;
    for (int64_t id = 0; id < kOracleQueries; ++id) {
      probe_queries.push_back(query(id));
    }
    RunProbes(frozen.get(), shape, probe_queries,
              opts.smoke ? 20 : kProbeCalls, &r);
    r.Add("serve.load_s", Median(load_s), "s",
          static_cast<int64_t>(load_s.size()));
  }
  return r;
}

}  // namespace

Report RunServeOpenSmall(const Options& opts) {
  return RunServe(opts, ServeWorkload{"serve_open_small", 2000, 20, 4, 24,
                                      1000.0, 0});
}

Report RunServeClosedLarge(const Options& opts) {
  return RunServe(opts, ServeWorkload{"serve_closed_large", 20000, 50, 10, 50,
                                      0.0, 8});
}

}  // namespace missl::ledger