// Epoll TCP front-end for RecoService: speaks the serving line protocol
// (serve/protocol.h) over loopback/LAN sockets so the micro-batcher can be
// driven by real concurrent network traffic.
//
// Architecture (see docs/SERVING.md for the full picture):
//
//   clients ══socket══►  epoll loop (1 thread)        RecoService dispatcher
//                          │ accept / read / write      │
//                          │ split-line buffering       │ coalesces queued
//                          │ per conn; parse lines      │ queries, runs the
//                          ├── RecoService::Submit ────►│ plan, then runs
//                          │   (never blocks)           │ each completion
//                          ◄── response buffer + eventfd┘
//                          │ backpressure-aware flush
//   clients ◄══socket══════┘
//
// The epoll thread owns every socket: it accepts connections, buffers reads
// until a full '\n'-terminated line is available (lines may arrive split
// across any number of packets), parses each line, and submits well-formed
// queries straight to the service's micro-batcher, so every pipelined
// request is queued where batches form. The completion runs on the
// service's dispatcher thread: it appends the JSON answer to the
// connection's write buffer and wakes the epoll thread through an eventfd
// to flush it. Responses on one connection may be answered out of order
// when the client pipelines; the echoed "id" field is the correlation key.
//
// Robustness contract (locked by tests/tcp_server_test.cc and the socket
// sweep in tests/serve_fuzz_test.cc):
//   - malformed lines are answered with {"id":-1,"error":...} and the
//     connection stays usable; an over-long line (no '\n' within
//     max_line_bytes) is answered with one error and discarded up to the
//     next newline;
//   - a peer may disconnect at any byte offset without affecting other
//     connections (in-flight answers to a dead peer are dropped);
//   - at most max_connections clients are served; extra connects receive a
//     clean {"id":-1,"error":"connection limit reached"} and are closed;
//   - writes are backpressure-aware: when a slow reader's buffered output
//     exceeds max_buffered_write_bytes the server stops reading from that
//     connection until the buffer drains, so one slow client cannot balloon
//     server memory;
//   - Shutdown() drains: queries already submitted complete and their
//     answers are flushed before connections close, while connects arriving
//     after drain begins get {"id":-1,"error":"shutting down"}; it returns
//     only once no completion can still touch the server.
//
// Admin plane: a second loopback listener (TcpServerConfig::admin_port)
// multiplexed on the same epoll loop answers HTTP/1.0 GETs — /metrics
// (Prometheus text), /healthz (serving vs draining), /statusz (JSON status),
// /tracez (flight-recorder Chrome trace). Admin connections are one-shot
// (Connection: close), exempt from max_connections and from the query-plane
// drain (scraping a draining server is the point), and are force-closed only
// when the epoll thread exits. Rendering happens on the epoll thread; admin
// traffic never touches the micro-batcher, so it cannot perturb query
// answers.
#ifndef MISSL_SERVE_TCP_SERVER_H_
#define MISSL_SERVE_TCP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/protocol.h"
#include "serve/service.h"
#include "utils/status.h"

namespace missl::serve {

/// TCP front-end knobs. Defaults suit tests and loopback benches; a real
/// deployment would raise max_connections.
struct TcpServerConfig {
  int port = 0;             ///< 0 = ephemeral; TcpServer::port() reports it
  int admin_port = 0;       ///< admin HTTP port: 0 = ephemeral, -1 = disabled
  int max_connections = 256;   ///< concurrent clients before refusals
  /// Ignored. Queries go straight from the epoll thread to the service's
  /// batcher, so there is no worker pool; the field stays only so existing
  /// callers keep compiling.
  int num_workers = 4;
  int64_t max_line_bytes = 1 << 20;  ///< longest accepted request line
  int64_t max_buffered_write_bytes = 4 << 20;  ///< per-conn backpressure cap
  int backlog = 128;           ///< listen(2) backlog
};

/// Serves one RecoService over TCP on 127.0.0.1. Construct via Start();
/// destruction performs a full drain-and-join Shutdown(). The service must
/// outlive the server.
class TcpServer {
 public:
  /// Binds 127.0.0.1:config.port (0 picks an ephemeral port) and starts the
  /// epoll thread. Returns nullptr with `*status` set on
  /// bind/listen failure or invalid config; `*status` is OK on success.
  static std::unique_ptr<TcpServer> Start(RecoService* service,
                                          const TcpServerConfig& config,
                                          Status* status);

  ~TcpServer();
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Actual bound port (resolves an ephemeral config.port = 0).
  int port() const { return port_; }
  /// Actual admin HTTP port (-1 when the admin plane is disabled).
  int admin_port() const { return admin_port_; }
  const TcpServerConfig& config() const { return config_; }

  /// Starts draining without blocking: new query connects are refused,
  /// reading stops on existing query connections, queries already accepted
  /// still complete and their answers are flushed before each connection
  /// closes. The admin plane keeps answering (/healthz reports draining).
  void BeginShutdown();

  /// BeginShutdown() + blocks until every query connection has drained, the
  /// epoll thread is joined and every submitted query's completion has
  /// returned (remaining admin connections are flushed best-effort and
  /// closed). Idempotent; called by the destructor.
  void Shutdown();

  /// Connections currently open (draining ones included).
  int64_t active_connections() const;
  /// Total connections accepted / refused since Start.
  int64_t connections_accepted() const;
  int64_t connections_refused() const;

 private:
  /// One client socket, shared between the epoll thread (all socket I/O)
  /// and query completions (response enqueue only, under `mu`).
  struct Conn {
    int fd = -1;
    bool admin = false;        ///< accepted on the admin listener (HTTP)
    std::string rbuf;          ///< bytes read, not yet forming a full line
    bool discarding = false;   ///< over-long line: drop until next '\n'
    bool rd_eof = false;       ///< peer half-closed; still flush answers
    bool reading = true;       ///< EPOLLIN armed (epoll thread only)
    bool want_write = false;   ///< EPOLLOUT armed (epoll thread only)

    std::mutex mu;
    std::string wbuf;          ///< pending response bytes (guarded by mu)
    size_t woff = 0;           ///< bytes of wbuf already sent
    int in_flight = 0;         ///< queries submitted, unanswered
    bool closed = false;       ///< fd closed; completions drop late answers
    bool close_after_flush = false;  ///< one-shot (admin): close when drained
    // serve.stage.write_ns bookkeeping (query conns only): total bytes ever
    // appended to / sent from wbuf, plus (enqueued-watermark, enqueue-time)
    // marks observed when bytes_sent crosses them.
    uint64_t bytes_enqueued = 0;
    uint64_t bytes_sent = 0;
    std::deque<std::pair<uint64_t, int64_t>> write_marks;
  };

  TcpServer(RecoService* service, const TcpServerConfig& config);

  void EpollLoop();
  void AcceptPending();
  void AcceptAdminPending();
  /// Writes `line` + '\n' to a fresh fd best-effort and closes it.
  void RefuseConnection(int fd, const std::string& reason);
  void HandleReadable(const std::shared_ptr<Conn>& conn);
  /// Splits rbuf into complete lines; parses and dispatches each.
  void ProcessReadBuffer(const std::shared_ptr<Conn>& conn);
  void HandleLine(const std::shared_ptr<Conn>& conn, const std::string& line);
  /// A submitted query's completion (dispatcher thread, or inline when the
  /// service rejects it): appends the answer line, schedules a flush, then
  /// releases the server for Shutdown.
  void CompleteQuery(const std::shared_ptr<Conn>& conn, int64_t id,
                     const Status& status, const TopKResult& result);
  /// Admin-plane read path: waits for a full HTTP request head, answers it,
  /// and schedules the connection to close once the response is flushed.
  void ProcessAdminBuffer(const std::shared_ptr<Conn>& conn);
  void HandleAdminRequest(const std::shared_ptr<Conn>& conn,
                          const std::string& method, const std::string& target);
  /// Appends a full HTTP/1.0 response to the connection's write buffer and
  /// flushes (epoll thread only).
  void SendHttpResponse(const std::shared_ptr<Conn>& conn, int code,
                        const char* content_type, const std::string& body);
  /// /statusz body: build rev, uptime, configs, catalog dims, counters,
  /// alloc/memory stats, serve.stage.* summaries.
  std::string StatuszJson() const;
  /// Appends one response line and schedules a flush (any thread).
  void EnqueueResponse(const std::shared_ptr<Conn>& conn,
                       const std::string& line);
  /// Queues the connection for a flush on the epoll thread (any thread).
  void ScheduleFlush(const std::shared_ptr<Conn>& conn);
  /// Re-arms the connection's epoll mask from reading/want_write.
  void UpdateEvents(const std::shared_ptr<Conn>& conn);
  /// Sends as much buffered output as the socket accepts; arms EPOLLOUT for
  /// the rest, applies backpressure, closes drained connections during
  /// shutdown. Epoll thread only.
  void FlushConn(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  void SetReading(const std::shared_ptr<Conn>& conn, bool enable);
  void WakeEpoll();

  RecoService* service_;
  TcpServerConfig config_;
  int port_ = 0;
  int admin_port_ = -1;
  int listen_fd_ = -1;
  int admin_listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: completions → epoll thread
  int64_t start_ns_ = 0;  ///< obs::NowNanos() at Start, for /statusz uptime

  mutable std::mutex mu_;
  std::condition_variable drained_cv_;
  std::map<int, std::shared_ptr<Conn>> conns_;   ///< fd → connection
  std::vector<std::shared_ptr<Conn>> flush_;     ///< response-ready conns
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_{false};
  int64_t accepted_ = 0;
  int64_t refused_ = 0;
  int64_t query_conns_ = 0;  ///< open non-admin conns; drain waits on 0
  /// Submitted queries whose completion has not returned; Shutdown waits
  /// on 0, since a completion touches mu_ and wake_fd_ after its
  /// connection's last in_flight decrement.
  int64_t outstanding_ = 0;

  std::thread epoll_thread_;
};

}  // namespace missl::serve

#endif  // MISSL_SERVE_TCP_SERVER_H_
