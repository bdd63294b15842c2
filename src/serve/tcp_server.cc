#include "serve/tcp_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <sstream>
#include <utility>

#include "infer/plan.h"
#include "obs/exposition.h"
#include "obs/json.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/alloc.h"
#include "utils/check.h"

namespace missl::serve {

namespace {

struct TcpMetrics {
  obs::Counter& accepted;
  obs::Counter& refused;
  obs::Counter& closed;
  obs::Gauge& active;
  obs::Counter& lines;
  obs::Counter& malformed;
  obs::Counter& bytes_in;
  obs::Counter& bytes_out;

  static TcpMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static TcpMetrics m{reg.GetCounter("serve.tcp.accepted"),
                        reg.GetCounter("serve.tcp.refused"),
                        reg.GetCounter("serve.tcp.closed"),
                        reg.GetGauge("serve.tcp.active"),
                        reg.GetCounter("serve.tcp.lines"),
                        reg.GetCounter("serve.tcp.malformed"),
                        reg.GetCounter("serve.tcp.bytes_in"),
                        reg.GetCounter("serve.tcp.bytes_out")};
    return m;
  }
};

// Front-end stages of the per-request breakdown; the batcher-side stages
// (batch/score/rank) live in serve/service.cc.
struct StageMetrics {
  obs::Histogram& parse_ns;
  obs::Histogram& queue_ns;
  obs::Histogram& write_ns;

  static StageMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static StageMetrics m{reg.GetHistogram("serve.stage.parse_ns"),
                          reg.GetHistogram("serve.stage.queue_ns"),
                          reg.GetHistogram("serve.stage.write_ns")};
    return m;
  }
};

struct AdminMetrics {
  obs::Counter& requests;
  obs::Counter& bad_requests;

  static AdminMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static AdminMetrics m{reg.GetCounter("serve.admin.requests"),
                          reg.GetCounter("serve.admin.bad_requests")};
    return m;
  }
};

// Compact a partially-sent write buffer once this many bytes are dead prefix.
constexpr size_t kCompactThreshold = 64 * 1024;

// Admin plane bounds: a request head larger than this is rejected, and at
// most this many admin connections are served at once (the query plane's
// max_connections does not apply — a saturated query plane must still be
// scrapeable, but a scraper cannot balloon the server either).
constexpr size_t kMaxAdminRequestBytes = 8 * 1024;
constexpr size_t kMaxAdminConns = 16;

// Splits "GET /path HTTP/1.0" into method and target; false when the line
// is not three space-separated tokens with an HTTP/1.x version.
bool ParseHttpRequestLine(const std::string& head, std::string* method,
                          std::string* target) {
  size_t eol = head.find_first_of("\r\n");
  std::string line = head.substr(0, eol);
  size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos || sp1 == 0) return false;
  size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos || sp2 == sp1 + 1) return false;
  std::string version = line.substr(sp2 + 1);
  if (version.rfind("HTTP/1.", 0) != 0) return false;
  *method = line.substr(0, sp1);
  *target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  return true;
}

const char* HttpReason(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

// Opens a non-blocking listener on 127.0.0.1:`port` (0 picks an ephemeral
// port) and reports its fd and bound port. On failure the IOError names the
// listener (`what`) and the failing call; *fd may then hold an open socket,
// which the caller owns and closes.
Status ListenLoopback(const char* what, int port, int backlog, int* fd,
                      int* bound_port) {
  auto fail = [&](const char* call) {
    const int err = errno;
    return Status::IOError(std::string(what) + " listener " + call +
                           " 127.0.0.1:" + std::to_string(port) + ": " +
                           std::strerror(err));
  };
  *fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (*fd < 0) return fail("socket");
  int one = 1;
  ::setsockopt(*fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  socklen_t len = sizeof(addr);
  auto* sa = reinterpret_cast<sockaddr*>(&addr);
  if (::bind(*fd, sa, len) != 0) return fail("bind");
  if (::listen(*fd, backlog) != 0) return fail("listen");
  if (::getsockname(*fd, sa, &len) != 0) return fail("getsockname");
  *bound_port = static_cast<int>(ntohs(addr.sin_port));
  return Status::OK();
}

}  // namespace

TcpServer::TcpServer(RecoService* service, const TcpServerConfig& config)
    : service_(service), config_(config) {}

std::unique_ptr<TcpServer> TcpServer::Start(RecoService* service,
                                            const TcpServerConfig& config,
                                            Status* status) {
  MISSL_CHECK(service != nullptr && status != nullptr);
  if (config.port < 0 || config.port > 65535) {
    *status = Status::InvalidArgument("TcpServerConfig.port out of range: " +
                                      std::to_string(config.port));
    return nullptr;
  }
  if (config.admin_port < -1 || config.admin_port > 65535) {
    *status = Status::InvalidArgument(
        "TcpServerConfig.admin_port out of range: " +
        std::to_string(config.admin_port));
    return nullptr;
  }
  if (config.max_connections < 1) {
    *status = Status::InvalidArgument(
        "TcpServerConfig.max_connections must be >= 1");
    return nullptr;
  }
  if (config.max_line_bytes < 1 || config.max_buffered_write_bytes < 1) {
    *status = Status::InvalidArgument(
        "TcpServerConfig byte limits must be >= 1");
    return nullptr;
  }

  std::unique_ptr<TcpServer> srv(new TcpServer(service, config));
  // On failure srv's destructor closes whatever listener fd was opened.
  *status = ListenLoopback("query", config.port, config.backlog,
                           &srv->listen_fd_, &srv->port_);
  if (!status->ok()) return nullptr;
  if (config.admin_port >= 0) {
    *status = ListenLoopback("admin", config.admin_port, config.backlog,
                             &srv->admin_listen_fd_, &srv->admin_port_);
    if (!status->ok()) return nullptr;
  }

  srv->epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  srv->wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (srv->epoll_fd_ < 0 || srv->wake_fd_ < 0) {
    *status = Status::IOError(std::string("epoll/eventfd: ") +
                              std::strerror(errno));
    return nullptr;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = srv->listen_fd_;
  if (::epoll_ctl(srv->epoll_fd_, EPOLL_CTL_ADD, srv->listen_fd_, &ev) != 0) {
    *status = Status::IOError(std::string("epoll_ctl(listen): ") +
                              std::strerror(errno));
    return nullptr;
  }
  ev.events = EPOLLIN;
  ev.data.fd = srv->wake_fd_;
  if (::epoll_ctl(srv->epoll_fd_, EPOLL_CTL_ADD, srv->wake_fd_, &ev) != 0) {
    *status = Status::IOError(std::string("epoll_ctl(wake): ") +
                              std::strerror(errno));
    return nullptr;
  }
  if (srv->admin_listen_fd_ >= 0) {
    ev.events = EPOLLIN;
    ev.data.fd = srv->admin_listen_fd_;
    if (::epoll_ctl(srv->epoll_fd_, EPOLL_CTL_ADD, srv->admin_listen_fd_,
                    &ev) != 0) {
      *status = Status::IOError(std::string("epoll_ctl(admin): ") +
                                std::strerror(errno));
      return nullptr;
    }
  }

  srv->start_ns_ = obs::NowNanos();
  srv->epoll_thread_ = std::thread([s = srv.get()] { s->EpollLoop(); });
  *status = Status::OK();
  return srv;
}

TcpServer::~TcpServer() {
  Shutdown();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (admin_listen_fd_ >= 0) ::close(admin_listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
}

void TcpServer::BeginShutdown() {
  draining_.store(true, std::memory_order_release);
  WakeEpoll();
}

void TcpServer::Shutdown() {
  if (!epoll_thread_.joinable()) return;  // Start failed or already shut down
  BeginShutdown();
  {
    std::unique_lock<std::mutex> l(mu_);
    drained_cv_.wait(l, [&] { return query_conns_ == 0; });
  }
  stop_.store(true, std::memory_order_release);
  WakeEpoll();
  epoll_thread_.join();
  // No accept loop remains; close the listeners so post-shutdown connects
  // are refused by the kernel instead of parking in the backlog forever.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (admin_listen_fd_ >= 0) {
    ::close(admin_listen_fd_);
    admin_listen_fd_ = -1;
  }
  // Admin connections are exempt from the drain; with the epoll thread gone,
  // flush whatever response bytes fit and close them.
  std::vector<std::shared_ptr<Conn>> leftover;
  {
    std::lock_guard<std::mutex> l(mu_);
    for (const auto& [fd, c] : conns_) leftover.push_back(c);
    conns_.clear();
  }
  for (const auto& conn : leftover) {
    std::lock_guard<std::mutex> l(conn->mu);
    if (conn->closed) continue;
    if (conn->woff < conn->wbuf.size()) {
      ssize_t ignored =
          ::send(conn->fd, conn->wbuf.data() + conn->woff,
                 conn->wbuf.size() - conn->woff, MSG_NOSIGNAL | MSG_DONTWAIT);
      (void)ignored;
    }
    conn->closed = true;
    ::close(conn->fd);
    TcpMetrics::Get().closed.Add(1);
  }
  TcpMetrics::Get().active.Set(0);
  // A query whose connection died can still be in the batcher; its
  // completion touches this server, so wait until none is left.
  std::unique_lock<std::mutex> l(mu_);
  drained_cv_.wait(l, [&] { return outstanding_ == 0; });
}

int64_t TcpServer::active_connections() const {
  std::lock_guard<std::mutex> l(mu_);
  return static_cast<int64_t>(conns_.size());
}

int64_t TcpServer::connections_accepted() const {
  std::lock_guard<std::mutex> l(mu_);
  return accepted_;
}

int64_t TcpServer::connections_refused() const {
  std::lock_guard<std::mutex> l(mu_);
  return refused_;
}

void TcpServer::WakeEpoll() {
  uint64_t v = 1;
  ssize_t ignored = ::write(wake_fd_, &v, sizeof(v));
  (void)ignored;  // eventfd writes only fail if the counter saturates
}

void TcpServer::EpollLoop() {
  std::vector<epoll_event> events(64);
  while (!stop_.load(std::memory_order_acquire)) {
    // The eventfd wakes us for flushes and shutdown; the timeout is only a
    // safety net so a missed edge can never wedge the loop.
    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable epoll failure; Shutdown still waits for answers
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[static_cast<size_t>(i)].data.fd;
      uint32_t mask = events[static_cast<size_t>(i)].events;
      if (fd == wake_fd_) {
        uint64_t v = 0;
        ssize_t ignored = ::read(wake_fd_, &v, sizeof(v));
        (void)ignored;
        continue;
      }
      if (fd == listen_fd_) {
        AcceptPending();
        continue;
      }
      if (fd == admin_listen_fd_) {
        AcceptAdminPending();
        continue;
      }
      std::shared_ptr<Conn> conn;
      {
        std::lock_guard<std::mutex> l(mu_);
        auto it = conns_.find(fd);
        if (it != conns_.end()) conn = it->second;
      }
      if (conn == nullptr) continue;  // closed earlier in this batch
      if ((mask & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        HandleReadable(conn);
      }
      {
        std::lock_guard<std::mutex> l(mu_);
        if (conns_.count(fd) == 0) continue;  // HandleReadable closed it
      }
      if ((mask & EPOLLOUT) != 0) FlushConn(conn);
    }

    // Flush requests queued by completions since the last pass.
    std::vector<std::shared_ptr<Conn>> to_flush;
    {
      std::lock_guard<std::mutex> l(mu_);
      to_flush.swap(flush_);
    }
    for (const auto& conn : to_flush) FlushConn(conn);

    if (draining_.load(std::memory_order_acquire)) {
      // Drain pass: stop reading query connections, forget partial lines,
      // and close each one once nothing is left in flight or buffered.
      // Admin connections keep being served — a draining server must stay
      // observable.
      std::vector<std::shared_ptr<Conn>> snapshot;
      {
        std::lock_guard<std::mutex> l(mu_);
        snapshot.reserve(conns_.size());
        for (const auto& [cfd, c] : conns_) {
          if (!c->admin) snapshot.push_back(c);
        }
      }
      for (const auto& conn : snapshot) {
        SetReading(conn, false);
        conn->rbuf.clear();
        conn->discarding = false;
        FlushConn(conn);
      }
      std::lock_guard<std::mutex> l(mu_);
      if (query_conns_ == 0) drained_cv_.notify_all();
    }
  }
}

void TcpServer::AcceptPending() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (no more pending) or transient accept failure
    }
    if (draining_.load(std::memory_order_acquire)) {
      RefuseConnection(fd, "shutting down");
      continue;
    }
    size_t active = 0;
    {
      std::lock_guard<std::mutex> l(mu_);
      active = conns_.size();
    }
    if (active >= static_cast<size_t>(config_.max_connections)) {
      RefuseConnection(fd, "connection limit reached");
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    size_t now_active = 0;
    {
      std::lock_guard<std::mutex> l(mu_);
      conns_.emplace(fd, std::move(conn));
      ++accepted_;
      ++query_conns_;
      now_active = conns_.size();
    }
    TcpMetrics::Get().accepted.Add(1);
    TcpMetrics::Get().active.Set(static_cast<int64_t>(now_active));
  }
}

void TcpServer::AcceptAdminPending() {
  for (;;) {
    int fd = ::accept4(admin_listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (no more pending) or transient accept failure
    }
    // Admin connects are accepted even while draining — observability during
    // a drain is the point — but are capped independently of the query plane.
    size_t admin_active = 0;
    {
      std::lock_guard<std::mutex> l(mu_);
      admin_active = conns_.size() - static_cast<size_t>(query_conns_);
    }
    if (admin_active >= kMaxAdminConns) {
      static const char kBusy[] =
          "HTTP/1.0 503 Service Unavailable\r\n"
          "Content-Type: text/plain\r\nContent-Length: 5\r\n"
          "Connection: close\r\n\r\nbusy\n";
      ssize_t ignored = ::send(fd, kBusy, sizeof(kBusy) - 1, MSG_NOSIGNAL);
      (void)ignored;
      ::close(fd);
      AdminMetrics::Get().bad_requests.Add(1);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->admin = true;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    std::lock_guard<std::mutex> l(mu_);
    conns_.emplace(fd, std::move(conn));
  }
}

void TcpServer::RefuseConnection(int fd, const std::string& reason) {
  // Counted before the peer can see the refusal, so a client that has read
  // its EOF also reads the refusal in connections_refused().
  {
    std::lock_guard<std::mutex> l(mu_);
    ++refused_;
  }
  TcpMetrics::Get().refused.Add(1);
  std::string line = ErrorToJson(-1, reason) + "\n";
  // Best effort: the socket buffer of a fresh connection always has room for
  // one short line, and a peer that vanished mid-refusal loses nothing.
  ssize_t ignored = ::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
  (void)ignored;
  ::close(fd);
}

void TcpServer::HandleReadable(const std::shared_ptr<Conn>& conn) {
  char buf[65536];
  // Bounded reads per wake-up: a peer that streams without pause cannot
  // starve other connections; level-triggered epoll re-arms for the rest.
  for (int rounds = 0; rounds < 16; ++rounds) {
    ssize_t r = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (r > 0) {
      conn->rbuf.append(buf, static_cast<size_t>(r));
      if (conn->admin) {
        ProcessAdminBuffer(conn);
      } else {
        TcpMetrics::Get().bytes_in.Add(r);
        ProcessReadBuffer(conn);
      }
      {
        // An admin response can close the connection inline; stop reading.
        std::lock_guard<std::mutex> l(conn->mu);
        if (conn->closed) return;
      }
      continue;
    }
    if (r == 0) {
      // Peer half-closed its write side. Whatever partial line remains can
      // never complete; answers still in flight are flushed before close.
      conn->rd_eof = true;
      conn->rbuf.clear();
      conn->discarding = false;
      SetReading(conn, false);
      FlushConn(conn);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    // Hard error (ECONNRESET...): the peer is gone, drop it entirely.
    CloseConn(conn);
    return;
  }
}

void TcpServer::ProcessReadBuffer(const std::shared_ptr<Conn>& conn) {
  size_t start = 0;
  for (;;) {
    size_t nl = conn->rbuf.find('\n', start);
    if (nl == std::string::npos) break;
    if (conn->discarding) {
      // End of an over-long line we already answered: resynchronize.
      conn->discarding = false;
    } else {
      std::string line = conn->rbuf.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      HandleLine(conn, line);
    }
    start = nl + 1;
  }
  conn->rbuf.erase(0, start);
  if (conn->discarding) {
    conn->rbuf.clear();
  } else if (static_cast<int64_t>(conn->rbuf.size()) > config_.max_line_bytes) {
    conn->discarding = true;
    conn->rbuf.clear();
    TcpMetrics::Get().malformed.Add(1);
    EnqueueResponse(
        conn, ErrorToJson(-1, "request line exceeds " +
                                  std::to_string(config_.max_line_bytes) +
                                  " bytes"));
  }
}

void TcpServer::HandleLine(const std::shared_ptr<Conn>& conn,
                           const std::string& line) {
  if (line.empty() || line[0] == '#') return;  // protocol: caller-skippable
  TcpMetrics::Get().lines.Add(1);
  int64_t parse_start_ns = obs::NowNanos();
  ParsedQuery parsed;
  Status s = ParseQueryLine(line, &parsed);
  int64_t parsed_ns = obs::NowNanos();
  StageMetrics::Get().parse_ns.Observe(parsed_ns - parse_start_ns);
  if (!s.ok()) {
    TcpMetrics::Get().malformed.Add(1);
    EnqueueResponse(conn, ErrorToJson(-1, s.message()));
    return;
  }
  {
    std::lock_guard<std::mutex> l(conn->mu);
    ++conn->in_flight;
  }
  {
    std::lock_guard<std::mutex> l(mu_);
    ++outstanding_;
  }
  service_->Submit(std::move(parsed.query),
                   [this, conn, id = parsed.id](const Status& st,
                                                TopKResult result) {
                     CompleteQuery(conn, id, st, result);
                   });
  StageMetrics::Get().queue_ns.Observe(obs::NowNanos() - parsed_ns);
}

void TcpServer::CompleteQuery(const std::shared_ptr<Conn>& conn, int64_t id,
                              const Status& status,
                              const TopKResult& result) {
  std::string line =
      status.ok() ? TopKToJson(id, result) : ErrorToJson(id, status.message());
  {
    // Decrement and append under one lock: the epoll thread may only close
    // a draining connection when it can see BOTH in_flight == 0 and the
    // answer bytes, never a window in between (the drain guarantee).
    std::lock_guard<std::mutex> l(conn->mu);
    --conn->in_flight;
    if (!conn->closed) {
      conn->wbuf += line;
      conn->wbuf += '\n';
      conn->bytes_enqueued += line.size() + 1;
      // serve.stage.write_ns: from answer enqueued to its last byte sent.
      conn->write_marks.emplace_back(conn->bytes_enqueued, obs::NowNanos());
    }
  }
  ScheduleFlush(conn);
  // Last touch of the server: notify under the lock, so Shutdown cannot
  // return (and the server die) before this completion lets go of mu_.
  std::lock_guard<std::mutex> l(mu_);
  if (--outstanding_ == 0) drained_cv_.notify_all();
}

void TcpServer::ProcessAdminBuffer(const std::shared_ptr<Conn>& conn) {
  // One HTTP/1.0 request per connection: wait for the full request head,
  // answer, flush, close. Anything after the head (a body, a pipelined
  // second request) is ignored.
  size_t head_end = conn->rbuf.find("\r\n\r\n");
  if (head_end == std::string::npos) head_end = conn->rbuf.find("\n\n");
  if (head_end == std::string::npos) {
    if (conn->rbuf.size() > kMaxAdminRequestBytes) {
      AdminMetrics::Get().bad_requests.Add(1);
      SendHttpResponse(conn, 400, "text/plain", "request head too large\n");
    }
    return;
  }
  std::string head = conn->rbuf.substr(0, head_end);
  conn->rbuf.clear();
  SetReading(conn, false);  // one-shot: nothing further will be parsed
  std::string method, target;
  if (!ParseHttpRequestLine(head, &method, &target)) {
    AdminMetrics::Get().bad_requests.Add(1);
    SendHttpResponse(conn, 400, "text/plain", "malformed request line\n");
    return;
  }
  HandleAdminRequest(conn, method, target);
}

void TcpServer::HandleAdminRequest(const std::shared_ptr<Conn>& conn,
                                   const std::string& method,
                                   const std::string& target) {
  AdminMetrics::Get().requests.Add(1);
  if (method != "GET") {
    AdminMetrics::Get().bad_requests.Add(1);
    SendHttpResponse(conn, 405, "text/plain", "method not allowed\n");
    return;
  }
  std::string path = target.substr(0, target.find('?'));
  if (path == "/metrics") {
    SendHttpResponse(
        conn, 200, "text/plain; version=0.0.4",
        obs::PrometheusText(obs::MetricsRegistry::Global().Snapshot()));
  } else if (path == "/healthz") {
    if (draining_.load(std::memory_order_acquire)) {
      SendHttpResponse(conn, 503, "text/plain", "draining\n");
    } else {
      SendHttpResponse(conn, 200, "text/plain", "ok\n");
    }
  } else if (path == "/statusz") {
    SendHttpResponse(conn, 200, "application/json", StatuszJson());
  } else if (path == "/tracez") {
    SendHttpResponse(conn, 200, "application/json", obs::TraceToJson());
  } else {
    AdminMetrics::Get().bad_requests.Add(1);
    SendHttpResponse(conn, 404, "text/plain", "not found\n");
  }
}

void TcpServer::SendHttpResponse(const std::shared_ptr<Conn>& conn, int code,
                                 const char* content_type,
                                 const std::string& body) {
  std::string resp;
  resp.reserve(body.size() + 128);
  resp += "HTTP/1.0 " + std::to_string(code) + " " + HttpReason(code) + "\r\n";
  resp += "Content-Type: ";
  resp += content_type;
  resp += "\r\nContent-Length: " + std::to_string(body.size()) + "\r\n";
  resp += "Connection: close\r\n\r\n";
  resp += body;
  {
    std::lock_guard<std::mutex> l(conn->mu);
    if (conn->closed) return;
    conn->wbuf += resp;
    conn->bytes_enqueued += resp.size();
    conn->close_after_flush = true;
  }
  FlushConn(conn);  // epoll thread: flush (and maybe close) inline
}

std::string TcpServer::StatuszJson() const {
  obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  alloc::AllocStats astats = alloc::GetAllocStats();
  obs::MemoryStats mstats = obs::CurrentMemoryStats();
  const ServeConfig& sc = service_->config();
  int64_t active = 0, accepted = 0, refused = 0;
  {
    std::lock_guard<std::mutex> l(mu_);
    active = static_cast<int64_t>(conns_.size());
    accepted = accepted_;
    refused = refused_;
  }
  std::ostringstream ss;
  ss << "{\"build_rev\":\"" << obs::JsonEscape(obs::BuildRev()) << "\""
     << ",\"uptime_ns\":" << (obs::NowNanos() - start_ns_)
     << ",\"draining\":"
     << (draining_.load(std::memory_order_acquire) ? "true" : "false")
     << ",\"port\":" << port_ << ",\"admin_port\":" << admin_port_
     << ",\"serve_config\":{\"max_len\":" << sc.max_len
     << ",\"max_batch\":" << sc.max_batch
     << ",\"max_wait_us\":" << sc.max_wait_us
     << ",\"num_threads\":" << sc.num_threads
     << ",\"resolved_num_threads\":" << service_->num_threads()
     << ",\"precision\":\"" << PrecisionName(sc.precision) << "\"}"
     << ",\"tcp_config\":{\"max_connections\":" << config_.max_connections
     << ",\"max_line_bytes\":" << config_.max_line_bytes
     << ",\"max_buffered_write_bytes\":" << config_.max_buffered_write_bytes
     << "}"
     << ",\"catalog\":{\"num_items\":" << service_->num_items()
     << ",\"num_behaviors\":" << service_->num_behaviors()
     << ",\"dim\":" << service_->model().config().dim << "}";
  // Quantized-catalog stats (docs/INFERENCE.md): enabled only when the
  // plan was compiled with the int8 tier.
  const infer::PlannedExecutor& plan = service_->plan();
  if (plan.quantized()) {
    const infer::QuantInfo& qi = plan.quant_info();
    ss << ",\"quant\":{\"enabled\":true"
       << ",\"min_scale\":" << qi.min_scale
       << ",\"max_scale\":" << qi.max_scale
       << ",\"zero_rows\":" << qi.zero_rows
       << ",\"saturated\":" << qi.saturated
       << ",\"int8_bytes\":" << qi.int8_bytes
       << ",\"fp32_bytes\":" << qi.fp32_bytes << "}";
  } else {
    ss << ",\"quant\":{\"enabled\":false}";
  }
  ss
     << ",\"requests_served\":" << service_->requests_served()
     << ",\"batches_run\":" << service_->batches_run()
     << ",\"connections\":{\"active\":" << active
     << ",\"accepted\":" << accepted << ",\"refused\":" << refused << "}"
     << ",\"alloc\":{\"mode\":\"" << alloc::ModeName(alloc::ActiveMode())
     << "\",\"pool_hits\":" << astats.pool_hits
     << ",\"pool_misses\":" << astats.pool_misses
     << ",\"system_allocs\":" << astats.system_allocs
     << ",\"system_frees\":" << astats.system_frees
     << ",\"cached_bytes\":" << astats.cached_bytes
     << ",\"live_bytes\":" << astats.live_bytes << "}"
     << ",\"memory\":{\"live_bytes\":" << mstats.live_bytes
     << ",\"peak_bytes\":" << mstats.peak_bytes
     << ",\"live_tensors\":" << mstats.live_tensors
     << ",\"live_autograd_nodes\":" << mstats.live_autograd_nodes << "}"
     << ",\"stages\":{";
  bool first = true;
  const std::string prefix = "serve.stage.";
  for (const auto& [name, h] : snap.histograms) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (!first) ss << ",";
    first = false;
    ss << "\"" << obs::JsonEscape(name.substr(prefix.size()))
       << "\":{\"count\":" << h.count << ",\"sum\":" << h.sum
       << ",\"p50\":" << obs::SnapshotPercentile(h, 0.5)
       << ",\"p99\":" << obs::SnapshotPercentile(h, 0.99) << "}";
  }
  ss << "},\"flight_recorder\":{\"ring_capacity\":"
     << obs::FlightRingCapacity()
     << ",\"recorded\":" << obs::TraceSpansRecorded() << "}}";
  return ss.str();
}

void TcpServer::EnqueueResponse(const std::shared_ptr<Conn>& conn,
                                const std::string& line) {
  {
    std::lock_guard<std::mutex> l(conn->mu);
    if (conn->closed) return;
    conn->wbuf += line;
    conn->wbuf += '\n';
    conn->bytes_enqueued += line.size() + 1;  // keep write marks aligned
  }
  ScheduleFlush(conn);
}

void TcpServer::ScheduleFlush(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> l(mu_);
    flush_.push_back(conn);
  }
  WakeEpoll();
}

void TcpServer::FlushConn(const std::shared_ptr<Conn>& conn) {
  bool close_now = false;
  bool want_write = false;
  size_t pending = 0;
  {
    std::lock_guard<std::mutex> l(conn->mu);
    if (conn->closed) return;
    while (conn->woff < conn->wbuf.size()) {
      ssize_t w = ::send(conn->fd, conn->wbuf.data() + conn->woff,
                         conn->wbuf.size() - conn->woff, MSG_NOSIGNAL);
      if (w > 0) {
        conn->woff += static_cast<size_t>(w);
        conn->bytes_sent += static_cast<uint64_t>(w);
        TcpMetrics::Get().bytes_out.Add(w);
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_now = true;  // EPIPE/ECONNRESET: peer gone
      break;
    }
    if (!conn->write_marks.empty() &&
        conn->bytes_sent >= conn->write_marks.front().first) {
      int64_t now_ns = obs::NowNanos();
      do {
        StageMetrics::Get().write_ns.Observe(
            now_ns - conn->write_marks.front().second);
        conn->write_marks.pop_front();
      } while (!conn->write_marks.empty() &&
               conn->bytes_sent >= conn->write_marks.front().first);
    }
    if (conn->woff == conn->wbuf.size()) {
      conn->wbuf.clear();
      conn->woff = 0;
    } else if (conn->woff > kCompactThreshold) {
      conn->wbuf.erase(0, conn->woff);
      conn->woff = 0;
    }
    pending = conn->wbuf.size() - conn->woff;
    want_write = pending > 0 && !close_now;
    if (!close_now && pending == 0 && conn->in_flight == 0 &&
        (conn->rd_eof || conn->close_after_flush ||
         (!conn->admin && draining_.load(std::memory_order_acquire)))) {
      close_now = true;  // fully answered and no more input possible
    }
  }
  if (close_now) {
    CloseConn(conn);
    return;
  }
  if (want_write != conn->want_write) {
    conn->want_write = want_write;
    UpdateEvents(conn);
  }
  // Backpressure: a reader that cannot keep up stops being read from until
  // its buffered output drains below half the cap.
  bool drain_mode = conn->rd_eof || draining_.load(std::memory_order_acquire);
  if (!drain_mode && conn->reading &&
      pending > static_cast<size_t>(config_.max_buffered_write_bytes)) {
    SetReading(conn, false);
  } else if (!drain_mode && !conn->reading &&
             pending <
                 static_cast<size_t>(config_.max_buffered_write_bytes) / 2) {
    SetReading(conn, true);
  }
}

void TcpServer::SetReading(const std::shared_ptr<Conn>& conn, bool enable) {
  if (conn->reading == enable) return;
  conn->reading = enable;
  UpdateEvents(conn);
}

void TcpServer::UpdateEvents(const std::shared_ptr<Conn>& conn) {
  epoll_event ev{};
  ev.events = (conn->reading ? EPOLLIN : 0u) |
              (conn->want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void TcpServer::CloseConn(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> l(conn->mu);
    if (conn->closed) return;
    conn->closed = true;
    conn->wbuf.clear();
    conn->woff = 0;
    conn->write_marks.clear();
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  size_t now_active = 0;
  bool drained = false;
  {
    std::lock_guard<std::mutex> l(mu_);
    conns_.erase(conn->fd);
    if (!conn->admin) --query_conns_;
    now_active = conns_.size();
    drained = draining_.load(std::memory_order_acquire) && query_conns_ == 0;
  }
  TcpMetrics::Get().closed.Add(1);
  TcpMetrics::Get().active.Set(static_cast<int64_t>(now_active));
  if (drained) drained_cv_.notify_all();
}

}  // namespace missl::serve
