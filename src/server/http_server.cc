#include "server/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/clock.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "server/epoll_reactor.h"

namespace netmark::server {

namespace {

/// Longest single POLLOUT wait while a response write is backed up.
constexpr int kPollSliceMs = 100;

/// Writes all of `data`, polling through EAGAIN until `deadline_micros`
/// (monotonic). Bounds how long a worker can be held by a client that
/// stops reading its response.
netmark::Status WriteAll(int fd, std::string_view data,
                         int64_t deadline_micros) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        int64_t now = netmark::MonotonicMicros();
        if (now >= deadline_micros) {
          return netmark::Status::IOError("send: response write deadline");
        }
        pollfd pfd{fd, POLLOUT, 0};
        int slice = static_cast<int>(std::min<int64_t>(
            (deadline_micros - now) / 1000 + 1, kPollSliceMs));
        if (::poll(&pfd, 1, slice) >= 0) continue;
      }
      return netmark::Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return netmark::Status::OK();
}

}  // namespace

HttpServer::HttpServer(Handler handler, HttpServerOptions options)
    : handler_(std::move(handler)), options_(options) {
  options_.worker_threads = std::max(1, options_.worker_threads);
  options_.accept_queue_capacity = std::max<size_t>(1, options_.accept_queue_capacity);
  options_.max_requests_per_connection =
      std::max(1, options_.max_requests_per_connection);
  options_.idle_timeout_ms = std::max(1, options_.idle_timeout_ms);
  options_.read_timeout_ms = std::max(1, options_.read_timeout_ms);
  owned_metrics_ = std::make_unique<observability::MetricsRegistry>();
  metrics_ = owned_metrics_.get();
  BindHandles();
}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::BindMetrics(observability::MetricsRegistry* registry) {
  if (registry == nullptr || registry == metrics_) return;
  metrics_ = registry;
  BindHandles();
}

void HttpServer::BindHandles() {
  handles_.requests = metrics_->GetCounter("netmark_http_server_requests_total");
  handles_.shed = metrics_->GetCounter("netmark_http_shed_total");
  handles_.accept_errors =
      metrics_->GetCounter("netmark_http_accept_errors_total");
  handles_.read_timeouts =
      metrics_->GetCounter("netmark_http_read_timeouts_total");
  handles_.keepalive_reuses =
      metrics_->GetCounter("netmark_http_keepalive_reuses_total");
  handles_.epoll_wakeups =
      metrics_->GetCounter("netmark_http_server_epoll_wakeups_total");
  metrics_->SetCallbackGauge("netmark_http_pool_threads", {}, [this] {
    return static_cast<double>(options_.worker_threads);
  });
  metrics_->SetCallbackGauge("netmark_http_queue_depth", {}, [this] {
    return static_cast<double>(queue_depth_.load(std::memory_order_relaxed));
  });
  metrics_->SetCallbackGauge("netmark_http_active_connections", {}, [this] {
    return static_cast<double>(
        active_connections_.load(std::memory_order_relaxed));
  });
  metrics_->SetCallbackGauge("netmark_http_server_open_connections", {}, [this] {
    return static_cast<double>(
        open_connections_.load(std::memory_order_relaxed));
  });
}

netmark::Status HttpServer::Start(uint16_t port) {
  if (running_.load()) return netmark::Status::AlreadyExists("server already running");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return netmark::Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return netmark::Status::IOError(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return netmark::Status::IOError(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  queue_depth_.store(0);
  draining_.store(false);
  running_.store(true);
  workers_.reserve(static_cast<size_t>(options_.worker_threads));
  request_queue_ =
      std::make_unique<WorkQueue<FramedRequest>>(options_.accept_queue_capacity);
  reactor_ = std::make_unique<EpollReactor>(this);
  netmark::Status init = reactor_->Init();
  if (!init.ok()) {
    running_.store(false);
    reactor_.reset();
    request_queue_.reset();
    ::close(listen_fd_);
    listen_fd_ = -1;
    return init;
  }
  reactor_thread_ = std::thread([this] { reactor_->Run(); });
  for (int i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this] { ReactorWorkerLoop(); });
  }
  return netmark::Status::OK();
}

void HttpServer::Stop() {
  if (!running_.exchange(false)) return;
  // Drain: stop accepting first, then let workers finish the queued and
  // in-flight requests (their responses switch to Connection: close). The
  // reactor thread waits for every dispatched request's completion before
  // exiting, so no connection is torn down with a worker still writing on
  // it.
  draining_.store(true);
  if (reactor_ != nullptr) reactor_->Wake();
  if (reactor_thread_.joinable()) reactor_thread_.join();
  if (request_queue_ != nullptr) request_queue_->Close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  reactor_.reset();  // after worker join: workers post completions into it
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  draining_.store(false);
}

void HttpServer::ReactorWorkerLoop() {
  while (true) {
    std::optional<FramedRequest> request = request_queue_->Pop();
    if (!request.has_value()) return;  // closed and drained
    queue_depth_.fetch_sub(1, std::memory_order_relaxed);
    active_connections_.fetch_add(1);
    bool keep = ServeFramedRequest(*request);
    active_connections_.fetch_sub(1);
    reactor_->Complete(Completion{request->fd, request->conn_id, keep});
  }
}

bool HttpServer::ServeFramedRequest(const FramedRequest& framed) {
  const int64_t popped = netmark::MonotonicMicros();
  HttpResponse response;
  bool parsed = false;
  bool client_close = false;
  auto request = ParseRequest(framed.raw);
  const int64_t parse_micros =
      std::max<int64_t>(netmark::MonotonicMicros() - popped, 1);
  if (!request.ok()) {
    NETMARK_LOG(Debug) << "bad request: " << request.status();
    response = HttpResponse::BadRequest(request.status().ToString());
  } else {
    parsed = true;
    // Every request sits in the handoff queue, so every request carries a
    // real queue_wait span.
    request->queue_wait_micros =
        std::max<int64_t>(popped - framed.enqueued_micros, 1);
    request->parse_micros = parse_micros;
    client_close =
        netmark::EqualsIgnoreCase(request->Header("Connection"), "close");
    response = handler_(*request);
  }
  const int served = framed.served_before + 1;
  requests_served_.fetch_add(1);
  handles_.requests->Increment();
  if (served > 1) {
    keepalive_reuses_.fetch_add(1);
    handles_.keepalive_reuses->Increment();
  }
  bool keep = parsed && !client_close &&
              served < options_.max_requests_per_connection &&
              !draining_.load(std::memory_order_relaxed);
  response.headers["Connection"] = keep ? "keep-alive" : "close";
  netmark::Status written =
      WriteAll(framed.fd, response.Serialize(),
               netmark::MonotonicMicros() +
                   int64_t{options_.read_timeout_ms} * 1000);
  return keep && written.ok();
}

}  // namespace netmark::server
