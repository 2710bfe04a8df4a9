// HTTP/1.1 server over POSIX sockets: a single reactor thread owns every
// socket through an epoll set (level-triggered, EPOLLONESHOT re-arm): it
// accepts, reads, and incrementally frames requests as bytes arrive, handing
// only *fully parsed* requests to a bounded worker queue. Idle keep-alive
// connections cost one epoll registration and a buffer, not a parked worker,
// so tens of thousands of quiet clients coexist with a small pool. See
// src/server/epoll_reactor.h for the state machine.
//
// Externally observable behavior: 503 shedding with Retry-After when the
// queue is full, 408 on mid-request stalls, quiet idle reaps,
// `max_requests_per_connection` rotation, pipelined-buffer carryover, and
// graceful drain (Stop() finishes queued/in-flight requests with
// Connection: close under a clamped grace window).
//
// The tier stays lean — NETMARK's thesis — but the front door multiplexes
// client fan-in the way the mediation architecture assumes, which the
// snapshot-isolated read path (XmlStore::BeginRead) makes safe end-to-end.

#ifndef NETMARK_SERVER_HTTP_SERVER_H_
#define NETMARK_SERVER_HTTP_SERVER_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/work_queue.h"
#include "observability/metrics.h"
#include "server/http_message.h"

namespace netmark::server {

class EpollReactor;

/// Request handler: pure function of the request. Must be thread-safe — the
/// pool invokes it from `worker_threads` threads concurrently.
using Handler = std::function<HttpResponse(const HttpRequest&)>;

/// Largest accepted request message (head + body).
inline constexpr size_t kMaxHttpMessageBytes = 64 * 1024 * 1024;
/// Once draining, any in-progress read gets at most this much longer.
inline constexpr int64_t kDrainGraceMicros = 200 * 1000;

/// Serving knobs. The defaults suit loopback tests; a production front end
/// would raise the pool and queue sizes.
struct HttpServerOptions {
  /// Pool workers executing requests (>= 1).
  int worker_threads = 4;
  /// Bounded queue of fully framed requests feeding the pool before 503
  /// shedding kicks in.
  size_t accept_queue_capacity = 64;
  /// Keep-alive requests served per connection before the server closes it
  /// (bounds per-client resource capture; 0 = one request, Connection:
  /// close semantics).
  int max_requests_per_connection = 100;
  /// How long a keep-alive connection may sit idle between requests (ms)
  /// before the server reaps it quietly.
  int idle_timeout_ms = 5000;
  /// Budget for reading one request once its first byte arrived (ms); on
  /// expiry the connection is closed and netmark_http_read_timeouts_total
  /// bumps — a stalled client costs one epoll registration at most this
  /// long. Also bounds response writes.
  int read_timeout_ms = 5000;
};

/// \brief Loopback HTTP server: epoll reactor feeding a worker pool.
class HttpServer {
 public:
  explicit HttpServer(Handler handler, HttpServerOptions options = {});
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the reactor thread
  /// plus the worker pool.
  netmark::Status Start(uint16_t port = 0);
  /// Graceful drain: stops accepting, serves already-queued requests, lets
  /// in-flight requests finish (half-read requests get a clamped grace
  /// window), then joins all threads. Idempotent.
  void Stop();

  /// Re-homes the server's metrics (netmark_http_* pool/queue/shed/timeout
  /// series) onto `registry`. Call before Start.
  void BindMetrics(observability::MetricsRegistry* registry);

  /// Bound port (valid after Start).
  uint16_t port() const { return port_; }
  bool running() const { return running_.load(); }

  const HttpServerOptions& options() const { return options_; }

  // --- Counters (tests/benchmarks; mirrored as metrics) ---
  uint64_t requests_served() const { return requests_served_.load(); }
  uint64_t connections_accepted() const { return connections_accepted_.load(); }
  uint64_t connections_shed() const { return connections_shed_.load(); }
  uint64_t accept_errors() const { return accept_errors_.load(); }
  uint64_t read_timeouts() const { return read_timeouts_.load(); }
  uint64_t keepalive_reuses() const { return keepalive_reuses_.load(); }
  /// Connections with a request currently executing on a worker.
  int64_t active_connections() const { return active_connections_.load(); }
  /// Sockets the server currently holds open: every registered connection,
  /// idle ones included.
  int64_t open_connections() const { return open_connections_.load(); }
  /// epoll_wait returns on the reactor thread.
  uint64_t epoll_wakeups() const { return epoll_wakeups_.load(); }

 private:
  friend class EpollReactor;

  /// One fully framed request queued for a worker. The
  /// reactor owns the connection; the worker only parses, runs the handler,
  /// and writes the response on `fd` before posting a Completion back.
  struct FramedRequest {
    int fd = -1;
    uint64_t conn_id = 0;       ///< reactor connection id (fd-reuse guard)
    std::string raw;            ///< exactly one head+body message
    int served_before = 0;      ///< requests already served on this conn
    int64_t enqueued_micros = 0;  ///< feeds the queue_wait trace span
  };

  /// Worker verdict posted back to the reactor after the response write.
  struct Completion {
    int fd = -1;
    uint64_t conn_id = 0;
    bool keep = false;  ///< re-arm for the next request vs close
  };

  void ReactorWorkerLoop();
  /// Parses + executes one framed request and writes the response; returns
  /// whether the connection should be kept for the next request.
  bool ServeFramedRequest(const FramedRequest& request);

  void BindHandles();

  Handler handler_;
  HttpServerOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  /// Set at the start of Stop(): responses switch to Connection: close and
  /// idle waits cut short so the drain completes promptly.
  std::atomic<bool> draining_{false};

  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_shed_{0};
  std::atomic<uint64_t> accept_errors_{0};
  std::atomic<uint64_t> read_timeouts_{0};
  std::atomic<uint64_t> keepalive_reuses_{0};
  std::atomic<int64_t> active_connections_{0};
  std::atomic<int64_t> open_connections_{0};
  std::atomic<uint64_t> epoll_wakeups_{0};
  /// Mirrors the handoff queue depth without touching the queue from gauge
  /// callbacks (the queue object is recreated per Start).
  std::atomic<int64_t> queue_depth_{0};

  std::unique_ptr<WorkQueue<FramedRequest>> request_queue_;
  std::unique_ptr<EpollReactor> reactor_;
  std::thread reactor_thread_;
  std::vector<std::thread> workers_;

  /// Private fallback registry (BindMetrics re-homes onto the facade's).
  std::unique_ptr<observability::MetricsRegistry> owned_metrics_;
  observability::MetricsRegistry* metrics_ = nullptr;
  struct MetricHandles {
    observability::Counter* requests = nullptr;
    observability::Counter* shed = nullptr;
    observability::Counter* accept_errors = nullptr;
    observability::Counter* read_timeouts = nullptr;
    observability::Counter* keepalive_reuses = nullptr;
    observability::Counter* epoll_wakeups = nullptr;
  } handles_;
};

}  // namespace netmark::server

#endif  // NETMARK_SERVER_HTTP_SERVER_H_
