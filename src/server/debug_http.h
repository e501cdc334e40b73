#ifndef WAVEBATCH_SERVER_DEBUG_HTTP_H_
#define WAVEBATCH_SERVER_DEBUG_HTTP_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "util/status.h"

namespace wavebatch::server {

/// A minimal embedded debug/introspection HTTP listener: loopback only,
/// GET only, one request per connection (HTTP/1.0 close semantics), serial
/// accept loop on one background thread. It exists to serve /metrics,
/// /statusz, and /tracez to curl and a Prometheus scraper — it is not a
/// general web server and must never be bound to a public interface (the
/// bind address is hard-wired to 127.0.0.1).
///
/// Handlers run on the accept thread; they should snapshot state and
/// return. A handler's returned body is sent with 200 and its declared
/// content type; unknown paths get 404. Handler registration is only
/// allowed before Start().
///
/// Each connection has one 2 s deadline from accept: every read and write
/// waits at most the time left, and the connection is dropped once it is
/// spent. So a client that sends its request or reads its response slowly,
/// or not at all, holds the accept thread (and a Stop() waiting to join
/// it) for at most 2 s.
class DebugHttpServer {
 public:
  /// A handler returns the response body for one GET of its path.
  using Handler = std::function<std::string()>;

  DebugHttpServer() = default;
  ~DebugHttpServer();

  DebugHttpServer(const DebugHttpServer&) = delete;
  DebugHttpServer& operator=(const DebugHttpServer&) = delete;

  /// Registers `handler` for exact-match GETs of `path` (e.g. "/metrics").
  /// `content_type` is the Content-Type header value. Must be called
  /// before Start().
  void Handle(std::string path, std::string content_type, Handler handler);

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned ephemeral port, readable
  /// via port() afterwards) and starts the accept thread.
  Status Start(uint16_t port);
  /// Stops the accept thread and closes the listener. Idempotent.
  void Stop();

  /// The bound port (0 until Start() succeeds).
  uint16_t port() const;
  bool running() const;

 private:
  struct Route {
    std::string content_type;
    Handler handler;
  };

  void AcceptLoop();
  /// Reads one request line, dispatches, writes one response, closes;
  /// gives up on the connection at `deadline`.
  void ServeConnection(int fd, std::chrono::steady_clock::time_point deadline);

  mutable std::mutex mu_;
  std::map<std::string, Route> routes_;
  std::thread accept_thread_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  bool running_ = false;
};

}  // namespace wavebatch::server

#endif  // WAVEBATCH_SERVER_DEBUG_HTTP_H_
