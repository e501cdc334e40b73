#include "server/debug_http.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace wavebatch::server {

namespace {

/// How long one connection may hold the accept thread, from accept to
/// hang-up. A client that sends its request slowly or not at all, or reads
/// its response slowly or not at all, is dropped once this is spent, so it
/// cannot wedge other scrapers or Stop() for longer.
constexpr std::chrono::milliseconds kConnectionDeadline{2000};

using Deadline = std::chrono::steady_clock::time_point;

/// Waits until `fd` is ready for `events` (POLLIN or POLLOUT) or the
/// deadline passes. False means the time is spent and the caller should
/// hang up; true also covers a hung-up or failed peer, which the following
/// read or write reports.
bool WaitReady(int fd, short events, Deadline deadline) {
  for (;;) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return false;
    pollfd p{fd, events, 0};
    const int n = ::poll(&p, 1, static_cast<int>(left.count()));
    if (n > 0) return true;
    if (n < 0 && errno != EINTR) return false;
  }
}

/// Writes the whole buffer, retrying on short writes and EINTR, until the
/// deadline. Best effort: a peer that hangs up mid-response, or does not
/// read it in time, just loses the tail.
void WriteAll(int fd, const char* data, size_t len, Deadline deadline) {
  size_t off = 0;
  while (off < len) {
    if (!WaitReady(fd, POLLOUT, deadline)) return;
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return;
    }
    off += static_cast<size_t>(n);
  }
}

void WriteAll(int fd, const std::string& s, Deadline deadline) {
  WriteAll(fd, s.data(), s.size(), deadline);
}

std::string StatusLine(int code, const char* reason) {
  std::string line = "HTTP/1.0 ";
  line += std::to_string(code);
  line += ' ';
  line += reason;
  line += "\r\n";
  return line;
}

}  // namespace

DebugHttpServer::~DebugHttpServer() { Stop(); }

void DebugHttpServer::Handle(std::string path, std::string content_type,
                             Handler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  routes_[std::move(path)] = Route{std::move(content_type), std::move(handler)};
}

Status DebugHttpServer::Start(uint16_t port) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) return Status::InvalidArgument("already running");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // never a public interface
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("bind 127.0.0.1:" + std::to_string(port) + ": " +
                            err);
  }
  if (::listen(fd, 16) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("listen: " + err);
  }
  // Recover the kernel-assigned port when the caller asked for 0.
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Internal("getsockname: " + err);
  }

  std::lock_guard<std::mutex> lock(mu_);
  listen_fd_ = fd;
  port_ = ntohs(bound.sin_port);
  running_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void DebugHttpServer::Stop() {
  int fd = -1;
  std::thread joiner;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    running_ = false;
    fd = listen_fd_;
    listen_fd_ = -1;
    joiner = std::move(accept_thread_);
  }
  // shutdown() wakes the blocked accept(); close() releases the port.
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
  if (joiner.joinable()) joiner.join();
  std::lock_guard<std::mutex> lock(mu_);
  port_ = 0;
}

uint16_t DebugHttpServer::port() const {
  std::lock_guard<std::mutex> lock(mu_);
  return port_;
}

bool DebugHttpServer::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

void DebugHttpServer::AcceptLoop() {
  for (;;) {
    int fd;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!running_) return;
      fd = listen_fd_;
    }
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      // Stop() shut the listener down (or it failed fatally); either way
      // the loop is done.
      return;
    }
    // Non-blocking, so that no read or write outlasts the deadline: each
    // one first waits in poll() for at most the time left.
    ::fcntl(conn, F_SETFL, ::fcntl(conn, F_GETFL) | O_NONBLOCK);
    ServeConnection(conn,
                    std::chrono::steady_clock::now() + kConnectionDeadline);
    ::close(conn);
  }
}

void DebugHttpServer::ServeConnection(
    int fd, std::chrono::steady_clock::time_point deadline) {
  // Read until the request line is complete. Debug clients (curl, the
  // Prometheus scraper) send tiny requests; 4 KiB bounds a misbehaving one.
  std::string request;
  char buf[1024];
  while (request.find("\r\n") == std::string::npos && request.size() < 4096) {
    if (!WaitReady(fd, POLLIN, deadline)) return;  // time spent; hang up
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    if (n <= 0) break;
    request.append(buf, static_cast<size_t>(n));
  }
  const size_t line_end = request.find("\r\n");
  if (line_end == std::string::npos) return;  // malformed; just hang up

  // "GET <path> HTTP/x.y" — method and path are all we dispatch on.
  const std::string line = request.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = line.find(' ', sp1 == std::string::npos ? 0 : sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    WriteAll(fd, StatusLine(400, "Bad Request") + "\r\n", deadline);
    return;
  }
  const std::string method = line.substr(0, sp1);
  std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  if (method != "GET") {
    WriteAll(fd, StatusLine(405, "Method Not Allowed") + "\r\n", deadline);
    return;
  }

  Route route;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = routes_.find(path);
    if (it != routes_.end()) {
      route = it->second;
      found = true;
    }
  }
  if (!found) {
    const std::string body = "not found: " + path + "\n";
    WriteAll(fd, StatusLine(404, "Not Found") +
                     "Content-Type: text/plain\r\nContent-Length: " +
                     std::to_string(body.size()) + "\r\n\r\n" + body,
             deadline);
    return;
  }

  const std::string body = route.handler();
  WriteAll(fd, StatusLine(200, "OK") + "Content-Type: " + route.content_type +
                   "\r\nContent-Length: " + std::to_string(body.size()) +
                   "\r\n\r\n" + body,
           deadline);
}

}  // namespace wavebatch::server
