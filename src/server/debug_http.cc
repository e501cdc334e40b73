#include "server/debug_http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace wavebatch::server {

namespace {

/// How long one read or write on a connection may block. A client that
/// sends nothing, or reads nothing of a large body, costs the accept thread
/// at most this long per call before the connection is dropped, so it
/// cannot wedge other scrapers or Stop().
constexpr timeval kConnectionIoTimeout{2, 0};

/// Writes the whole buffer, retrying on short writes and EINTR. Best
/// effort: a peer that hangs up mid-response just loses the tail.
void WriteAll(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    off += static_cast<size_t>(n);
  }
}

void WriteAll(int fd, const std::string& s) { WriteAll(fd, s.data(), s.size()); }

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
    ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &kConnectionIoTimeout,
                 sizeof(kConnectionIoTimeout));
    ::setsockopt(conn, SOL_SOCKET, SO_SNDTIMEO, &kConnectionIoTimeout,
                 sizeof(kConnectionIoTimeout));
    ServeConnection(conn);
    ::close(conn);
  }
}

void DebugHttpServer::ServeConnection(int fd) {
  // Read until the request line is complete. Debug clients (curl, the
  // Prometheus scraper) send tiny requests; 4 KiB bounds a misbehaving one.
  std::string request;
  char buf[1024];
  while (request.find("\r\n") == std::string::npos && request.size() < 4096) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
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
    WriteAll(fd, StatusLine(400, "Bad Request") + "\r\n");
    return;
  }
  const std::string method = line.substr(0, sp1);
  std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  if (method != "GET") {
    WriteAll(fd, StatusLine(405, "Method Not Allowed") + "\r\n");
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
                     std::to_string(body.size()) + "\r\n\r\n" + body);
    return;
  }

  const std::string body = route.handler();
  WriteAll(fd, StatusLine(200, "OK") + "Content-Type: " + route.content_type +
                   "\r\nContent-Length: " + std::to_string(body.size()) +
                   "\r\n\r\n" + body);
}

}  // namespace wavebatch::server
