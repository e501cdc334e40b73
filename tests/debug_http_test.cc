// The loopback debug listener (server::DebugHttpServer): what it answers
// for a route, a query string, an unknown path, a non-GET method and a
// malformed request line; that Stop() is idempotent; that a client which
// never sends its request, or never reads its response, cannot hold the
// accept thread, so Stop() still returns; and that a client which trickles
// its request is dropped at the connection's deadline, so a concurrent
// scrape is still answered. Loopback TCP only.

#include "server/debug_http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>

#include "gtest/gtest.h"

namespace wavebatch {
namespace {

using server::DebugHttpServer;

/// A connected loopback client socket, or -1. Its reads give up after 10 s,
/// so a broken server fails the test instead of hanging it.
int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Sends `request` on a fresh connection and returns everything the server
/// wrote before it closed the connection.
std::string Exchange(uint16_t port, const std::string& request) {
  const int fd = Connect(port);
  if (fd < 0) return "";
  std::string response;
  if (SendAll(fd, request)) {
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
      response.append(buf, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  return response;
}

/// The status code of an HTTP response ("HTTP/1.0 200 OK" -> 200), or -1.
int StatusOf(const std::string& response) {
  const size_t sp = response.find(' ');
  if (sp == std::string::npos) return -1;
  return std::atoi(response.c_str() + sp + 1);
}

std::string BodyOf(const std::string& response) {
  const size_t end = response.find("\r\n\r\n");
  return end == std::string::npos ? "" : response.substr(end + 4);
}

/// Runs Stop() on another thread and reports whether it returned within
/// 30 s. Closes `client` either way, so a listener still blocked on that
/// connection is released and the stopping thread can be joined.
bool StopReturnsWhileClientStalls(DebugHttpServer& http, int client) {
  std::promise<void> stopped;
  std::future<void> done = stopped.get_future();
  std::thread stopper([&http, &stopped] {
    http.Stop();
    stopped.set_value();
  });
  const bool returned =
      done.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  ::close(client);
  stopper.join();
  return returned;
}

TEST(DebugHttpTest, ServesRoutesAndStatusCodes) {
  DebugHttpServer http;
  http.Handle("/hello", "text/plain; charset=utf-8",
              [] { return std::string("hi there\n"); });
  ASSERT_TRUE(http.Start(0).ok());
  ASSERT_TRUE(http.running());
  const uint16_t port = http.port();
  ASSERT_NE(port, 0);

  const std::string ok = Exchange(port, "GET /hello HTTP/1.0\r\n\r\n");
  EXPECT_EQ(StatusOf(ok), 200) << ok;
  EXPECT_NE(ok.find("\r\nContent-Type: text/plain; charset=utf-8\r\n"),
            std::string::npos)
      << ok;
  EXPECT_NE(ok.find("\r\nContent-Length: 9\r\n"), std::string::npos) << ok;
  EXPECT_EQ(BodyOf(ok), "hi there\n");

  const std::string query =
      Exchange(port, "GET /hello?x=1&y=2 HTTP/1.0\r\n\r\n");
  EXPECT_EQ(StatusOf(query), 200) << query;
  EXPECT_EQ(BodyOf(query), "hi there\n");

  EXPECT_EQ(StatusOf(Exchange(port, "GET /nope HTTP/1.0\r\n\r\n")), 404);
  EXPECT_EQ(StatusOf(Exchange(port, "POST /hello HTTP/1.0\r\n\r\n")), 405);
  EXPECT_EQ(StatusOf(Exchange(port, "GARBAGE\r\n\r\n")), 400);

  http.Stop();
  EXPECT_FALSE(http.running());
  EXPECT_EQ(http.port(), 0);
  http.Stop();
  EXPECT_FALSE(http.running());
}

TEST(DebugHttpTest, IdleClientDoesNotWedgeStop) {
  DebugHttpServer http;
  http.Handle("/hello", "text/plain", [] { return std::string("hi\n"); });
  ASSERT_TRUE(http.Start(0).ok());
  // Connects and never sends a byte. The accept thread picks the
  // connection up at once (it is the only one queued); the pause makes
  // sure it is reading from it when Stop() begins.
  const int client = Connect(http.port());
  ASSERT_GE(client, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_TRUE(StopReturnsWhileClientStalls(http, client))
      << "Stop() still waiting after 30 s behind an idle client";
}

TEST(DebugHttpTest, StalledReaderDoesNotWedgeStop) {
  std::atomic<bool> serving{false};
  DebugHttpServer http;
  http.Handle("/big", "text/plain", [&serving] {
    serving.store(true);
    return std::string(size_t{64} << 20, 'x');
  });
  ASSERT_TRUE(http.Start(0).ok());
  // Asks for a 64 MB body and reads none of it: the server's writes block
  // once the socket buffers fill.
  const int client = Connect(http.port());
  ASSERT_GE(client, 0);
  ASSERT_TRUE(SendAll(client, "GET /big HTTP/1.0\r\n\r\n"));
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!serving.load() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(serving.load()) << "the handler never ran";
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_TRUE(StopReturnsWhileClientStalls(http, client))
      << "Stop() still waiting after 30 s behind a client that reads nothing";
}

TEST(DebugHttpTest, TricklingClientIsDroppedAtTheDeadline) {
  DebugHttpServer http;
  http.Handle("/hello", "text/plain", [] { return std::string("hi\n"); });
  ASSERT_TRUE(http.Start(0).ok());
  const uint16_t port = http.port();
  // Sends "GET /" and more of a request line, one byte every 0.5 s for up
  // to 10 s, and never ends the line: no single read waits long, so only a
  // deadline for the whole connection drops it. MSG_NOSIGNAL: once the
  // listener hangs up, a send fails instead of raising SIGPIPE.
  const int trickler = Connect(port);
  ASSERT_GE(trickler, 0);
  std::atomic<bool> dropped{false};
  std::thread trickle([trickler, &dropped] {
    const std::string line = "GET /" + std::string(32, 'x');
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (size_t i = 0;
         i < line.size() && std::chrono::steady_clock::now() < give_up; ++i) {
      if (::send(trickler, &line[i], 1, MSG_NOSIGNAL) != 1) {
        dropped.store(true);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(500));
    }
  });
  // The listener is reading the trickler when the scrape connects.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto connected = std::chrono::steady_clock::now();
  const std::string response = Exchange(port, "GET /hello HTTP/1.0\r\n\r\n");
  const auto waited = std::chrono::steady_clock::now() - connected;
  EXPECT_EQ(StatusOf(response), 200) << response;
  EXPECT_LT(waited, std::chrono::seconds(5))
      << "the scrape waited "
      << std::chrono::duration_cast<std::chrono::milliseconds>(waited).count()
      << " ms behind the trickling client";
  trickle.join();
  EXPECT_TRUE(dropped.load()) << "the trickling client was never dropped";
  ::close(trickler);
  http.Stop();
}

}  // namespace
}  // namespace wavebatch
