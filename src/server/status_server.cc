#include "server/status_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace trajpattern {
namespace {

using obs::MetricsRegistry;
using obs::RunJournal;
using obs::RunSnapshot;
using obs::TraceRecorder;

/// How long one connection may take to send its request head.  Requests
/// are answered one at a time, so a client that connects and sends
/// nothing (or trickles bytes) would otherwise hold every other client,
/// `/healthz` included, and `Stop`.  Past it the head is read as it
/// stands, which routes a silent client to 404.
constexpr std::chrono::milliseconds kRequestHeadTimeout{2000};

std::string HttpResponse(int code, const char* reason,
                         const char* content_type, const std::string& body) {
  std::string out = "HTTP/1.0 " + std::to_string(code) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

std::string StatusServer::RunzJson() {
  std::string out = "{\n\"runs\": [\n";
  const std::vector<RunSnapshot> runs = RunJournal::Global().Runs();
  for (size_t i = 0; i < runs.size(); ++i) {
    if (i != 0) out += ",\n";
    obs::AppendRunSnapshotJson(runs[i], &out);
  }
  out += "\n],\n\"journal_events\": " +
         std::to_string(RunJournal::Global().events_emitted());
  out += "\n}\n";
  return out;
}

std::string StatusServer::HandlePath(const std::string& path) {
  if (path == "/healthz") {
    return HttpResponse(200, "OK", "text/plain", "ok\n");
  }
  if (path == "/metrics") {
    return HttpResponse(
        200, "OK", "text/plain; version=0.0.4",
        obs::ToPrometheusText(MetricsRegistry::Global().Snapshot()));
  }
  if (path == "/runz") {
    return HttpResponse(200, "OK", "application/json", RunzJson());
  }
  if (path == "/tracez") {
    return HttpResponse(200, "OK", "application/json",
                        TraceRecorder::Global().ChromeTraceJson());
  }
  return HttpResponse(404, "Not Found", "text/plain",
                      "not found; try /healthz /metrics /runz /tracez\n");
}

Status StatusServer::Start(const StatusServerOptions& options) {
  if (running()) {
    return Status::FailedPrecondition("status server already running");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::FailedPrecondition("socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  if (::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("bad bind address: " +
                                   options.bind_address);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::FailedPrecondition(
        "bind failed on port " + std::to_string(options.port) + ": " +
        std::strerror(errno));
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return Status::FailedPrecondition("listen failed");
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    return Status::FailedPrecondition("getsockname failed");
  }
  port_ = ntohs(bound.sin_port);

  // `/runz` must have run data even when no --journal file was asked
  // for, so serving implies live run tracking.
  RunJournal::Global().EnableLiveTracking();

  listen_fd_.store(fd);
  thread_ = std::thread([this] { Serve(); });
  return Status::Ok();
}

void StatusServer::Serve() {
  for (;;) {
    const int lfd = listen_fd_.load();
    if (lfd < 0) return;
    const int conn = ::accept(lfd, nullptr, nullptr);
    if (conn < 0) {
      // Stop() shut the listener down (or a transient accept error on a
      // dying socket); either way the serve loop is done.
      if (listen_fd_.load() < 0) return;
      continue;
    }
    {
      // Publish the connection for Stop(), unless Stop() already ran.
      std::lock_guard<std::mutex> lock(conn_mu_);
      if (listen_fd_.load() < 0) {
        ::close(conn);
        return;
      }
      conn_fd_ = conn;
    }
    // Read the request head.  One recv is almost always the whole "GET
    // /path HTTP/1.x" head; keep reading until the blank line that ends
    // it ("\r\n\r\n", not the first "\r\n" — curl and browsers send
    // several header lines, often across packets), capped at 16 KiB and
    // at kRequestHeadTimeout.  EINTR is a retry, not a dropped
    // connection.
    std::string req;
    char buf[2048];
    const auto deadline =
        std::chrono::steady_clock::now() + kRequestHeadTimeout;
    while (req.find("\r\n\r\n") == std::string::npos && req.size() < 16384) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) break;
      pollfd readable{conn, POLLIN, 0};
      const int ready = ::poll(&readable, 1, static_cast<int>(left.count()));
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) break;
      const ssize_t n = ::recv(conn, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      req.append(buf, static_cast<size_t>(n));
    }
    std::string path = "/";
    const size_t sp1 = req.find(' ');
    if (sp1 != std::string::npos) {
      const size_t sp2 = req.find(' ', sp1 + 1);
      if (sp2 != std::string::npos) path = req.substr(sp1 + 1, sp2 - sp1 - 1);
    }
    const size_t query = path.find('?');
    if (query != std::string::npos) path.resize(query);
    const std::string resp = HandlePath(path);
    size_t sent = 0;
    while (sent < resp.size()) {
      const ssize_t n =
          ::send(conn, resp.data() + sent, resp.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      conn_fd_ = -1;
    }
    ::shutdown(conn, SHUT_RDWR);
    ::close(conn);
  }
}

void StatusServer::Stop() {
  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) {
    // Unblock accept(): shutdown wakes it on Linux; close invalidates
    // the fd so any racing accept fails immediately.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  {
    // Wake a read or send blocked on the connection being answered.
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (conn_fd_ >= 0) ::shutdown(conn_fd_, SHUT_RDWR);
  }
  if (thread_.joinable()) thread_.join();
  port_ = -1;
}

StatusServer* GlobalStatusServer() {
  static StatusServer* const server = new StatusServer();
  return server;
}

Status StartGlobalStatusServer(int port) {
  StatusServer* server = GlobalStatusServer();
  if (server->running()) return Status::Ok();
  StatusServerOptions options;
  options.port = port;
  return server->Start(options);
}

void StopGlobalStatusServer() { GlobalStatusServer()->Stop(); }

}  // namespace trajpattern
