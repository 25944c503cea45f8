#ifndef TRAJPATTERN_SERVER_STATUS_SERVER_H_
#define TRAJPATTERN_SERVER_STATUS_SERVER_H_

#include <atomic>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"

namespace trajpattern {

struct StatusServerOptions {
  /// TCP port to listen on; 0 asks the kernel for an ephemeral port
  /// (read it back via `port()` — tests use this).
  int port = 0;
  /// Loopback by default: the status pages expose run internals and are
  /// meant for the operator on the box (or a sidecar scraper), not the
  /// open network.
  std::string bind_address = "127.0.0.1";
};

/// Embedded HTTP/1.0 introspection endpoint (plain POSIX sockets, no
/// dependencies).  Serves, read-only and allocation-light:
///
///   /healthz  - liveness probe ("ok")
///   /metrics  - Prometheus text exposition of the global registry
///   /runz     - JSON of the journal's run table (per-run ω, iteration,
///               candidates evaluated/pruned, frontier depth, checkpoint
///               age, StopReason)
///   /tracez   - Chrome trace_event JSON dump of the TraceRecorder
///
/// One accept thread handles requests serially; every handler reads
/// point-in-time snapshots of the global recorders, so serving never
/// blocks mining and is safe while a RunContext cancels the run being
/// inspected.  A connection has a fixed time to send its request head,
/// so an idle client cannot hold the thread, and `Stop` wakes the
/// connection in flight instead of waiting for it.  `Start` also
/// activates the journal's live run tracking so `/runz` has data even
/// when no JSONL file was requested.
class StatusServer {
 public:
  StatusServer() = default;
  ~StatusServer() { Stop(); }
  StatusServer(const StatusServer&) = delete;
  StatusServer& operator=(const StatusServer&) = delete;

  /// Binds and starts the accept thread.  Error if already running or if
  /// the socket setup fails (port in use, ...).
  Status Start(const StatusServerOptions& options);
  /// Stops accepting, shuts down the connection being answered, and
  /// joins the thread; idempotent.
  void Stop();
  bool running() const { return listen_fd_.load() >= 0; }
  /// The bound port (the resolved one when options.port was 0).
  int port() const { return port_; }

  /// Routes one request path to its response body + content type;
  /// returns the full HTTP response (404 for unknown paths).  Exposed
  /// for tests so handlers are coverable without sockets.
  static std::string HandlePath(const std::string& path);

  /// The `/runz` document: {"runs": [...], "journal_events": N}.
  static std::string RunzJson();

 private:
  void Serve();

  std::atomic<int> listen_fd_{-1};
  int port_ = -1;
  std::thread thread_;
  /// The connection `Serve` is answering (-1 when none).  Guarded, so
  /// `Stop` never shuts down an fd number that was closed and reused.
  std::mutex conn_mu_;
  int conn_fd_ = -1;
};

/// Process-wide server for CLI/bench wiring: starts the singleton on
/// `port` (idempotent while running).  Error when sockets fail.
Status StartGlobalStatusServer(int port);
/// The singleton (never null); `running()` says whether it is serving.
StatusServer* GlobalStatusServer();
void StopGlobalStatusServer();

}  // namespace trajpattern

#endif  // TRAJPATTERN_SERVER_STATUS_SERVER_H_
