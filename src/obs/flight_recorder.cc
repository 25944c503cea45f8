#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <vector>

#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace trajpattern::obs {
namespace {

/// Newest trace spans and counters a flight record includes, across all
/// threads.
constexpr size_t kMaxTraceEvents = 512;

/// Creates `path` exclusively (O_EXCL) and writes `body` to it.  Returns
/// 1 on success, 0 when the name is taken, -1 on any other failure (a
/// failed write removes the partial file).
int CreateAndWrite(const std::string& path, const std::string& body) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd < 0) return errno == EEXIST ? 0 : -1;
  size_t done = 0;
  while (done < body.size()) {
    const ssize_t n = ::write(fd, body.data() + done, body.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    done += static_cast<size_t>(n);
  }
  const bool ok = ::close(fd) == 0 && done == body.size();
  if (!ok) ::unlink(path.c_str());
  return ok ? 1 : -1;
}

}  // namespace

std::string FlightRecordJson(const std::string& trigger,
                             const std::string& detail) {
  const int64_t wall_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  RunJournal& journal = RunJournal::Global();
  TraceRecorder& tracer = TraceRecorder::Global();

  std::string out = "{\n\"flight_record\": 1,\n\"trigger\": ";
  AppendEscaped(trigger, &out);
  out += ",\n\"detail\": ";
  AppendEscaped(detail, &out);
  out += ",\n\"wall_unix_ms\": " + std::to_string(wall_ms);

  out += ",\n\"runs\": [\n";
  const std::vector<RunSnapshot> runs = journal.Runs();
  for (size_t i = 0; i < runs.size(); ++i) {
    if (i != 0) out += ",\n";
    AppendRunSnapshotJson(runs[i], &out);
  }
  out += "\n]";

  // Journal tail: each retained line is already a strict-JSON object, so
  // the lines splice straight into an array.
  out += ",\n\"journal\": [\n";
  const std::vector<std::string> tail =
      journal.TailLines(RunJournal::kRingCapacity);
  for (size_t i = 0; i < tail.size(); ++i) {
    if (i != 0) out += ",\n";
    out += tail[i];
  }
  out += "\n]";

  // Trace tail: newest spans across all threads, re-sorted by timestamp
  // (Collect is oldest-first per thread, not globally).
  out += ",\n\"trace\": {\"dropped_events\": " +
         std::to_string(tracer.dropped_events()) + ", \"events\": [\n";
  std::vector<TraceEvent> events = tracer.Collect();
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_us < b.ts_us;
            });
  if (events.size() > kMaxTraceEvents) {
    events.erase(events.begin(),
                 events.end() - static_cast<ptrdiff_t>(kMaxTraceEvents));
  }
  for (size_t i = 0; i < events.size(); ++i) {
    if (i != 0) out += ",\n";
    TraceRecorder::AppendEventJson(events[i], &out);
  }
  out += "\n]}";

  out += ",\n\"metrics\": ";
  out += ToJson(MetricsRegistry::Global().Snapshot());
  out += "\n}\n";
  return out;
}

std::string WriteFlightRecord(const std::string& dir,
                              const std::string& trigger,
                              const std::string& detail) {
  if (dir.empty()) return "";
  const std::string body = FlightRecordJson(trigger, detail);
  const int64_t wall_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  const std::string stem = dir + "/flight_" + std::to_string(wall_ms);
  // Same-millisecond dumps (a restart loop, or another process dumping
  // into the same directory) get a _<n> suffix.  The name is claimed by
  // an exclusive create, so two writers can never share one file.
  std::string path;
  for (int n = 0; n < 100 && path.empty(); ++n) {
    const std::string candidate =
        n == 0 ? stem + ".json" : stem + "_" + std::to_string(n) + ".json";
    const int created = CreateAndWrite(candidate, body);
    if (created < 0) return "";
    if (created > 0) path = candidate;
  }
  if (path.empty()) return "";  // every suffix of this millisecond taken
  MetricsRegistry::Global().GetCounter("obs.flight_dumps")->Increment();
  JournalEvent e;
  e.type = JournalEventType::kFlightDump;
  e.detail = trigger + ": " + path;
  RunJournal::Global().Emit(e);
  return path;
}

}  // namespace trajpattern::obs
