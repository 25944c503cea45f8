#ifndef TRAJPATTERN_OBS_FLIGHT_RECORDER_H_
#define TRAJPATTERN_OBS_FLIGHT_RECORDER_H_

#include <cstddef>
#include <string>

namespace trajpattern::obs {

/// Bounds on how much recent history a flight record retains.  The
/// record is a post-mortem, not an archive: the tail is what explains
/// the death.
struct FlightRecordOptions {
  /// Newest journal events included (the journal's own tail ring caps
  /// what is available; see RunJournal::set_ring_capacity).
  size_t max_journal_events = 256;
  /// Newest trace spans/counters included, across all threads.
  size_t max_trace_events = 512;
};

/// Assembles the crash flight record as a JSON document: the trigger,
/// the journal's run table, the last journal events, the newest trace
/// events (plus the dropped-events count), and a full metrics snapshot.
/// Safe to call from a catch block or an abort path — it only reads the
/// global recorders.
std::string FlightRecordJson(const std::string& trigger,
                             const std::string& detail,
                             const FlightRecordOptions& opts = {});

/// Writes `FlightRecordJson` to a new file `dir/flight_<unix_ms>.json`,
/// or `dir/flight_<unix_ms>_<n>.json` (n = 1..99) when that name is
/// taken, bumps the `obs.flight_dumps` counter, and journals a
/// kFlightDump event naming the artifact.  Names are claimed with an
/// exclusive create, so concurrent dumps from threads or processes never
/// share a file and never overwrite an earlier record.  Returns the path,
/// or "" on I/O failure or when every name of the millisecond is taken.
std::string WriteFlightRecord(const std::string& dir,
                              const std::string& trigger,
                              const std::string& detail,
                              const FlightRecordOptions& opts = {});

}  // namespace trajpattern::obs

#endif  // TRAJPATTERN_OBS_FLIGHT_RECORDER_H_
