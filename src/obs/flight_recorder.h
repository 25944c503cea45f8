#ifndef TRAJPATTERN_OBS_FLIGHT_RECORDER_H_
#define TRAJPATTERN_OBS_FLIGHT_RECORDER_H_

#include <string>

namespace trajpattern::obs {

/// Assembles the crash flight record as a JSON document: the trigger,
/// the journal's run table, every journal event its tail ring retains
/// (`RunJournal::kRingCapacity`), the newest 512 trace spans and
/// counters across all threads (plus the dropped-events count), and a
/// full metrics snapshot.  The record is a post-mortem, not an archive:
/// the tail is what explains the death.
/// Safe to call from a catch block or an abort path — it only reads the
/// global recorders.
std::string FlightRecordJson(const std::string& trigger,
                             const std::string& detail);

/// Writes `FlightRecordJson` to a new file `dir/flight_<unix_ms>.json`,
/// or `dir/flight_<unix_ms>_<n>.json` (n = 1..99) when that name is
/// taken, bumps the `obs.flight_dumps` counter, and journals a
/// kFlightDump event naming the artifact.  Names are claimed with an
/// exclusive create, so concurrent dumps from threads or processes never
/// share a file and never overwrite an earlier record.  Returns the path,
/// or "" on I/O failure or when every name of the millisecond is taken.
std::string WriteFlightRecord(const std::string& dir,
                              const std::string& trigger,
                              const std::string& detail);

}  // namespace trajpattern::obs

#endif  // TRAJPATTERN_OBS_FLIGHT_RECORDER_H_
