#ifndef TRAJPATTERN_IO_CSV_H_
#define TRAJPATTERN_IO_CSV_H_

#include <iosfwd>
#include <string>

#include "core/pattern.h"
#include "core/pattern_group.h"
#include "trajectory/trajectory.h"

namespace trajpattern {

/// Where and why a CSV parse failed; filled by the readers when given.
/// `line` is 1-based (the header is line 1); 0 means the failure was not
/// tied to a specific line (e.g. an empty stream).
struct CsvDiagnostic {
  size_t line = 0;
  std::string message;
};

/// Writes `data` as CSV with header `traj_id,snapshot,x,y,sigma`, one row
/// per snapshot, snapshots in order.
void WriteTrajectoriesCsv(const TrajectoryDataset& data, std::ostream& os);

/// Parses the format produced by `WriteTrajectoriesCsv`.  Rows must be
/// grouped by trajectory, and each row's `snapshot` must be its position
/// in its trajectory (0, 1, 2, ...): an id that returns after another
/// id's rows, or a skipped, repeated or reordered snapshot, is rejected
/// rather than read as a different dataset.  So are rows with non-finite
/// coordinates or sigma <= 0 — one such snapshot would poison every NM
/// score computed through it.  Returns false and leaves `*out`
/// unspecified on malformed input; `*diag`, when given, then names the
/// offending line.
bool ReadTrajectoriesCsv(std::istream& is, TrajectoryDataset* out,
                         CsvDiagnostic* diag = nullptr);

/// Convenience file wrappers; return false on I/O or parse failure.
bool WriteTrajectoriesCsvFile(const TrajectoryDataset& data,
                              const std::string& path);
bool ReadTrajectoriesCsvFile(const std::string& path, TrajectoryDataset* out,
                             CsvDiagnostic* diag = nullptr);

/// Writes scored patterns as CSV `rank,nm,length,cells` where `cells` is a
/// ;-separated cell-id list (`*` for wildcards).
void WritePatternsCsv(const std::vector<ScoredPattern>& patterns,
                      std::ostream& os);

/// Parses the format produced by `WritePatternsCsv`.  NaN and +inf NM
/// values are rejected (NM is a sum of floored log probabilities, so it
/// can never exceed 0, let alone be NaN).
bool ReadPatternsCsv(std::istream& is, std::vector<ScoredPattern>* out,
                     CsvDiagnostic* diag = nullptr);

/// Writes pattern groups as CSV `group,member,nm,length,cells` (same
/// cell syntax as `WritePatternsCsv`), groups and members in order.
void WritePatternGroupsCsv(const std::vector<PatternGroup>& groups,
                           std::ostream& os);

/// Parses the format produced by `WritePatternGroupsCsv`.
bool ReadPatternGroupsCsv(std::istream& is, std::vector<PatternGroup>* out,
                          CsvDiagnostic* diag = nullptr);

}  // namespace trajpattern

#endif  // TRAJPATTERN_IO_CSV_H_
