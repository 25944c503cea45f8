#include "io/csv.h"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <unordered_set>
#include <vector>

namespace trajpattern {
namespace {

bool Fail(CsvDiagnostic* diag, size_t line, const std::string& message) {
  if (diag != nullptr) {
    diag->line = line;
    diag->message = message;
  }
  return false;
}

std::vector<std::string> SplitComma(const std::string& line) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream is(line);
  while (std::getline(is, field, ',')) out.push_back(field);
  return out;
}

bool ParseDouble(const std::string& s, double* v) {
  try {
    size_t pos = 0;
    *v = std::stod(s, &pos);
    return pos == s.size();
  } catch (...) {
    return false;
  }
}

bool ParseInt(const std::string& s, long* v) {
  try {
    size_t pos = 0;
    *v = std::stol(s, &pos);
    return pos == s.size();
  } catch (...) {
    return false;
  }
}

}  // namespace

void WriteTrajectoriesCsv(const TrajectoryDataset& data, std::ostream& os) {
  os << "traj_id,snapshot,x,y,sigma\n";
  os << std::setprecision(17);
  for (const auto& t : data) {
    for (size_t s = 0; s < t.size(); ++s) {
      os << t.id() << "," << s << "," << t[s].mean.x << "," << t[s].mean.y
         << "," << t[s].sigma << "\n";
    }
  }
}

bool ReadTrajectoriesCsv(std::istream& is, TrajectoryDataset* out,
                         CsvDiagnostic* diag) {
  *out = TrajectoryDataset();
  std::string line;
  if (!std::getline(is, line)) return Fail(diag, 0, "empty stream (no header)");
  size_t line_no = 1;
  Trajectory current;
  bool have_current = false;
  std::unordered_set<std::string> started;  // ids of every row group so far
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = SplitComma(line);
    if (fields.size() != 5) {
      return Fail(diag, line_no, "expected 5 fields, got " +
                                     std::to_string(fields.size()));
    }
    double x, y, sigma;
    long snapshot;
    if (!ParseInt(fields[1], &snapshot) || !ParseDouble(fields[2], &x) ||
        !ParseDouble(fields[3], &y) || !ParseDouble(fields[4], &sigma)) {
      return Fail(diag, line_no, "malformed numeric field");
    }
    if (!std::isfinite(x) || !std::isfinite(y)) {
      return Fail(diag, line_no, "non-finite coordinate");
    }
    if (!std::isfinite(sigma) || sigma <= 0.0) {
      return Fail(diag, line_no, "sigma must be finite and > 0");
    }
    if (!have_current || fields[0] != current.id()) {
      if (!started.insert(fields[0]).second) {
        return Fail(diag, line_no,
                    "trajectory " + fields[0] +
                        " returns after another trajectory's rows; rows "
                        "must be grouped by trajectory");
      }
      if (have_current) out->Add(std::move(current));
      current = Trajectory(fields[0]);
      have_current = true;
    }
    if (snapshot != static_cast<long>(current.size())) {
      return Fail(diag, line_no,
                  "snapshot " + fields[1] + " of trajectory " + fields[0] +
                      " should be " + std::to_string(current.size()) +
                      " (its position in the trajectory)");
    }
    current.Append(Point2(x, y), sigma);
  }
  if (have_current) out->Add(std::move(current));
  return true;
}

bool WriteTrajectoriesCsvFile(const TrajectoryDataset& data,
                              const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  WriteTrajectoriesCsv(data, os);
  return static_cast<bool>(os);
}

bool ReadTrajectoriesCsvFile(const std::string& path, TrajectoryDataset* out,
                             CsvDiagnostic* diag) {
  std::ifstream is(path);
  if (!is) return Fail(diag, 0, "cannot open " + path);
  return ReadTrajectoriesCsv(is, out, diag);
}

void WritePatternsCsv(const std::vector<ScoredPattern>& patterns,
                      std::ostream& os) {
  os << "rank,nm,length,cells\n";
  os << std::setprecision(17);
  for (size_t i = 0; i < patterns.size(); ++i) {
    const auto& sp = patterns[i];
    os << i + 1 << "," << sp.nm << "," << sp.pattern.length() << ",";
    for (size_t j = 0; j < sp.pattern.length(); ++j) {
      if (j > 0) os << ";";
      if (sp.pattern[j] == kWildcardCell) {
        os << "*";
      } else {
        os << sp.pattern[j];
      }
    }
    os << "\n";
  }
}

namespace {

void WriteCells(const Pattern& p, std::ostream& os) {
  for (size_t j = 0; j < p.length(); ++j) {
    if (j > 0) os << ";";
    if (p[j] == kWildcardCell) {
      os << "*";
    } else {
      os << p[j];
    }
  }
}

bool ParseCells(const std::string& field, std::vector<CellId>* cells) {
  std::string cell;
  std::istringstream cs(field);
  while (std::getline(cs, cell, ';')) {
    if (cell == "*") {
      cells->push_back(kWildcardCell);
    } else {
      long v;
      if (!ParseInt(cell, &v)) return false;
      cells->push_back(static_cast<CellId>(v));
    }
  }
  return true;
}

}  // namespace

void WritePatternGroupsCsv(const std::vector<PatternGroup>& groups,
                           std::ostream& os) {
  os << "group,member,nm,length,cells\n";
  os << std::setprecision(17);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (size_t m = 0; m < groups[g].members.size(); ++m) {
      const auto& sp = groups[g].members[m];
      os << g + 1 << "," << m + 1 << "," << sp.nm << ","
         << sp.pattern.length() << ",";
      WriteCells(sp.pattern, os);
      os << "\n";
    }
  }
}

bool ReadPatternGroupsCsv(std::istream& is, std::vector<PatternGroup>* out,
                          CsvDiagnostic* diag) {
  out->clear();
  std::string line;
  if (!std::getline(is, line)) return Fail(diag, 0, "empty stream (no header)");
  size_t line_no = 1;
  long last_group = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = SplitComma(line);
    if (fields.size() != 5) {
      return Fail(diag, line_no, "expected 5 fields, got " +
                                     std::to_string(fields.size()));
    }
    long group;
    double nm;
    if (!ParseInt(fields[0], &group) || !ParseDouble(fields[2], &nm)) {
      return Fail(diag, line_no, "malformed numeric field");
    }
    if (std::isnan(nm) || nm == std::numeric_limits<double>::infinity()) {
      return Fail(diag, line_no, "non-finite nm");
    }
    // Groups must be contiguous and 1-based in order.
    if (group != last_group && group != last_group + 1) {
      return Fail(diag, line_no, "group ids must be contiguous and 1-based");
    }
    if (group == last_group + 1) {
      out->emplace_back();
      last_group = group;
    }
    std::vector<CellId> cells;
    if (!ParseCells(fields[4], &cells)) {
      return Fail(diag, line_no, "malformed cell list");
    }
    out->back().members.push_back({Pattern(std::move(cells)), nm});
  }
  return true;
}

bool ReadPatternsCsv(std::istream& is, std::vector<ScoredPattern>* out,
                     CsvDiagnostic* diag) {
  out->clear();
  std::string line;
  if (!std::getline(is, line)) return Fail(diag, 0, "empty stream (no header)");
  size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = SplitComma(line);
    if (fields.size() != 4) {
      return Fail(diag, line_no, "expected 4 fields, got " +
                                     std::to_string(fields.size()));
    }
    double nm;
    if (!ParseDouble(fields[1], &nm)) {
      return Fail(diag, line_no, "malformed nm field");
    }
    if (std::isnan(nm) || nm == std::numeric_limits<double>::infinity()) {
      return Fail(diag, line_no, "non-finite nm");
    }
    std::vector<CellId> cells;
    if (!ParseCells(fields[3], &cells)) {
      return Fail(diag, line_no, "malformed cell list");
    }
    out->push_back({Pattern(std::move(cells)), nm});
  }
  return true;
}

}  // namespace trajpattern
