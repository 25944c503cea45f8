#include "io/checkpoint.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <span>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include "core/score_memo.h"
#include "obs/obs.h"

namespace trajpattern {
namespace {

constexpr const char* kMagic = "trajpattern_checkpoint,v5";
constexpr const char* kMagicV3 = "trajpattern_checkpoint,v3";
/// Files written before the outside-tails interval measure: their NM
/// values come from Phi(hi) - Phi(lo), which cancels above the mean.
constexpr const char* kOldMeasureMagics[] = {"trajpattern_checkpoint,v1",
                                             "trajpattern_checkpoint,v2",
                                             "trajpattern_checkpoint,v4"};

/// The longest spelling `WriteHexDouble` produces,
/// "-0x1.fffffffffffffp+1023"; of one `int32_t` cell, "-2147483648";
/// and of one `int64_t` header value.
constexpr size_t kMaxDoubleChars = 24;
constexpr size_t kMaxCellChars = 11;
constexpr size_t kMaxInt64Chars = 20;

/// The longest spelling of `n` cells, separators included.
size_t MaxCellsChars(size_t n) { return n * (kMaxCellChars + 1); }

char* WriteText(char* p, std::string_view s) {
  std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

/// Writes `v` at `p` as glibc's printf "%a" spells it, straight from its
/// bits, and returns the end: the sign, "0x", then "1." ("0." for a
/// subnormal) and the 13 fraction hex digits with trailing zeros dropped
/// (no "." when none remain), then "p" and the signed decimal exponent,
/// which is -1022 for a subnormal.  ±0 is "0x0p+0"; infinities and NaNs
/// are "inf" and "nan" after the sign.
char* WriteHexDouble(char* p, double v) {
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  const uint64_t fraction = bits & ((uint64_t{1} << 52) - 1);
  if (bits >> 63) *p++ = '-';
  if (biased == 0x7ff) return WriteText(p, fraction == 0 ? "inf" : "nan");
  p = WriteText(p, biased == 0 ? "0x0" : "0x1");
  if (fraction != 0) {
    *p++ = '.';
    const int digits = 13 - std::countr_zero(fraction) / 4;
    for (int i = 0; i < digits; ++i) {
      *p++ = "0123456789abcdef"[(fraction >> (48 - 4 * i)) & 0xf];
    }
  }
  int exponent = biased - 1023;
  if (biased == 0) exponent = fraction == 0 ? 0 : -1022;
  *p++ = 'p';
  *p++ = exponent < 0 ? '-' : '+';
  return std::to_chars(p, p + 4, std::abs(exponent)).ptr;
}

/// Writes `cells` ';'-separated, '*' for a wildcard, and returns the end.
char* WriteCells(char* p, std::span<const CellId> cells) {
  for (size_t j = 0; j < cells.size(); ++j) {
    if (j > 0) *p++ = ';';
    if (cells[j] == kWildcardCell) {
      *p++ = '*';
    } else {
      p = std::to_chars(p, p + kMaxCellChars, cells[j]).ptr;
    }
  }
  return p;
}

bool ParseHexDouble(const std::string& s, double* v) {
  if (s.empty()) return false;
  char* end = nullptr;
  *v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  // strtod happily parses "nan"/"nan(0x...)", but no real run ever
  // writes one (NM values are finite or -inf) and a NaN smuggled in by
  // corruption would poison every ω comparison after resume — reject it
  // here at the trust boundary.  -inf stays accepted: it is the genuine
  // initial ω.
  return !std::isnan(*v);
}

bool ParseLong(const std::string& s, long* v) {
  try {
    size_t pos = 0;
    *v = std::stol(s, &pos);
    return pos == s.size();
  } catch (...) {
    return false;
  }
}

bool ParseCells(const std::string& field, std::vector<CellId>* cells) {
  // A trailing ';' means a cell went missing in transit — corrupt, not a
  // formatting nicety to paper over.
  if (field.empty() || field.back() == ';') return false;
  std::string cell;
  std::istringstream cs(field);
  while (std::getline(cs, cell, ';')) {
    if (cell == "*") {
      cells->push_back(kWildcardCell);
    } else {
      long v;
      // Only '*' may stand for a non-grid position: a negative or
      // CellId-overflowing value would index out of the engine's cell
      // tables after resume, so it is rejected here, at the trust
      // boundary.
      if (!ParseLong(cell, &v) || v < 0 ||
          v > std::numeric_limits<CellId>::max()) {
        return false;
      }
      cells->push_back(static_cast<CellId>(v));
    }
  }
  return !cells->empty();
}

/// "key,value" line reader that tracks line numbers for diagnostics.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  bool Next(std::string* line) {
    if (!std::getline(is_, *line)) return false;
    ++line_number_;
    return true;
  }

  size_t line_number() const { return line_number_; }

  Status Error(const std::string& what) const {
    return Status::DataLoss("checkpoint line " +
                            std::to_string(line_number_) + ": " + what);
  }

 private:
  std::istream& is_;
  size_t line_number_ = 0;
};

}  // namespace

Status WriteMinerCheckpoint(const MinerCheckpoint& cp, std::ostream& os) {
  TP_TRACE_SPAN("checkpoint/write");
  TP_COUNTER_INC("checkpoint.writes");
  // Each line is formatted in place, through a pointer into one chunk
  // buffer that has room for the line's longest spelling.  The chunk
  // goes to the stream whenever the next line might not fit, so memory
  // stays bounded however large the memo grows.
  constexpr size_t kChunkBytes = 1 << 16;
  std::vector<char> chunk(kChunkBytes);
  size_t used = 0;
  auto flush = [&] {
    os.write(chunk.data(), static_cast<std::streamsize>(used));
    used = 0;
  };
  // Appends one line: `format(p)` writes at most `max_chars` bytes at p
  // and returns their end; the newline follows.
  auto line = [&](size_t max_chars, auto&& format) {
    if (used + max_chars + 1 > chunk.size()) {
      flush();
      if (max_chars + 1 > chunk.size()) chunk.resize(max_chars + 1);
    }
    char* const end = format(chunk.data() + used);
    *end = '\n';
    used = static_cast<size_t>(end + 1 - chunk.data());
  };
  auto text_line = [&](std::string_view text) {
    line(text.size(), [&](char* p) { return WriteText(p, text); });
  };
  auto header = [&](std::string_view key, int64_t value) {
    line(key.size() + 1 + kMaxInt64Chars, [&](char* p) {
      p = WriteText(p, key);
      *p++ = ',';
      return std::to_chars(p, p + kMaxInt64Chars, value).ptr;
    });
  };
  auto cells_line = [&](std::span<const CellId> cells) {
    line(MaxCellsChars(cells.size()),
         [&](char* p) { return WriteCells(p, cells); });
  };
  text_line(kMagic);
  header("iteration", cp.iteration);
  header("k", cp.k);
  line(std::strlen("omega,") + kMaxDoubleChars, [&](char* p) {
    return WriteHexDouble(WriteText(p, "omega,"), cp.omega);
  });
  header("candidates_evaluated", cp.candidates_evaluated);
  header("candidates_pruned", cp.candidates_pruned);
  header("beam_capped", cp.hit_candidate_cap ? 1 : 0);
  // Rows in memo id order, so a resumed run's memo gets the same ids.
  header("scores", static_cast<int64_t>(cp.scores.size()));
  for (ScoreMemo::Id id = 0; id < cp.scores.size(); ++id) {
    const std::span<const CellId> cells = cp.scores.cells(id);
    line(kMaxDoubleChars + 1 + MaxCellsChars(cells.size()), [&](char* p) {
      p = WriteHexDouble(p, cp.scores.nm(id));
      *p++ = ',';
      return WriteCells(p, cells);
    });
  }
  header("prev_high", static_cast<int64_t>(cp.prev_high.size()));
  for (const ScoreMemo::Id id : cp.prev_high) cells_line(cp.scores.cells(id));
  header("prev_queue", static_cast<int64_t>(cp.prev_queue.size()));
  for (const ScoreMemo::Id id : cp.prev_queue) cells_line(cp.scores.cells(id));
  text_line("end");
  flush();
  if (!os) return Status::DataLoss("checkpoint stream write failed");
  return Status::Ok();
}

Status ReadMinerCheckpoint(std::istream& is, MinerCheckpoint* cp) {
  TP_TRACE_SPAN("checkpoint/read");
  TP_COUNTER_INC("checkpoint.reads");
  // Parse into a local and publish only on success: a caller whose read
  // fails must be left with a default checkpoint, not a half-loaded one.
  MinerCheckpoint out;
  LineReader reader(is);
  std::string line;
  const bool have_header = reader.Next(&line);
  if (have_header && line == kMagicV3) {
    // v3 files hold sharded runs, which nothing here can resume: say
    // so rather than report a bad header.
    return Status::FailedPrecondition(
        "checkpoint format v3 (a sharded run) is no longer supported; "
        "only v5 is");
  }
  for (const char* old_measure : kOldMeasureMagics) {
    if (have_header && line == old_measure) {
      // A resumed run would mix these NM values with the new measure's.
      return Status::FailedPrecondition(
          "checkpoint format " + line.substr(line.find(',') + 1) +
          " holds NM values of the old interval measure Phi(hi) - "
          "Phi(lo), which the outside-tails measure replaced; only v5 "
          "checkpoints resume: rerun without this checkpoint");
    }
  }
  if (!have_header || line != kMagic) {
    return Status::DataLoss(
        "not a trajpattern checkpoint (bad or missing header)");
  }
  // Fixed "key,count-or-value" headers followed by their payload blocks.
  auto expect_keyed_long = [&](const std::string& key, long* value) {
    if (!reader.Next(&line)) return reader.Error("truncated before " + key);
    const size_t comma = line.find(',');
    if (comma == std::string::npos || line.substr(0, comma) != key) {
      return reader.Error("expected '" + key + ",<n>'");
    }
    if (!ParseLong(line.substr(comma + 1), value)) {
      return reader.Error("malformed count for " + key);
    }
    return Status::Ok();
  };

  // Both are `int`s in memory: a value past INT_MAX would wrap in the
  // cast, and a corrupt k could then pass the supervisor's k check.
  auto expect_keyed_int = [&](const std::string& key, long min, int* value) {
    long v;
    const Status sv = expect_keyed_long(key, &v);
    if (!sv.ok()) return sv;
    if (v < min || v > std::numeric_limits<int>::max()) {
      return reader.Error(key + " out of range");
    }
    *value = static_cast<int>(v);
    return Status::Ok();
  };
  Status s = expect_keyed_int("iteration", 0, &out.iteration);
  if (!s.ok()) return s;
  s = expect_keyed_int("k", 1, &out.k);
  if (!s.ok()) return s;

  if (!reader.Next(&line) || line.rfind("omega,", 0) != 0 ||
      !ParseHexDouble(line.substr(6), &out.omega)) {
    return reader.Error("expected 'omega,<hexfloat>'");
  }

  long evaluated, pruned, capped;
  s = expect_keyed_long("candidates_evaluated", &evaluated);
  if (!s.ok()) return s;
  s = expect_keyed_long("candidates_pruned", &pruned);
  if (!s.ok()) return s;
  if (evaluated < 0 || pruned < 0) {
    return reader.Error("negative work counter");
  }
  out.candidates_evaluated = evaluated;
  out.candidates_pruned = pruned;
  s = expect_keyed_long("beam_capped", &capped);
  if (!s.ok()) return s;
  if (capped != 0 && capped != 1) {
    return reader.Error("beam_capped is not 0 or 1");
  }
  out.hit_candidate_cap = capped == 1;

  // Block counts come from the (possibly corrupt) file: reserving them
  // verbatim would turn one flipped digit into an allocation bomb
  // (std::bad_alloc escaping instead of a typed Status).  Counts are
  // bounded by what a real mining run can write, and reservation is
  // additionally capped — an overstated count then fails the truncation
  // check line by line instead of up front in the allocator.
  constexpr long kMaxBlockCount = 100000000;  // 10^8 rows ≈ tens of GB
  constexpr size_t kMaxReserve = 1 << 20;

  long count;
  s = expect_keyed_long("scores", &count);
  if (!s.ok()) return s;
  if (count < 0 || count > kMaxBlockCount) {
    return reader.Error("implausible scores count");
  }
  // Rows need not be sorted, but each pattern may appear once: resume
  // would offer a repeated row to the top-k twice.  Rows become memo
  // entries in file order.
  for (long i = 0; i < count; ++i) {
    if (!reader.Next(&line)) return reader.Error("truncated score block");
    const size_t comma = line.find(',');
    if (comma == std::string::npos) return reader.Error("score row needs nm,cells");
    double nm;
    std::vector<CellId> cells;
    if (!ParseHexDouble(line.substr(0, comma), &nm) ||
        !ParseCells(line.substr(comma + 1), &cells)) {
      return reader.Error("malformed score row");
    }
    if (!out.scores.emplace(cells, nm)) {
      return reader.Error("repeated pattern in score block");
    }
  }

  // Each frontier row names a memo entry: the miner's frontier lists are
  // memo ids.  They load sorted and deduplicated, so row order stays
  // outside the format.
  for (std::vector<ScoreMemo::Id>* ids : {&out.prev_high, &out.prev_queue}) {
    const std::string key = ids == &out.prev_high ? "prev_high" : "prev_queue";
    s = expect_keyed_long(key, &count);
    if (!s.ok()) return s;
    if (count < 0 || count > kMaxBlockCount) {
      return reader.Error("implausible " + key + " count");
    }
    ids->reserve(std::min(static_cast<size_t>(count), kMaxReserve));
    for (long i = 0; i < count; ++i) {
      if (!reader.Next(&line)) return reader.Error("truncated " + key);
      std::vector<CellId> cells;
      if (!ParseCells(line, &cells)) return reader.Error("malformed " + key + " row");
      const ScoreMemo::Id id = out.scores.FindId(cells);
      if (id == ScoreMemo::kNoId) {
        return reader.Error(key + " row is not a score row");
      }
      ids->push_back(id);
    }
    std::sort(ids->begin(), ids->end());
    ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
  }

  if (!reader.Next(&line) || line != "end") {
    return reader.Error("missing 'end' trailer (truncated checkpoint)");
  }
  *cp = std::move(out);
  return Status::Ok();
}

Status WriteMinerCheckpointFile(const MinerCheckpoint& cp,
                                const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) return Status::NotFound("cannot open " + tmp + " for writing");
    const Status s = WriteMinerCheckpoint(cp, os);
    if (!s.ok()) return s;
    os.flush();
    if (!os) return Status::DataLoss("flush failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::DataLoss("cannot rename " + tmp + " over " + path);
  }
  return Status::Ok();
}

Status ReadMinerCheckpointFile(const std::string& path, MinerCheckpoint* cp) {
  std::ifstream is(path);
  if (!is) return Status::NotFound("cannot open " + path);
  return ReadMinerCheckpoint(is, cp);
}

}  // namespace trajpattern
