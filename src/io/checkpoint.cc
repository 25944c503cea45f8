#include "io/checkpoint.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "core/score_memo.h"
#include "obs/obs.h"

namespace trajpattern {
namespace {

constexpr const char* kMagicV1 = "trajpattern_checkpoint,v1";
constexpr const char* kMagicV2 = "trajpattern_checkpoint,v2";
constexpr const char* kMagicV3 = "trajpattern_checkpoint,v3";

/// Appends `v` as glibc's printf "%a" spells it: the sign, "0x", then
/// the magnitude in std::to_chars hex form ("1.8p+1", "0p+0"), or
/// "inf"/"nan".  Subnormals are the exception: to_chars normalizes them
/// ("1p-1074"), printf keeps them unnormalized at the minimum exponent
/// ("0.0000000000001p-1022"), so they are spelled from their bits.
void AppendHexDouble(std::string* out, double v) {
  if (std::signbit(v)) out->push_back('-');
  const double mag = std::abs(v);
  if (std::isinf(mag)) {
    out->append("inf");
    return;
  }
  if (std::isnan(mag)) {
    out->append("nan");
    return;
  }
  out->append("0x");
  if (mag != 0.0 && mag < std::numeric_limits<double>::min()) {
    // 52 fraction bits = 13 hex digits, trailing zeros dropped; the
    // fraction of a subnormal is non-zero, so one digit always stays.
    uint64_t fraction = std::bit_cast<uint64_t>(mag);
    char digits[13];
    for (int i = 12; i >= 0; --i, fraction >>= 4) {
      digits[i] = "0123456789abcdef"[fraction & 0xf];
    }
    size_t n = sizeof(digits);
    while (digits[n - 1] == '0') --n;
    out->append("0.");
    out->append(digits, n);
    out->append("p-1022");
    return;
  }
  char buf[32];
  const auto res =
      std::to_chars(buf, buf + sizeof(buf), mag, std::chars_format::hex);
  out->append(buf, static_cast<size_t>(res.ptr - buf));
}

template <typename Int>
void AppendInt(std::string* out, Int v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, static_cast<size_t>(res.ptr - buf));
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

void AppendCells(std::string* out, const Pattern& p) {
  for (size_t j = 0; j < p.length(); ++j) {
    if (j > 0) out->push_back(';');
    if (p[j] == kWildcardCell) {
      out->push_back('*');
    } else {
      AppendInt(out, p[j]);
    }
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
  // Rows are formatted into one reused buffer and handed to the stream
  // in chunks of about kFlushBytes: no per-field stream insertion, and
  // memory stays bounded however large the memo grows.
  constexpr size_t kFlushBytes = 1 << 16;
  std::string buf;
  buf.reserve(kFlushBytes + 4096);
  auto flush = [&](bool force) {
    if (force || buf.size() >= kFlushBytes) {
      os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  };
  auto header = [&](const char* key, int64_t value) {
    buf.append(key);
    buf.push_back(',');
    AppendInt(&buf, value);
    buf.push_back('\n');
  };
  buf.append(kMagicV2);
  buf.push_back('\n');
  header("iteration", cp.iteration);
  header("k", cp.k);
  buf.append("omega,");
  AppendHexDouble(&buf, cp.omega);
  buf.push_back('\n');
  header("candidates_evaluated", cp.candidates_evaluated);
  header("candidates_pruned", cp.candidates_pruned);
  header("scores", static_cast<int64_t>(cp.scores.size()));
  for (const ScoredPattern& sp : cp.scores) {
    AppendHexDouble(&buf, sp.nm);
    buf.push_back(',');
    AppendCells(&buf, sp.pattern);
    buf.push_back('\n');
    flush(false);
  }
  for (const auto& [key, block] : {std::pair("prev_high", &cp.prev_high),
                                   std::pair("prev_queue", &cp.prev_queue)}) {
    header(key, static_cast<int64_t>(block->size()));
    for (const Pattern& p : *block) {
      AppendCells(&buf, p);
      buf.push_back('\n');
      flush(false);
    }
  }
  buf.append("end\n");
  flush(true);
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
        "v1 and v2 are");
  }
  if (!have_header || (line != kMagicV1 && line != kMagicV2)) {
    return Status::DataLoss(
        "not a trajpattern checkpoint (bad or missing header)");
  }
  const bool v2 = line == kMagicV2;
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

  long iteration, k;
  Status s = expect_keyed_long("iteration", &iteration);
  if (!s.ok()) return s;
  s = expect_keyed_long("k", &k);
  if (!s.ok()) return s;
  if (iteration < 0 || k <= 0) {
    return reader.Error("iteration/k out of range");
  }
  out.iteration = static_cast<int>(iteration);
  out.k = static_cast<int>(k);

  if (!reader.Next(&line) || line.rfind("omega,", 0) != 0 ||
      !ParseHexDouble(line.substr(6), &out.omega)) {
    return reader.Error("expected 'omega,<hexfloat>'");
  }

  // v2 adds cumulative work counters; v1 files leave them default (0).
  if (v2) {
    long evaluated, pruned;
    Status sv = expect_keyed_long("candidates_evaluated", &evaluated);
    if (!sv.ok()) return sv;
    sv = expect_keyed_long("candidates_pruned", &pruned);
    if (!sv.ok()) return sv;
    if (evaluated < 0 || pruned < 0) {
      return reader.Error("negative work counter");
    }
    out.candidates_evaluated = evaluated;
    out.candidates_pruned = pruned;
  }

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
  out.scores.reserve(std::min(static_cast<size_t>(count), kMaxReserve));
  // Rows need not be sorted, but each pattern may appear once: resume
  // would offer a repeated row to the top-k twice.
  ScoreMemo seen;
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
    if (!seen.emplace(cells, nm)) {
      return reader.Error("repeated pattern in score block");
    }
    out.scores.push_back({Pattern(std::move(cells)), nm});
  }

  for (std::vector<Pattern>* block : {&out.prev_high, &out.prev_queue}) {
    const std::string key =
        block == &out.prev_high ? "prev_high" : "prev_queue";
    s = expect_keyed_long(key, &count);
    if (!s.ok()) return s;
    if (count < 0 || count > kMaxBlockCount) {
      return reader.Error("implausible " + key + " count");
    }
    block->reserve(std::min(static_cast<size_t>(count), kMaxReserve));
    for (long i = 0; i < count; ++i) {
      if (!reader.Next(&line)) return reader.Error("truncated " + key);
      std::vector<CellId> cells;
      if (!ParseCells(line, &cells)) return reader.Error("malformed " + key + " row");
      block->emplace_back(std::move(cells));
    }
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
