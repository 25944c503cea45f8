#include "obs/journal.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace trajpattern::obs {
namespace {

/// Finished runs retained in the run table after newer runs start (the
/// supervisor's restart attempts show up as a short history here).
constexpr size_t kFinishedRunRetention = 8;

void AppendField(const char* key, const std::string& rendered,
                 std::string* out) {
  *out += ", \"";
  *out += key;
  *out += "\": ";
  *out += rendered;
}

std::string Int64(int64_t v) { return std::to_string(v); }

/// Exact round-trip double; non-finite becomes null so every line is
/// strict JSON (ω starts at -inf).
std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

const char* JournalEventTypeName(JournalEventType t) {
  switch (t) {
    case JournalEventType::kRunStarted: return "run_started";
    case JournalEventType::kRoundCommitted: return "round_committed";
    case JournalEventType::kOmegaTightened: return "omega_tightened";
    case JournalEventType::kCheckpointWritten: return "checkpoint_written";
    case JournalEventType::kCellsEvicted: return "cells_evicted";
    case JournalEventType::kRunStopped: return "run_stopped";
    case JournalEventType::kSupervisorRestart: return "supervisor_restart";
    case JournalEventType::kFlightDump: return "flight_dump";
  }
  return "unknown";
}

void AppendEscaped(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendRunSnapshotJson(const RunSnapshot& s, std::string* out) {
  *out += "{\"run_id\": " + Int64(s.run_id);
  AppendField("active", s.active ? "true" : "false", out);
  AppendField("k", Int64(s.k), out);
  AppendField("resumed", s.resumed ? "true" : "false", out);
  AppendField("iteration", Int64(s.iteration), out);
  AppendField("omega", Num(s.omega), out);
  AppendField("candidates_evaluated", Int64(s.candidates_evaluated), out);
  AppendField("candidates_pruned", Int64(s.candidates_pruned), out);
  AppendField("frontier_depth", Int64(s.frontier_depth), out);
  AppendField("cells_evicted", Int64(s.cells_evicted), out);
  AppendField("last_seq", Int64(static_cast<int64_t>(s.last_seq)), out);
  AppendField("age_ms", Num(s.age_ms), out);
  AppendField("checkpoint_age_ms", Num(s.checkpoint_age_ms), out);
  std::string quoted;
  AppendEscaped(s.stop_reason, &quoted);
  AppendField("stop_reason", quoted, out);
  *out += "}";
}

RunJournal& RunJournal::Global() {
  static RunJournal* const journal = new RunJournal();
  return *journal;
}

bool RunJournal::Open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_ != nullptr) {
    std::fclose(out_);
    out_ = nullptr;
    path_.clear();
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  out_ = f;
  path_ = path;
  active_.store(true, std::memory_order_relaxed);
  return true;
}

void RunJournal::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_ != nullptr) {
    std::fclose(out_);
    out_ = nullptr;
    path_.clear();
  }
  if (!live_tracking_) active_.store(false, std::memory_order_relaxed);
}

void RunJournal::EnableLiveTracking() {
  std::lock_guard<std::mutex> lock(mu_);
  live_tracking_ = true;
  active_.store(true, std::memory_order_relaxed);
}

RunJournal::RunState* RunJournal::FindRun(int64_t run_id) {
  for (auto it = runs_.rbegin(); it != runs_.rend(); ++it) {
    if (it->snap.run_id == run_id) return &*it;
  }
  return nullptr;
}

int64_t RunJournal::BeginRun(int k, bool resumed) {
  if (!active()) return 0;
  int64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_run_id_++;
    // Retention: finished runs beyond the cap make room for the new one;
    // active runs are never dropped (a wedged run must stay inspectable).
    size_t finished = 0;
    for (const RunState& r : runs_) finished += r.snap.active ? 0 : 1;
    for (auto it = runs_.begin();
         finished > kFinishedRunRetention && it != runs_.end();) {
      if (!it->snap.active) {
        it = runs_.erase(it);
        --finished;
      } else {
        ++it;
      }
    }
    RunState state;
    state.snap.run_id = id;
    state.snap.active = true;
    state.snap.k = k;
    state.snap.resumed = resumed;
    state.started = std::chrono::steady_clock::now();
    runs_.push_back(std::move(state));
  }
  JournalEvent e;
  e.type = JournalEventType::kRunStarted;
  e.run_id = id;
  e.k = k;
  if (resumed) e.detail = "resumed";
  Emit(e);
  return id;
}

std::string RunJournal::FormatLine(const JournalEvent& e, uint64_t seq,
                                   double ts_ms) const {
  std::string line = "{\"seq\": " + std::to_string(seq);
  AppendField("ts_ms", Num(ts_ms), &line);
  std::string type_quoted;
  AppendEscaped(JournalEventTypeName(e.type), &type_quoted);
  AppendField("event", type_quoted, &line);
  if (e.run_id > 0) AppendField("run_id", Int64(e.run_id), &line);
  if (e.iteration >= 0) AppendField("iteration", Int64(e.iteration), &line);
  if (!std::isnan(e.omega)) AppendField("omega", Num(e.omega), &line);
  if (e.candidates_evaluated >= 0) {
    AppendField("evaluated", Int64(e.candidates_evaluated), &line);
  }
  if (e.candidates_pruned >= 0) {
    AppendField("pruned", Int64(e.candidates_pruned), &line);
  }
  if (e.frontier_depth >= 0) {
    AppendField("frontier", Int64(e.frontier_depth), &line);
  }
  if (e.cells_evicted >= 0) {
    AppendField("evicted", Int64(e.cells_evicted), &line);
  }
  if (e.k >= 0) AppendField("k", Int64(e.k), &line);
  if (e.stop_reason != nullptr) {
    std::string quoted;
    AppendEscaped(e.stop_reason, &quoted);
    AppendField("stop_reason", quoted, &line);
  }
  if (!e.detail.empty()) {
    std::string quoted;
    AppendEscaped(e.detail, &quoted);
    AppendField("detail", quoted, &line);
  }
  line += "}";
  return line;
}

void RunJournal::Emit(const JournalEvent& e) {
  if (!active()) return;
  const auto now = std::chrono::steady_clock::now();
  const double ts_ms =
      std::chrono::duration<double, std::milli>(now - epoch_).count();
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t seq = ++seq_;
  const std::string line = FormatLine(e, seq, ts_ms);
  if (out_ != nullptr) {
    std::fputs(line.c_str(), out_);
    std::fputc('\n', out_);
    // One flush per boundary event: the journal is the crash evidence,
    // so it must be complete up to the last boundary when the process
    // dies without unwinding.
    std::fflush(out_);
  }
  ring_.push_back(line);
  while (ring_.size() > kRingCapacity) ring_.pop_front();

  RunState* run = e.run_id > 0 ? FindRun(e.run_id) : nullptr;
  if (run == nullptr) return;
  RunSnapshot& s = run->snap;
  s.last_seq = seq;
  if (e.iteration >= 0) s.iteration = e.iteration;
  if (!std::isnan(e.omega)) s.omega = e.omega;
  if (e.candidates_evaluated >= 0) {
    s.candidates_evaluated = e.candidates_evaluated;
  }
  if (e.candidates_pruned >= 0) s.candidates_pruned = e.candidates_pruned;
  if (e.frontier_depth >= 0) s.frontier_depth = e.frontier_depth;
  if (e.cells_evicted >= 0) s.cells_evicted += e.cells_evicted;
  switch (e.type) {
    case JournalEventType::kCheckpointWritten:
      run->last_checkpoint = now;
      run->has_checkpoint = true;
      break;
    case JournalEventType::kRunStopped:
      s.active = false;
      if (e.stop_reason != nullptr) s.stop_reason = e.stop_reason;
      break;
    default:
      break;
  }
}

std::vector<std::string> RunJournal::TailLines(size_t max_lines) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t n = std::min(max_lines, ring_.size());
  return std::vector<std::string>(ring_.end() - static_cast<ptrdiff_t>(n),
                                  ring_.end());
}

std::vector<RunSnapshot> RunJournal::Runs() const {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RunSnapshot> out;
  out.reserve(runs_.size());
  for (const RunState& r : runs_) {
    RunSnapshot s = r.snap;
    s.age_ms =
        std::chrono::duration<double, std::milli>(now - r.started).count();
    s.checkpoint_age_ms =
        r.has_checkpoint
            ? std::chrono::duration<double, std::milli>(now -
                                                        r.last_checkpoint)
                  .count()
            : -1.0;
    out.push_back(std::move(s));
  }
  return out;
}

uint64_t RunJournal::events_emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

std::string RunJournal::path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return path_;
}

namespace {

/// Structural check that `line` is one complete JSON object: balanced
/// braces/brackets outside strings, properly closed strings, no raw
/// control characters, nothing after the closing brace.  This is what a
/// replay needs to tell "complete event" from "chopped append" without
/// a full JSON parser.
bool IsCompleteJsonObjectLine(const std::string& line) {
  if (line.empty() || line[0] != '{') return false;
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  bool closed = false;  // the top-level object has ended
  for (char c : line) {
    if (closed) {
      if (c == ' ' || c == '\t' || c == '\r') continue;
      return false;  // trailing garbage after the object
    }
    if (in_string) {
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{':
      case '[': ++depth; break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        if (depth == 0) {
          if (c != '}') return false;
          closed = true;
        }
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) return false;
    }
  }
  return closed;
}

}  // namespace

Status ReplayJournalFile(const std::string& path, JournalReplay* out) {
  *out = JournalReplay();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("journal file not found: " + path);
  }
  std::string data;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.append(buf, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::DataLoss("journal read failed: " + path);
  }

  // Split into lines, remembering whether each had its newline — a
  // crash mid-append can chop the final line anywhere, including right
  // before the '\n'.
  std::vector<std::string> raw;
  std::vector<char> terminated;
  size_t pos = 0;
  while (pos < data.size()) {
    const size_t nl = data.find('\n', pos);
    if (nl == std::string::npos) {
      raw.push_back(data.substr(pos));
      terminated.push_back(0);
      break;
    }
    raw.push_back(data.substr(pos, nl - pos));
    terminated.push_back(1);
    pos = nl + 1;
  }

  for (size_t i = 0; i < raw.size(); ++i) {
    const bool tail = i + 1 == raw.size();
    if (IsCompleteJsonObjectLine(raw[i])) {
      // A complete object missing only its newline is a crash between
      // the line write and the terminator; the event itself survived.
      out->lines.push_back(raw[i]);
      continue;
    }
    if (tail && !terminated[i]) {
      // Torn final append: expected crash evidence, skip and count.
      ++out->torn_tail_lines;
      continue;
    }
    if (tail && raw[i].empty()) {
      // "...}\n\n": a stray blank tail is noise, not corruption.
      ++out->torn_tail_lines;
      continue;
    }
    return Status::DataLoss("journal line " + std::to_string(i + 1) +
                            " is corrupt before the tail: " + path);
  }
  return Status::Ok();
}

}  // namespace trajpattern::obs
