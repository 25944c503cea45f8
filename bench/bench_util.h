#ifndef TRAJPATTERN_BENCH_BENCH_UTIL_H_
#define TRAJPATTERN_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/miner.h"
#include "core/nm_engine.h"
#include "datagen/zebranet_generator.h"
#include "geometry/grid.h"
#include "io/flags.h"
#include "io/obs_flags.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "stats/timer.h"

namespace trajpattern::bench {

/// Structured JSON emitter for the BENCH_*.json artifacts.  Replaces the
/// benches' hand-rolled fprintf blocks: commas and indentation are
/// tracked per nesting level, so adding a field cannot produce invalid
/// JSON, and every artifact can be stamped with the metrics-registry
/// snapshot through one code path (StampMetrics below).
class JsonWriter {
 public:
  JsonWriter& BeginObject() { OpenContainer('{'); return *this; }
  JsonWriter& EndObject() { CloseContainer('}'); return *this; }
  JsonWriter& BeginArray() { OpenContainer('['); return *this; }
  JsonWriter& EndArray() { CloseContainer(']'); return *this; }

  JsonWriter& Key(const std::string& k) {
    NextItem();
    obs::AppendEscaped(k, &out_);
    out_ += ": ";
    pending_key_ = true;
    return *this;
  }

  JsonWriter& Str(const std::string& v) { NextItem(); obs::AppendEscaped(v, &out_); return *this; }
  JsonWriter& Bool(bool v) { NextItem(); out_ += v ? "true" : "false"; return *this; }
  JsonWriter& Int(long long v) { return Fmt("%lld", v); }
  JsonWriter& UInt(unsigned long long v) { return Fmt("%llu", v); }
  /// Fixed-point double, default 6 decimals (the committed artifacts'
  /// precision for seconds).  Non-finite values become null.
  JsonWriter& Double(double v, int decimals = 6) {
    if (!std::isfinite(v)) { NextItem(); out_ += "null"; return *this; }
    return Fmt("%.*f", decimals, v);
  }
  /// Shortest-round-trip double (for exact thresholds such as omega).
  JsonWriter& DoubleExact(double v) {
    if (!std::isfinite(v)) { NextItem(); out_ += "null"; return *this; }
    return Fmt("%.17g", v);
  }
  /// Splices an already-serialized JSON value (e.g. obs::ToJson output).
  JsonWriter& Raw(const std::string& json) { NextItem(); out_ += json; return *this; }

  const std::string& str() const { return out_; }

  /// Writes the (finished) document to `path`, with a trailing newline.
  bool WriteFile(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const bool ok = std::fputs(out_.c_str(), f) >= 0 && std::fputc('\n', f) != EOF;
    return std::fclose(f) == 0 && ok;
  }

 private:
  template <typename... Args>
  JsonWriter& Fmt(const char* fmt, Args... args) {
    NextItem();
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    out_ += buf;
    return *this;
  }

  void OpenContainer(char open) {
    NextItem();
    out_ += open;
    depth_.push_back(0);
  }

  void CloseContainer(char close) {
    const bool had_items = !depth_.empty() && depth_.back() > 0;
    if (!depth_.empty()) depth_.pop_back();
    if (had_items) Newline();
    out_ += close;
  }

  /// Comma/indent bookkeeping shared by every value append.  A value
  /// directly after Key() continues that line; everything else starts
  /// one, comma-separated from its predecessor.
  void NextItem() {
    if (pending_key_) {
      pending_key_ = false;
      return;
    }
    if (depth_.empty()) return;  // top-level value
    if (depth_.back() > 0) out_ += ',';
    ++depth_.back();
    Newline();
  }

  void Newline() {
    out_ += '\n';
    out_.append(2 * depth_.size(), ' ');
  }

  std::string out_;
  std::vector<int> depth_;
  bool pending_key_ = false;
};

/// Stamps the process-wide metrics snapshot into the artifact being
/// built, as a top-level `"metrics"` member.  With TRAJPATTERN_OBS=OFF
/// the snapshot is empty but the key is still present, so downstream
/// readers see one schema.
inline void StampMetrics(JsonWriter* w) {
  w->Key("metrics").Raw(
      obs::ToJson(obs::MetricsRegistry::Global().Snapshot()));
}

/// Stamps the run's observability artifact paths into the JSON, as a
/// top-level `"obs_artifacts"` member: which journal/trace/metrics files
/// this bench run produced, so a result can be replayed against its own
/// run journal.  Keys are always present ("" = not requested) so
/// downstream readers see one schema; the journal path is taken from the
/// live journal when it is streaming (it knows the actual open path).
inline void StampObsArtifacts(JsonWriter* w, const ObsOptions& o) {
  const std::string live = obs::RunJournal::Global().path();
  w->Key("obs_artifacts").BeginObject();
  w->Key("journal").Str(live.empty() ? o.journal_path : live);
  w->Key("trace").Str(o.trace_path);
  w->Key("metrics").Str(o.metrics_path);
  w->Key("metrics_prom").Str(o.metrics_prometheus_path);
  w->EndObject();
}

/// Default location for a bench's JSON artifact: the repo root (injected
/// by the build as TRAJPATTERN_BENCH_OUTPUT_DIR) so committed perf
/// results sit next to the code, not inside the gitignored build tree.
/// Falls back to the working directory when built standalone.
inline std::string DefaultJsonPath(const std::string& filename) {
#ifdef TRAJPATTERN_BENCH_OUTPUT_DIR
  return std::string(TRAJPATTERN_BENCH_OUTPUT_DIR) + "/" + filename;
#else
  return filename;
#endif
}

/// Real hardware concurrency as the standard library reports it: 0 means
/// "unknown" and is preserved.  `ResolveThreadCount(0)` folds unknown to
/// 1 — the right pool size, but the wrong thing to *report* as the
/// machine's shape, which is what the BENCH artifacts need.
inline int HardwareThreads() {
  return static_cast<int>(std::thread::hardware_concurrency());
}

/// "" when every entry of `threads_list` fits the machine; otherwise a
/// warning for the console and the JSON artifact — rows that oversubscribe
/// the hardware measure scheduler time-slicing, not parallel speedup, and
/// an artifact that does not say so misreads as a scaling regression.
inline std::string OversubscriptionWarning(const std::vector<int>& threads_list) {
  const int hw = HardwareThreads();
  if (hw == 0) {
    return "hardware concurrency unknown; thread-sweep speedups are not "
           "interpretable as scaling";
  }
  int worst = 0;
  for (int t : threads_list) worst = std::max(worst, t);
  if (worst <= hw) return "";
  return "thread sweep requests " + std::to_string(worst) + " workers but "
         "the machine has " + std::to_string(hw) +
         " hardware threads; oversubscribed rows measure time-slicing, "
         "not parallel speedup";
}

/// One row of a clamped thread sweep.
struct ThreadSweepRow {
  int threads = 1;
  /// True iff the row asks for more workers than the machine has (or the
  /// machine's shape is unknown): it measures scheduler time-slicing, not
  /// parallel speedup, and downstream tooling filters it from scaling
  /// plots.
  bool oversubscribed = false;
};

/// Clamps a thread sweep to the machine.  The default sweeps
/// (1/2/4/8-style) silently drop rows beyond `hardware_threads`, so a
/// 1-core CI runner emits the serial row plus whatever parallel rows it
/// can actually run — not 2/4/8-thread rows that misread as a scaling
/// regression.  An *explicit* `--threads_list` keeps every requested row
/// (deliberate oversubscription is a valid experiment) but flags the
/// oversubscribed ones.  At least the serial row always survives.
inline std::vector<ThreadSweepRow> ClampThreadSweep(
    const std::vector<int>& requested, bool explicit_list) {
  const int hw = HardwareThreads();
  const int capacity = hw > 0 ? hw : 1;  // unknown shape: trust serial only
  std::vector<ThreadSweepRow> out;
  for (int t : requested) {
    if (t < 1) continue;
    const bool over = t > capacity;
    if (over && !explicit_list) continue;
    out.push_back({t, over});
  }
  if (out.empty()) out.push_back({1, false});
  return out;
}

/// Shared knobs of the Fig. 4 scalability experiments: a ZebraNet-style
/// workload mined over an `g x g` grid.  Defaults are sized so the whole
/// suite completes on a small machine; pass --scale=N (or per-flag
/// overrides) for larger runs.
struct Fig4Config {
  int num_trajectories = 60;   // S
  int avg_length = 40;         // L
  int grid_side = 10;          // sqrt(G)
  int k = 10;
  int max_pattern_length = 4;  // shared depth bound (PB requires one)
  double delta = 0.0;          // 0 = one cell pitch
  double sigma = 0.006;
  uint64_t seed = 1;
  int threads = 1;             // scoring workers (0 = hardware)
};

inline Fig4Config ParseFig4Config(const Flags& flags) {
  Fig4Config c;
  const double scale = flags.GetDouble("scale", 1.0);
  c.num_trajectories =
      flags.GetInt("s", static_cast<int>(c.num_trajectories * scale));
  c.avg_length = flags.GetInt("l", c.avg_length);
  c.grid_side = flags.GetInt("g", c.grid_side);
  c.k = flags.GetInt("k", c.k);
  c.max_pattern_length = flags.GetInt("max_len", c.max_pattern_length);
  c.delta = flags.GetDouble("delta", c.delta);
  c.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  c.threads = flags.GetInt("threads", c.threads);
  return c;
}

inline TrajectoryDataset MakeZebraData(const Fig4Config& c) {
  ZebraNetGeneratorOptions opt;
  opt.num_zebras = c.num_trajectories;
  opt.num_groups = std::max(2, c.num_trajectories / 10);
  opt.num_snapshots = c.avg_length;
  opt.sigma = c.sigma;
  opt.seed = c.seed;
  return GenerateZebraNet(opt);
}

inline MiningSpace MakeSpace(const Fig4Config& c) {
  const Grid grid = Grid::UnitSquare(c.grid_side);
  const double delta =
      c.delta > 0.0 ? c.delta
                    : std::max(grid.cell_width(), grid.cell_height());
  return MiningSpace(grid, delta);
}

inline MinerOptions MakeMinerOptions(const Fig4Config& c) {
  MinerOptions opt;
  opt.k = c.k;
  opt.max_pattern_length = static_cast<size_t>(c.max_pattern_length);
  opt.num_threads = c.threads;  // batch-scoring workers; answer-invariant
  return opt;
}

}  // namespace trajpattern::bench

#endif  // TRAJPATTERN_BENCH_BENCH_UTIL_H_
