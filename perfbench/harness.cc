// Benchmark harness: times the top-k answer on four workloads, driven
// only through the library's public headers under src/, and checks every
// answer bit for bit against a reference.  perfbench/run.py builds and
// drives it; see perfbench/README.md for the workloads and metrics.
//
//   perfbench_harness --mode=reference --workload=W --seed=N
//                     --reference=FILE [--size=tiny]
//   perfbench_harness --mode=measure --workload=W --seed=N --seconds=S
//                     --trace=0|1 --reference=FILE --work_dir=DIR
//                     [--spans=FILE] [--size=tiny] [--corrupt=1]
//
// `reference` mines each of the run's datasets once with the plain serial
// miner (no memory budget, no checkpoint sink), checks every score against
// a fresh engine's per-pattern NmTotal, and writes the answers as
// hexfloats.  `measure` generates the inputs, answers repeatedly for
// `--seconds`, compares every answer with the reference file, and prints
// one JSON object with the metrics as its last line of output.  With
// `--trace=1` it records a span around each call into a layer and reports
// the per-layer metrics instead of the end-to-end ones.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/miner.h"
#include "core/mining_space.h"
#include "core/nm_engine.h"
#include "core/pattern.h"
#include "core/pattern_group.h"
#include "datagen/bus_generator.h"
#include "datagen/zebranet_generator.h"
#include "geometry/grid.h"
#include "io/checkpoint.h"
#include "prob/rng.h"
#include "server/mobile_object_server.h"
#include "trajectory/trajectory.h"
#include "trajectory/transform.h"

namespace {

using namespace trajpattern;

// ---------------------------------------------------------------- clocks

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Process CPU seconds, summed over all threads.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ---------------------------------------------------------------- tracing

/// One timed call into a layer.  Spans of one answer share `answer`
/// (set-up repetition r uses -1 - r); `parent` indexes the enclosing
/// span (-1 for a root).
struct Span {
  const char* name = "";
  int answer = -1;
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span recorder; written out once, when the run ends.
class Tracer {
 public:
  int Begin(const char* name) {
    Span s;
    s.name = name;
    s.answer = answer_;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = NowNs();
    spans_.push_back(s);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int index) {
    spans_[index].end_ns = NowNs();
    open_.pop_back();
  }

  void set_answer(int answer) { answer_ = answer; }

  /// Summed duration, in seconds, of the spans named `name` in `answer`.
  double Seconds(int answer, std::string_view name) const {
    int64_t ns = 0;
    for (const Span& s : spans_) {
      if (s.answer == answer && name == s.name) ns += s.end_ns - s.start_ns;
    }
    return 1e-9 * static_cast<double>(ns);
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"answer\": " << s.answer << ", \"parent\": " << s.parent
          << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  int answer_ = -1;
};

/// Records a span while in scope; a null tracer (the untraced run)
/// records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

// ---------------------------------------------------------------- workloads

struct Workload {
  bool bus = false;
  /// Distinct datasets one run answers in turn (seeds derived from the
  /// run's seed); averaging over them keeps seed-to-seed spread low.
  int datasets = 1;
  /// Times the inputs are generated to time set-up (median reported).
  int setup_reps = 9;
  // ZebraNet (Fig. 4) inputs.
  int num_trajectories = 0;  // S
  int avg_length = 40;       // L
  int grid_side = 10;        // sqrt(G)
  // Bus fleet (§6.1) inputs.
  int routes = 5;
  int buses_per_route = 10;
  int days = 10;
  int snapshots = 100;
  int waypoint_pool = 14;
  int velocity_grid_side = 24;
  // Mining options.
  int k = 10;
  size_t min_length = 0;
  size_t max_len = 4;
  size_t beam = 0;
  int threads = 1;
  bool budget = false;
  bool checkpoint = false;
};

bool MakeWorkload(const std::string& name, bool tiny, Workload* w) {
  if (name == "zebra_scan" || name == "zebra_budget") {
    w->num_trajectories = 240;
    w->k = 10;
    w->budget = name == "zebra_budget";
    w->datasets = w->budget ? 16 : 32;
  } else if (name == "zebra_memo") {
    w->num_trajectories = 60;
    w->k = 64;
    w->datasets = 36;
    w->checkpoint = true;
  } else if (name == "bus_pipeline") {
    w->bus = true;
    w->k = 40;
    w->min_length = 3;
    w->max_len = 5;
    w->beam = 4000;
    w->threads = 2;
    w->datasets = 4;
  } else {
    return false;
  }
  if (tiny) {
    w->datasets = 2;
    w->setup_reps = 2;
    w->num_trajectories = std::min(w->num_trajectories, 30);
    w->avg_length = 20;
    w->routes = 2;
    w->buses_per_route = 3;
    w->days = 2;
    w->snapshots = 30;
    w->waypoint_pool = 6;
    w->velocity_grid_side = 8;
    w->k = std::min(w->k, 8);
    w->beam = std::min<size_t>(w->beam, 200);
  }
  return true;
}

/// A bus fleet's asynchronous location reports, in arrival order.
struct ReportEvent {
  int object = 0;
  double time = 0.0;
  Point2 location;
};

/// The inputs of one answer.  Zebra answers start from `data`; bus
/// answers start from `names` + `reports`.
struct Inputs {
  TrajectoryDataset data;
  uint64_t budget_bytes = 0;
  std::vector<std::string> names;
  std::vector<ReportEvent> reports;
};

MiningSpace ZebraSpace(const Workload& w) {
  const Grid grid = Grid::UnitSquare(w.grid_side);
  return MiningSpace(grid, std::max(grid.cell_width(), grid.cell_height()));
}

Synchronizer::Options BusSyncOptions(const Workload& w) {
  Synchronizer::Options s;
  s.start_time = 0.0;
  s.interval = 1.0;
  s.num_snapshots = w.snapshots;
  s.base_sigma = 0.005;  // the bus generator's reported sigma
  return s;
}

/// Generates one dataset's inputs (the part `setup_s` times).
Inputs MakeInputs(const Workload& w, uint64_t gen_seed, uint64_t report_seed,
                  Tracer* tracer) {
  Inputs in;
  if (!w.bus) {
    ZebraNetGeneratorOptions opt;
    opt.num_zebras = w.num_trajectories;
    opt.num_groups = std::max(2, w.num_trajectories / 10);
    opt.num_snapshots = w.avg_length;
    opt.sigma = 0.006;
    opt.seed = gen_seed;
    {
      ScopedSpan span(tracer, "datagen");
      in.data = GenerateZebraNet(opt);
    }
    if (w.budget) {
      // The peak/4 gate: a quarter of the unbudgeted arena.
      const NmEngine probe(in.data, ZebraSpace(w));
      const MinerOptions defaults;
      in.budget_bytes = probe.TouchedCells(defaults.touched_radius_sigmas)
                            .size() *
                        probe.column_bytes() / 4;
    }
    return in;
  }
  BusGeneratorOptions opt;
  opt.num_routes = w.routes;
  opt.buses_per_route = w.buses_per_route;
  opt.num_days = w.days;
  opt.num_snapshots = w.snapshots;
  opt.waypoint_pool = w.waypoint_pool;
  opt.min_waypoints = 7;
  opt.max_waypoints = 10;
  opt.seed = gen_seed;
  TrajectoryDataset traces;
  {
    ScopedSpan span(tracer, "datagen");
    traces = GenerateBusTraces(opt);
  }
  // Each bus reports every 1-3 snapshots; reports arrive in time order.
  Rng rng(report_seed);
  for (size_t b = 0; b < traces.size(); ++b) {
    in.names.push_back(traces[b].id());
    for (size_t s = 0; s < traces[b].size();
         s += static_cast<size_t>(rng.UniformInt(1, 3))) {
      in.reports.push_back({static_cast<int>(b), static_cast<double>(s),
                            traces[b][s].mean});
    }
  }
  std::stable_sort(in.reports.begin(), in.reports.end(),
                   [](const ReportEvent& a, const ReportEvent& b) {
                     return a.time < b.time;
                   });
  return in;
}

/// Per-dataset generator and report seeds, derived from the run's seed.
std::vector<std::pair<uint64_t, uint64_t>> DatasetSeeds(const Workload& w,
                                                        uint64_t seed) {
  Rng master(seed);
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (int i = 0; i < w.datasets; ++i) {
    const uint64_t gen = master.engine()();
    const uint64_t rep = master.engine()();
    out.emplace_back(gen, rep);
  }
  return out;
}

// ---------------------------------------------------------------- answers

/// What one answer produced, plus the per-layer figures of its run.
struct Answer {
  std::vector<ScoredPattern> patterns;
  size_t groups = 0;
  MinerStats stats;
  size_t arena_peak_bytes = 0;
  int64_t reports = 0;
  int64_t rejected = 0;
  int checkpoints = 0;
  uint64_t checkpoint_bytes = 0;
  bool checkpoint_ok = true;
};

struct AnswerOptions {
  bool reference = false;  // plain serial mine: no budget, no sink
  std::string checkpoint_path;
};

MinerOptions MakeMinerOptions(const Workload& w, const Inputs& in,
                              const AnswerOptions& ao, Tracer* tracer,
                              Answer* out) {
  MinerOptions opt;
  opt.k = w.k;
  opt.min_length = w.min_length;
  opt.max_pattern_length = w.max_len;
  opt.max_candidates_per_iteration = w.beam;
  opt.num_threads = ao.reference ? 1 : w.threads;
  if (ao.reference) return opt;
  opt.run.memory_budget_bytes = in.budget_bytes;
  if (w.checkpoint) {
    const std::string path = ao.checkpoint_path;
    opt.checkpoint_sink = [tracer, out, path](const MinerCheckpoint& cp) {
      {
        ScopedSpan span(tracer, "checkpoint.write");
        out->checkpoint_ok &= WriteMinerCheckpointFile(cp, path).ok();
      }
      ++out->checkpoints;
      if (tracer) {  // sizing the file is bookkeeping, kept off the clock
        std::error_code ec;
        out->checkpoint_bytes += std::filesystem::file_size(path, ec);
      }
      return true;
    };
  }
  return opt;
}

/// Mines `data` and groups the answer (the part every workload shares).
void MineAndGroup(const Workload& w, const TrajectoryDataset& data,
                  const MiningSpace& space, const Inputs& in,
                  const AnswerOptions& ao, Tracer* tracer, Answer* out) {
  std::unique_ptr<NmEngine> engine;
  {
    ScopedSpan span(tracer, "nm_engine.build");
    engine = std::make_unique<NmEngine>(data, space);
  }
  const MinerOptions opt = MakeMinerOptions(w, in, ao, tracer, out);
  MiningResult result;
  {
    ScopedSpan span(tracer, "miner.mine");
    result = MineTrajPatterns(*engine, opt);
  }
  out->arena_peak_bytes = engine->arena_peak_bytes();
  const double pitch =
      std::max(space.grid.cell_width(), space.grid.cell_height());
  {
    ScopedSpan span(tracer, "pattern_group");
    out->groups = GroupPatterns(result.patterns, space.grid, pitch).size();
  }
  out->patterns = std::move(result.patterns);
  out->stats = result.stats;
}

/// The dataset and space a bus answer mines: ingest the reports into a
/// fresh server, synchronize, and move to velocity space (§6.1).
struct VelocityView {
  TrajectoryDataset data;
  std::optional<MiningSpace> space;
};

VelocityView BusVelocityView(const Workload& w, const Inputs& in,
                             Tracer* tracer, Answer* out) {
  MobileObjectServer::Options sopt;
  sopt.sync = BusSyncOptions(w);
  MobileObjectServer server(sopt);
  {
    ScopedSpan span(tracer, "server.ingest");
    std::vector<MobileObjectServer::ObjectId> ids;
    ids.reserve(in.names.size());
    for (const std::string& name : in.names) ids.push_back(server.Register(name));
    for (const ReportEvent& r : in.reports) {
      server.Report(ids[r.object], r.time, r.location);
    }
  }
  out->reports = server.total_ingest_stats().total();
  out->rejected = server.total_ingest_stats().rejected();
  TrajectoryDataset synced;
  {
    ScopedSpan span(tracer, "server.sync");
    synced = server.SynchronizeAll();
  }
  VelocityView view;
  ScopedSpan span(tracer, "trajectory.velocity");
  view.data = ToVelocityTrajectories(synced);
  const Grid grid(view.data.MeanBoundingBox(0.005), w.velocity_grid_side,
                  w.velocity_grid_side);
  view.space.emplace(grid,
                     0.5 * std::max(grid.cell_width(), grid.cell_height()));
  return view;
}

Answer RunAnswer(const Workload& w, const Inputs& in, const AnswerOptions& ao,
                 Tracer* tracer) {
  Answer out;
  ScopedSpan root(tracer, "answer");
  if (!w.bus) {
    MineAndGroup(w, in.data, ZebraSpace(w), in, ao, tracer, &out);
  } else {
    const VelocityView view = BusVelocityView(w, in, tracer, &out);
    MineAndGroup(w, view.data, *view.space, in, ao, tracer, &out);
  }
  return out;
}

// ---------------------------------------------------------------- checks

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool SameAnswer(const Answer& a, const Answer& ref) {
  if (a.patterns.size() != ref.patterns.size() || a.groups != ref.groups) {
    return false;
  }
  for (size_t i = 0; i < a.patterns.size(); ++i) {
    if (!(a.patterns[i].pattern == ref.patterns[i].pattern) ||
        !SameBits(a.patterns[i].nm, ref.patterns[i].nm)) {
      return false;
    }
  }
  return true;
}

/// Why a reference answer is not a valid top-k ("" if it is): every
/// score must equal a fresh engine's per-pattern NmTotal bit for bit,
/// the list must be strictly best-first, and lengths must obey the
/// options.
std::string ValidateReference(const Workload& w, const Inputs& in,
                              const Answer& a) {
  if (a.stats.stop_reason != StopReason::kNone) return "stopped early";
  if (a.patterns.empty() || a.patterns.size() > static_cast<size_t>(w.k)) {
    return "answer has " + std::to_string(a.patterns.size()) + " patterns";
  }
  for (size_t i = 1; i < a.patterns.size(); ++i) {
    if (!BetterScored(a.patterns[i - 1], a.patterns[i])) return "not sorted";
  }
  Answer scratch;
  const VelocityView view =
      w.bus ? BusVelocityView(w, in, nullptr, &scratch) : VelocityView{};
  const NmEngine fresh(w.bus ? view.data : in.data,
                       w.bus ? *view.space : ZebraSpace(w));
  for (const ScoredPattern& sp : a.patterns) {
    if (sp.pattern.length() < w.min_length ||
        sp.pattern.length() > w.max_len) {
      return "pattern length out of range";
    }
    if (!SameBits(fresh.NmTotal(sp.pattern), sp.nm)) {
      return "score of " + sp.pattern.ToString() + " differs from NmTotal";
    }
  }
  return "";
}

bool WriteReference(const std::string& path, const std::vector<Answer>& refs) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < refs.size(); ++i) {
    std::fprintf(f, "answer %zu %zu %zu\n", i, refs[i].patterns.size(),
                 refs[i].groups);
    for (const ScoredPattern& sp : refs[i].patterns) {
      std::fprintf(f, "%a", sp.nm);
      for (CellId c : sp.pattern.cells()) std::fprintf(f, " %d", c);
      std::fprintf(f, "\n");
    }
  }
  return std::fclose(f) == 0;
}

bool ReadReference(const std::string& path, size_t datasets,
                   std::vector<Answer>* refs) {
  std::ifstream in(path);
  std::string line;
  refs->clear();
  while (std::getline(in, line)) {
    std::istringstream head(line);
    std::string tag;
    size_t index = 0, count = 0, groups = 0;
    if (!(head >> tag >> index >> count >> groups) || tag != "answer" ||
        index != refs->size()) {
      return false;
    }
    Answer a;
    a.groups = groups;
    for (size_t i = 0; i < count; ++i) {
      if (!std::getline(in, line)) return false;
      std::istringstream row(line);
      std::string nm;
      row >> nm;
      std::vector<CellId> cells;
      CellId c = 0;
      while (row >> c) cells.push_back(c);
      a.patterns.push_back({Pattern(std::move(cells)),
                            std::strtod(nm.c_str(), nullptr)});
    }
    refs->push_back(std::move(a));
  }
  return refs->size() == datasets;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void PrintResult(bool correct, int attempted, int failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Per-layer figures of one traced answer.
std::vector<Metric> LayerMetrics(const Tracer& t, int id, const Answer& a) {
  const MinerStats& s = a.stats;
  const double miner_s = t.Seconds(id, "miner.mine");
  const double ckpt_s = t.Seconds(id, "checkpoint.write");
  const double built =
      static_cast<double>(s.cells_cached) + static_cast<double>(s.cells_evicted);
  const double evaluated = static_cast<double>(s.candidates_evaluated);
  constexpr double kMiB = 1024.0 * 1024.0;
  return {
      {"server.ingest_s", t.Seconds(id, "server.ingest"), "s"},
      {"server.sync_s", t.Seconds(id, "server.sync"), "s"},
      {"server.reports", static_cast<double>(a.reports), "count"},
      {"server.rejected", static_cast<double>(a.rejected), "count"},
      {"trajectory.velocity_s", t.Seconds(id, "trajectory.velocity"), "s"},
      {"nm_engine.build_s", t.Seconds(id, "nm_engine.build"), "s"},
      {"nm_engine.warm_s", s.warmup_seconds, "s"},
      {"nm_engine.scan_s", s.scoring_seconds, "s"},
      {"nm_engine.scan_us_per_candidate",
       evaluated > 0 ? 1e6 * s.scoring_seconds / evaluated : 0.0, "us"},
      {"nm_engine.columns_built", built, "count"},
      {"nm_engine.builds_per_column",
       s.alphabet_size ? built / static_cast<double>(s.alphabet_size) : 0.0,
       "ratio"},
      {"nm_engine.cells_evicted", static_cast<double>(s.cells_evicted),
       "count"},
      {"nm_engine.arena_peak_mb",
       static_cast<double>(a.arena_peak_bytes) / kMiB, "MiB"},
      {"nm_engine.threads_used", static_cast<double>(s.threads_used),
       "count"},
      {"miner.s", miner_s, "s"},
      {"miner.other_s",
       miner_s - s.warmup_seconds - s.scoring_seconds - ckpt_s, "s"},
      {"miner.iterations", static_cast<double>(s.iterations), "count"},
      {"miner.candidates_generated",
       static_cast<double>(s.candidates_generated), "count"},
      {"miner.candidates_evaluated", evaluated, "count"},
      {"miner.alphabet", static_cast<double>(s.alphabet_size), "count"},
      {"miner.peak_queue", static_cast<double>(s.peak_queue_size), "count"},
      {"checkpoint.write_s", ckpt_s, "s"},
      {"checkpoint.mb", static_cast<double>(a.checkpoint_bytes) / kMiB,
       "MiB"},
      {"checkpoint.count", static_cast<double>(a.checkpoints), "count"},
      {"pattern_group.s", t.Seconds(id, "pattern_group"), "s"},
      {"pattern_group.groups", static_cast<double>(a.groups), "count"},
  };
}

// ---------------------------------------------------------------- main

struct Args {
  std::map<std::string, std::string> kv;
  std::string Get(const std::string& k, const std::string& def = "") const {
    const auto it = kv.find(k);
    return it == kv.end() ? def : it->second;
  }
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    if (s.rfind("--", 0) != 0) continue;
    const size_t eq = s.find('=');
    if (eq == std::string::npos) {
      a.kv[s.substr(2)] = "1";
    } else {
      a.kv[s.substr(2, eq - 2)] = s.substr(eq + 1);
    }
  }
  return a;
}

int Fail(const std::string& msg) {
  std::fprintf(stderr, "perfbench_harness: %s\n", msg.c_str());
  return 2;
}

int RunReference(const Workload& w, uint64_t seed, const std::string& path) {
  std::vector<Answer> refs;
  for (const auto& [gen, rep] : DatasetSeeds(w, seed)) {
    const Inputs in = MakeInputs(w, gen, rep, nullptr);
    AnswerOptions ao;
    ao.reference = true;
    Answer a = RunAnswer(w, in, ao, nullptr);
    const std::string why = ValidateReference(w, in, a);
    if (!why.empty()) return Fail("reference answer invalid: " + why);
    refs.push_back(std::move(a));
  }
  if (!WriteReference(path, refs)) return Fail("cannot write " + path);
  return 0;
}

int RunMeasure(const Workload& w, uint64_t seed, const Args& args) {
  const double seconds = std::atof(args.Get("seconds", "10").c_str());
  const bool traced = args.Get("trace", "0") == "1";
  const bool corrupt = args.Get("corrupt", "0") == "1";
  const std::string work_dir = args.Get("work_dir", ".");
  std::vector<Answer> refs;
  if (!ReadReference(args.Get("reference"), static_cast<size_t>(w.datasets),
                     &refs)) {
    return Fail("cannot read reference " + args.Get("reference"));
  }
  Tracer tracer;
  Tracer* trace = traced ? &tracer : nullptr;

  // Set-up: generating every dataset's inputs, timed `setup_reps` times.
  // The first repetition makes the inputs the answers use; the others run
  // between answers, spread over the run, because the host's load changes
  // within seconds and set-up is short.
  const auto seeds = DatasetSeeds(w, seed);
  std::vector<double> setup_times, datagen_times;
  auto set_up = [&](std::vector<Inputs>* out) {
    const int rep = static_cast<int>(setup_times.size());
    tracer.set_answer(-1 - rep);
    out->clear();
    out->shrink_to_fit();
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(trace, "setup");
      for (const auto& [gen, rp] : seeds) {
        out->push_back(MakeInputs(w, gen, rp, trace));
      }
    }
    setup_times.push_back(1e-9 * static_cast<double>(NowNs() - t0));
    datagen_times.push_back(tracer.Seconds(-1 - rep, "datagen"));
  };
  std::vector<Inputs> inputs, scratch;
  set_up(&inputs);

  AnswerOptions ao;
  ao.checkpoint_path = work_dir + "/checkpoint.txt";
  const size_t n = inputs.size();
  std::vector<std::vector<double>> wall(n), cpu(n), untraced(n);
  std::vector<std::vector<std::vector<Metric>>> layers(n);
  int attempted = 0, failed = 0;
  struct Timed {
    int id = 0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
  };
  // Answers dataset `i` and counts it as failed unless it matches the
  // reference, ran to completion and kept its arena within the budget.
  auto answer = [&](size_t i, Tracer* t, Answer* a) {
    Timed timed;
    timed.id = attempted++;
    tracer.set_answer(timed.id);
    bool ok = false;
    const double c0 = CpuSeconds();
    const int64_t t0 = NowNs();
    try {
      *a = RunAnswer(w, inputs[i], ao, t);
      ok = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "answer %d threw: %s\n", timed.id, e.what());
    }
    timed.wall_s = 1e-9 * static_cast<double>(NowNs() - t0);
    timed.cpu_s = CpuSeconds() - c0;
    if (ok && corrupt && timed.id == 0 && !a->patterns.empty()) {
      uint64_t bits = 0;  // flip the last bit of the best score
      std::memcpy(&bits, &a->patterns[0].nm, sizeof bits);
      bits ^= 1;
      std::memcpy(&a->patterns[0].nm, &bits, sizeof bits);
    }
    ok = ok && a->stats.stop_reason == StopReason::kNone && a->checkpoint_ok &&
         SameAnswer(*a, refs[i]) &&
         (inputs[i].budget_bytes == 0 ||
          a->arena_peak_bytes <= inputs[i].budget_bytes);
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "answer %d (dataset %zu) failed\n", timed.id, i);
    }
    return timed;
  };

  // One untimed answer first: the process's first answer also pays for
  // heap growth and the scoring pool's start, which later answers do not.
  Answer warm;
  answer(0, nullptr, &warm);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  const int64_t setup_every =
      static_cast<int64_t>(seconds * 1e9) / w.setup_reps;
  auto maybe_set_up = [&] {
    const int64_t due =
        start + setup_every * static_cast<int64_t>(setup_times.size());
    if (setup_times.size() < static_cast<size_t>(w.setup_reps) &&
        NowNs() >= due) {
      set_up(&scratch);
    }
  };
  // Rounds over the datasets until the deadline; the first round always
  // completes, so every dataset has an answer.  The traced run also
  // answers every dataset untraced, to measure the tracing overhead.
  for (int round = 0; round == 0 || NowNs() < deadline; ++round) {
    for (size_t i = 0; i < n && (round == 0 || NowNs() < deadline); ++i) {
      for (int leg = 0; leg < (traced ? 2 : 1); ++leg) {
        maybe_set_up();
        const bool with_trace = traced && (leg + round) % 2 == 0;
        Answer a;
        const Timed timed = answer(i, with_trace ? trace : nullptr, &a);
        if (!traced) {
          wall[i].push_back(timed.wall_s);
          cpu[i].push_back(timed.cpu_s);
        } else if (with_trace) {
          wall[i].push_back(timed.wall_s);
          layers[i].push_back(LayerMetrics(tracer, timed.id, a));
        } else {
          untraced[i].push_back(timed.wall_s);
        }
      }
    }
  }

  while (setup_times.size() < static_cast<size_t>(w.setup_reps)) {
    set_up(&scratch);
  }
  scratch.clear();

  // Each dataset's median, averaged over the run's datasets.
  auto per_dataset = [n](const std::vector<std::vector<double>>& v) {
    std::vector<double> medians;
    for (size_t i = 0; i < n; ++i) medians.push_back(Median(v[i]));
    return Mean(medians);
  };
  for (size_t i = 0; i < n; ++i) {
    std::fprintf(stderr, "dataset %zu: median %.4f s over %zu answers\n", i,
                 Median(wall[i]), wall[i].size());
  }
  std::vector<Metric> metrics;
  if (!traced) {
    metrics = {{"topk_s", per_dataset(wall), "s"},
               {"cpu_s", per_dataset(cpu), "s"},
               {"peak_rss_mb", PeakRssMiB(), "MiB"},
               {"setup_s", Median(setup_times), "s"}};
  } else {
    metrics.push_back({"datagen.s", Median(datagen_times), "s"});
    const std::vector<Metric>& names = layers[0][0];
    for (size_t m = 0; m < names.size(); ++m) {
      std::vector<std::vector<double>> vals(n);
      for (size_t i = 0; i < n; ++i) {
        for (const auto& answer : layers[i]) vals[i].push_back(answer[m].value);
      }
      metrics.push_back({names[m].name, per_dataset(vals), names[m].unit});
    }
    metrics.push_back({"trace.overhead_frac",
                       per_dataset(wall) / per_dataset(untraced) - 1.0,
                       "ratio"});
    const std::string spans = args.Get("spans");
    if (!spans.empty() && !tracer.Write(spans)) {
      return Fail("cannot write " + spans);
    }
  }
  std::error_code ec;
  std::filesystem::remove(ao.checkpoint_path, ec);
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Fixed allocator thresholds.  Blocks of 1 MiB or more are mapped and
  // handed back to the system when freed; by default glibc raises this
  // threshold after the first large free, later arenas then come from a
  // fragmented heap, and the peak resident size would depend on the order
  // of earlier answers.  The heap itself is never trimmed, so reusing
  // freed small blocks costs no page faults, whose price varies with the
  // host's memory load.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const Args args = ParseArgs(argc, argv);
  Workload w;
  if (!MakeWorkload(args.Get("workload"), args.Get("size") == "tiny", &w)) {
    return Fail("unknown workload '" + args.Get("workload") + "'");
  }
  const uint64_t seed =
      static_cast<uint64_t>(std::strtoull(args.Get("seed", "1").c_str(),
                                          nullptr, 10));
  const std::string mode = args.Get("mode", "measure");
  if (mode == "reference") return RunReference(w, seed, args.Get("reference"));
  if (mode == "measure") return RunMeasure(w, seed, args);
  return Fail("unknown mode '" + mode + "'");
}
