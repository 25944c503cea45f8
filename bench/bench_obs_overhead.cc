// Measures what the observability layer costs on the mining hot path and
// proves it never changes answers.  Two paired-off/on legs, each gated
// at --max_overhead_pct (default 2%):
//
//   trace       Chrome-trace capture on vs off (counters/gauges still
//               live either way — their relaxed atomics are the
//               always-on cost of an obs-enabled build)
//   introspect  run journal streaming to JSONL + live status server
//               (/runz et al.) vs neither
//
// Every rep's top-k must be bit-identical to its leg's reference.  The
// remaining comparison — obs-enabled vs. compiled-out — needs two build
// trees (-DTRAJPATTERN_OBS=ON/OFF); see README "Observability".
// Writes BENCH_obs_overhead.json (override with --json=PATH).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/journal.h"
#include "obs/trace.h"
#include "server/status_server.h"
#include "stats/timer.h"

namespace tb = trajpattern::bench;
using trajpattern::Flags;
using trajpattern::MinerOptions;
using trajpattern::MineTrajPatterns;
using trajpattern::MiningResult;
using trajpattern::NmEngine;
using trajpattern::ScoredPattern;
using trajpattern::StatusServer;
using trajpattern::WallTimer;

namespace {

bool BitIdentical(const std::vector<ScoredPattern>& a,
                  const std::vector<ScoredPattern>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].pattern == b[i].pattern) ||
        std::memcmp(&a[i].nm, &b[i].nm, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

struct LegResult {
  double base_seconds = 0.0;
  double on_seconds = 0.0;
  double overhead_pct = 0.0;      // median of paired ratios
  double min_overhead_pct = 0.0;  // min-of-reps ratio
  bool within_budget = false;
  bool topk_identical = true;
};

/// One paired-off/on overhead leg.  `set_on(true/false)` toggles the
/// instrumentation outside the timed region; back-to-back off/on pairs
/// share thermal and scheduler state, so the per-pair ratio cancels
/// machine drift that min-of-reps cannot, and the median of the ratios
/// discards the odd preempted pair.
LegResult MeasureLeg(const NmEngine& engine, const MinerOptions& opt,
                     int reps, double max_overhead_pct,
                     const std::function<void(bool)>& set_on) {
  // Unmeasured warm-up: populates the engine's factor cache so neither
  // mode pays the one-time factor computation; also the bit-identity
  // reference.
  const MiningResult reference = MineTrajPatterns(engine, opt);
  LegResult leg;
  std::vector<double> base_secs, on_secs, ratios;
  for (int rep = 0; rep < reps; ++rep) {
    double pair_secs[2];
    // Alternate which mode goes first so second-run cache warmth doesn't
    // systematically favor one side.
    const bool on_first = (rep % 2) != 0;
    for (const bool on : {on_first, !on_first}) {
      set_on(on);
      WallTimer timer;
      const MiningResult res = MineTrajPatterns(engine, opt);
      pair_secs[on ? 1 : 0] = timer.Seconds();
      set_on(false);
      leg.topk_identical = leg.topk_identical &&
                           BitIdentical(reference.patterns, res.patterns);
    }
    base_secs.push_back(pair_secs[0]);
    on_secs.push_back(pair_secs[1]);
    ratios.push_back(pair_secs[1] / pair_secs[0]);
  }
  leg.base_seconds = *std::min_element(base_secs.begin(), base_secs.end());
  leg.on_seconds = *std::min_element(on_secs.begin(), on_secs.end());
  std::sort(ratios.begin(), ratios.end());
  leg.overhead_pct = (ratios[ratios.size() / 2] - 1.0) * 100.0;
  leg.min_overhead_pct = (leg.on_seconds / leg.base_seconds - 1.0) * 100.0;
  // Two noise-robust estimators; a real regression inflates both, while
  // a scheduler spike during one pair only moves one of them — so the
  // gate trips only when both agree the budget is blown.
  leg.within_budget = leg.overhead_pct <= max_overhead_pct ||
                      leg.min_overhead_pct <= max_overhead_pct;
  return leg;
}

void PrintLeg(const char* name, const LegResult& leg, double budget) {
  std::printf(
      "%-18s off: %.6f s   on: %.6f s   overhead: %+.2f%% median paired, "
      "%+.2f%% min-of-reps (budget %.2f%%: %s)   top-k identical: %s\n",
      name, leg.base_seconds, leg.on_seconds, leg.overhead_pct,
      leg.min_overhead_pct, budget, leg.within_budget ? "ok" : "EXCEEDED",
      leg.topk_identical ? "yes" : "NO");
}

void WriteLeg(tb::JsonWriter* w, const char* name, const LegResult& leg) {
  w->Key(name).BeginObject();
  w->Key("off_seconds").Double(leg.base_seconds);
  w->Key("on_seconds").Double(leg.on_seconds);
  w->Key("overhead_pct").Double(leg.overhead_pct, 3);
  w->Key("min_overhead_pct").Double(leg.min_overhead_pct, 3);
  w->Key("within_budget").Bool(leg.within_budget);
  w->Key("topk_identical").Bool(leg.topk_identical);
  w->EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  tb::Fig4Config cfg = tb::ParseFig4Config(flags);
  if (!flags.Has("s") && !flags.Has("scale")) cfg.num_trajectories = 120;
  const int reps = std::max(1, flags.GetInt("reps", 15));
  const double max_overhead_pct = flags.GetDouble("max_overhead_pct", 2.0);
  const std::string json_path =
      flags.GetString("json", tb::DefaultJsonPath("BENCH_obs_overhead.json"));
  const std::string journal_path =
      flags.GetString("journal_path", json_path + ".journal.jsonl");

  const auto data = tb::MakeZebraData(cfg);
  const auto space = tb::MakeSpace(cfg);
  const auto opt = tb::MakeMinerOptions(cfg);
  NmEngine engine(data, space);

  std::printf("Observability overhead  (S=%d, L=%d, G=%d, k=%d, reps=%d)\n",
              cfg.num_trajectories, cfg.avg_length,
              cfg.grid_side * cfg.grid_side, cfg.k, reps);

  // Leg 1: trace capture.  Runs first, before any journal activation, so
  // its off side is the pristine counters-only baseline.
  auto& recorder = trajpattern::obs::TraceRecorder::Global();
  const LegResult trace_leg =
      MeasureLeg(engine, opt, reps, max_overhead_pct, [&](bool on) {
        if (on) {
          recorder.Start();
        } else {
          recorder.Stop();
        }
      });
  PrintLeg("trace", trace_leg, max_overhead_pct);

  // Leg 2: live introspection — journal streaming to JSONL with a status
  // server accepting connections.  The server runs for the whole
  // leg (its accept thread is parked in accept(); presence is the cost
  // being measured); the journal file toggles per run.  Server startup
  // enables the journal's in-memory run tracking for the remainder of
  // the process, so the off sides below still pay the ring — that is the
  // honest baseline for "introspection available but not streaming".
  StatusServer server;
  if (!server.Start({}).ok()) {
    std::fprintf(stderr, "cannot start status server\n");
    return 1;
  }
  auto& journal = trajpattern::obs::RunJournal::Global();
  auto journal_toggle = [&](bool on) {
    if (on) {
      journal.Open(journal_path);
    } else {
      journal.Close();
    }
  };
  const LegResult introspect_leg =
      MeasureLeg(engine, opt, reps, max_overhead_pct, journal_toggle);
  PrintLeg("introspect", introspect_leg, max_overhead_pct);

  // Liveness sanity outside the measured region: the handlers the server
  // was routing all leg must answer.
  const bool server_ok =
      server.running() &&
      StatusServer::HandlePath("/runz").find("200 OK") != std::string::npos &&
      StatusServer::HandlePath("/healthz").find("ok") != std::string::npos;
  server.Stop();
  if (!server_ok) std::fprintf(stderr, "status server liveness FAILED\n");

  const bool within_budget =
      trace_leg.within_budget && introspect_leg.within_budget;
  const bool identical =
      trace_leg.topk_identical && introspect_leg.topk_identical;

  tb::JsonWriter w;
  w.BeginObject();
  w.Key("workload").BeginObject();
  w.Key("figure").Str("4b");
  w.Key("trajectories").Int(cfg.num_trajectories);
  w.Key("avg_length").Int(cfg.avg_length);
  w.Key("grid_cells").Int(cfg.grid_side * cfg.grid_side);
  w.Key("k").Int(cfg.k);
  w.Key("reps").Int(reps);
  w.EndObject();
  WriteLeg(&w, "trace", trace_leg);
  WriteLeg(&w, "introspect", introspect_leg);
  w.Key("max_overhead_pct").Double(max_overhead_pct, 3);
  w.Key("within_budget").Bool(within_budget);
  w.Key("topk_identical").Bool(identical);
  w.Key("status_server_ok").Bool(server_ok);
  w.Key("journal_path").Str(journal_path);
  tb::StampMetrics(&w);
  w.EndObject();
  if (!w.WriteFile(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());

  return (identical && within_budget && server_ok) ? 0 : 1;
}
