#include "baseline/pb_miner.h"

#include <cassert>
#include <deque>

#include "core/top_k.h"
#include "obs/obs.h"
#include "stats/timer.h"

namespace trajpattern {

PbMiningResult MinePbPatterns(const NmEngine& engine,
                              const PbMinerOptions& options) {
  assert(options.max_length >= 1);
  WallTimer timer;
  TP_TRACE_SPAN("pb/mine");
  PbMiningResult result;
  auto& stats = result.stats;

  TopKPatterns top_k(options.k);
  auto offer = [&](const Pattern& p, double nm) {
    if (p.length() < options.min_length) return;
    top_k.Offer(p, nm);
  };

  const std::vector<CellId> alphabet =
      engine.SingularAlphabet(options.restrict_to_touched_cells);

  // Breadth-first prefix growth; BFS keeps all same-length prefixes live
  // together, matching the projection-based picture ("a large set of
  // prefixes need to be maintained").
  // Unified abort bookkeeping: every early stop — run-control stop
  // surfaced by the engine, or the prefix cap — reports through the same
  // stop_reason/aborted fields the core miner uses.
  auto abort_run = [&stats](StopReason why) {
    stats.stop_reason = why;
    stats.aborted = true;
  };
  StopReason wave_stop = StopReason::kNone;
  auto score_wave = [&](const std::vector<Pattern>& wave) {
    TP_TRACE_SPAN("pb/score_wave");
    BatchScoreStats bstats;
    const std::vector<double> nms =
        engine.NmTotalBatch(wave, options.num_threads, &bstats, &options.run);
    AccumulateBatch(bstats, &stats);
    wave_stop = bstats.stop;
    if (wave_stop != StopReason::kNone) {
      // Discard the stopped wave entirely (its outputs are partial); the
      // top-k stays at the last completed wave.
      return std::vector<double>();
    }
    stats.candidates_generated += static_cast<int64_t>(wave.size());
    TP_COUNTER_ADD("pb.candidates_evaluated", wave.size());
    return nms;
  };

  std::deque<ScoredPattern> live;
  {
    std::vector<Pattern> singulars;
    singulars.reserve(alphabet.size());
    for (CellId c : alphabet) singulars.emplace_back(c);
    const std::vector<double> nms = score_wave(singulars);
    if (wave_stop != StopReason::kNone) {
      abort_run(wave_stop);
    } else {
      for (size_t i = 0; i < singulars.size(); ++i) {
        ++stats.candidates_evaluated;
        offer(singulars[i], nms[i]);
        live.push_back({std::move(singulars[i]), nms[i]});
      }
    }
  }
  stats.peak_live_prefixes = live.size();

  while (!live.empty() && !stats.aborted) {
    const StopReason sr = options.run.CheckStop();
    if (sr != StopReason::kNone) {
      abort_run(sr);
      break;
    }
    if (options.max_expanded_prefixes > 0 &&
        stats.prefixes_expanded >= options.max_expanded_prefixes) {
      stats.hit_prefix_cap = true;
      abort_run(StopReason::kWorkCap);
      break;
    }
    ScoredPattern prefix = std::move(live.front());
    live.pop_front();
    const size_t c = prefix.pattern.length();
    if (c >= options.max_length) continue;
    // Loose extensibility bound: unspecified positions contribute their
    // best possible (zero) log prob, so an extension to length m can
    // score at best (c/m) * NM(prefix); maximal at m = max_length.
    const double bound =
        (static_cast<double>(c) / static_cast<double>(options.max_length)) *
        prefix.nm;
    if (bound < top_k.Omega()) continue;
    ++stats.prefixes_expanded;
    TP_COUNTER_INC("pb.prefixes_expanded");
    // The serial loop offered extensions in alphabet order with no reads
    // of omega in between, so scoring the whole wave first and offering
    // afterwards is semantics-preserving — and gives the batch API a
    // |G|-sized unit of parallel work.
    std::vector<Pattern> exts;
    exts.reserve(alphabet.size());
    for (CellId x : alphabet) exts.push_back(prefix.pattern.Concat(Pattern(x)));
    const std::vector<double> nms = score_wave(exts);
    if (wave_stop != StopReason::kNone) {
      abort_run(wave_stop);
      break;
    }
    for (size_t i = 0; i < exts.size(); ++i) {
      ++stats.candidates_evaluated;
      offer(exts[i], nms[i]);
      live.push_back({std::move(exts[i]), nms[i]});
    }
    stats.peak_live_prefixes = std::max(stats.peak_live_prefixes, live.size());
  }

  result.patterns = top_k.Sorted();
  stats.seconds = timer.Seconds();
  return result;
}

}  // namespace trajpattern
