#include "baseline/match_apriori.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "core/top_k.h"
#include "obs/obs.h"
#include "stats/timer.h"

namespace trajpattern {

MatchMiningResult MineMatchPatterns(const NmEngine& engine,
                                    const MatchMinerOptions& options) {
  WallTimer timer;
  TP_TRACE_SPAN("match/mine");
  MatchMiningResult result;
  auto& stats = result.stats;

  TopKPatterns top_k(options.k);
  auto offer = [&](const Pattern& p, double match) {
    if (p.length() < options.min_length) return;
    if (match < options.min_match) return;
    top_k.Offer(p, match);
  };

  const std::vector<CellId> alphabet =
      engine.SingularAlphabet(options.restrict_to_touched_cells);

  StopReason level_stop = StopReason::kNone;
  auto score_level = [&](const std::vector<Pattern>& cands) {
    TP_TRACE_SPAN("match/score_level");
    BatchScoreStats bstats;
    const std::vector<double> matches = engine.MatchTotalBatch(
        cands, options.num_threads, &bstats, &options.run);
    AccumulateBatch(bstats, &stats);
    level_stop = bstats.stop;
    if (level_stop != StopReason::kNone) {
      // Discard the stopped level (partial outputs); the top-k stays at
      // the last completed level.
      return std::vector<double>();
    }
    stats.candidates_generated += static_cast<int64_t>(cands.size());
    TP_COUNTER_ADD("match.candidates_evaluated", cands.size());
    return matches;
  };
  auto abort_run = [&stats](StopReason why) {
    stats.stop_reason = why;
    stats.aborted = true;
  };

  // Level 1.
  std::vector<ScoredPattern> frontier;
  {
    std::vector<Pattern> singulars;
    singulars.reserve(alphabet.size());
    for (CellId c : alphabet) singulars.emplace_back(c);
    const std::vector<double> matches = score_level(singulars);
    if (level_stop != StopReason::kNone) {
      abort_run(level_stop);
    } else {
      for (size_t i = 0; i < singulars.size(); ++i) {
        ++stats.candidates_evaluated;
        offer(singulars[i], matches[i]);
        frontier.push_back({std::move(singulars[i]), matches[i]});
      }
    }
  }
  stats.levels = 1;

  // Level-wise growth.  A pattern with match below omega cannot have a
  // super-pattern in the answer (Apriori), so frontiers carry only
  // survivors.
  while (!frontier.empty() && !stats.aborted) {
    const StopReason sr = options.run.CheckStop();
    if (sr != StopReason::kNone) {
      abort_run(sr);
      break;
    }
    const double w = std::max(top_k.Omega(), options.min_match);
    std::vector<ScoredPattern> survivors;
    for (auto& sp : frontier) {
      if (sp.nm >= w) survivors.push_back(std::move(sp));
    }
    if (survivors.empty()) break;
    if (options.frontier_cap > 0 && survivors.size() > options.frontier_cap) {
      stats.hit_frontier_cap = true;
      std::partial_sort(survivors.begin(),
                        survivors.begin() + options.frontier_cap,
                        survivors.end(), BetterScored);
      survivors.resize(options.frontier_cap);
    }
    const size_t next_len = survivors.front().pattern.length() + 1;
    if (options.max_length > 0 && next_len > options.max_length) break;

    // Join: suffix(j-1) of A == prefix(j-1) of B -> A + last(B).  The
    // partners for each A are found through a prefix hash map: the naive
    // all-pairs walk is quadratic in the survivor count and allocates
    // sub-patterns per pair, which dominated large runs.
    std::sort(survivors.begin(), survivors.end(),
              [](const ScoredPattern& a, const ScoredPattern& b) {
                return a.pattern < b.pattern;
              });
    const size_t j = survivors.front().pattern.length();
    std::unordered_map<Pattern, std::vector<size_t>, PatternHash> by_prefix;
    for (size_t i = 0; i < survivors.size(); ++i) {
      by_prefix[survivors[i].pattern.SubPattern(0, j - 1)].push_back(i);
    }
    std::unordered_set<Pattern, PatternHash> seen;
    std::vector<Pattern> cands;
    for (const auto& a : survivors) {
      const auto partners = by_prefix.find(a.pattern.SubPattern(1, j - 1));
      if (partners == by_prefix.end()) continue;
      for (size_t bi : partners->second) {
        const auto& b = survivors[bi];
        Pattern cand = a.pattern.Concat(b.pattern.SubPattern(j - 1, 1));
        if (!seen.insert(cand).second) continue;
        // Apriori pruning: both length-j contiguous sub-patterns must be
        // frontier survivors (prefix == a, suffix == join partner b).
        const double bound = std::min(a.nm, b.nm);
        if (bound < w) continue;
        cands.push_back(std::move(cand));
      }
    }
    // Omega is only re-read at the next level boundary (w above), so
    // staging the whole level and batch-scoring it is exact.
    const std::vector<double> matches = score_level(cands);
    if (level_stop != StopReason::kNone) {
      abort_run(level_stop);
      break;
    }
    std::vector<ScoredPattern> next;
    next.reserve(cands.size());
    for (size_t i = 0; i < cands.size(); ++i) {
      ++stats.candidates_evaluated;
      offer(cands[i], matches[i]);
      next.push_back({std::move(cands[i]), matches[i]});
    }
    ++stats.levels;
    frontier = std::move(next);
  }

  result.patterns = top_k.Sorted();
  stats.seconds = timer.Seconds();
  return result;
}

}  // namespace trajpattern
