#include "core/miner.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "obs/journal.h"
#include "obs/obs.h"
#include "stats/timer.h"

namespace trajpattern {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kPosInf = std::numeric_limits<double>::infinity();

size_t CountSpecified(std::span<const CellId> cells) {
  return static_cast<size_t>(
      std::count_if(cells.begin(), cells.end(),
                    [](CellId c) { return c != kWildcardCell; }));
}

/// Calls `visit(cut, left_nm, right_nm)` for every cut 1 <= cut < |cells|,
/// in ascending order, whose halves cells[0, cut) and cells[cut, m) are
/// both in `scores`.  The halves are probed as sub-spans, so the walk
/// allocates nothing.
template <typename Visit>
void ForEachMemoizedCut(std::span<const CellId> cells,
                        const PatternScoreMap& scores, Visit&& visit) {
  for (size_t cut = 1; cut < cells.size(); ++cut) {
    const auto left = scores.find(cells.first(cut));
    if (left == scores.end()) continue;
    const auto right = scores.find(cells.subspan(cut));
    if (right == scores.end()) continue;
    visit(cut, left->second, right->second);
  }
}

}  // namespace

double SplitBound(std::span<const CellId> pattern,
                  const PatternScoreMap& scores, size_t num_trajectories) {
  const size_t specified = CountSpecified(pattern);
  double bound = kPosInf;
  ForEachMemoizedCut(pattern, scores, [&](size_t cut, double left,
                                          double right) {
    const size_t s_left = CountSpecified(pattern.first(cut));
    const size_t s_right = specified - s_left;
    // An all-wildcard half has no NM (see NmEngine::ValidateScorable).
    if (s_left == 0 || s_right == 0) return;
    const double mean = (static_cast<double>(s_left) * left +
                         static_cast<double>(s_right) * right) /
                        static_cast<double>(specified);
    bound = std::min(bound, mean);
  });
  if (bound == kPosInf) return bound;
  // Every log-probability is <= 0, so each sum behind an NM value has a
  // relative rounding error of at most about (n + m)·eps/2; the slack
  // covers the halves' errors, this mean's, and P's own several times.
  const double slack =
      4.0 * static_cast<double>(num_trajectories + pattern.size() + 4) *
      std::numeric_limits<double>::epsilon();
  return bound + slack * std::abs(bound);
}

void RebuildFrontier(const PatternScoreMap& scores, double omega,
                     PatternSet* high, std::vector<Pattern>* queue) {
  TP_TRACE_SPAN("miner/rebuild");
  TP_GAUGE_SET("miner.omega", omega);
  TP_TRACE_COUNTER("miner/omega", omega);
  high->clear();
  for (const auto& [p, nm] : scores) {
    if (nm >= omega) high->insert(p);
  }
  queue->clear();
  for (const auto& [p, nm] : scores) {
    // Lemma 1: a low pattern stays while its length-(m-1) suffix or
    // prefix is high; both are probed as sub-spans, without a copy.
    const std::span<const CellId> cells = p.cells();
    const bool keep = nm >= omega || cells.size() == 1 ||
                      high->contains(cells.subspan(1)) ||
                      high->contains(cells.first(cells.size() - 1));
    if (keep) queue->push_back(p);
  }
  std::sort(queue->begin(), queue->end());
  TP_GAUGE_SET("miner.queue_depth", queue->size());
  TP_GAUGE_SET("miner.high_set_size", high->size());
  TP_TRACE_COUNTER("miner/queue_depth", static_cast<double>(queue->size()));
}

std::vector<Pattern> GenerateCandidates(const MinerOptions& options,
                                        const PatternScoreMap& scores,
                                        const PatternSet& high,
                                        const std::vector<Pattern>& queue,
                                        const PatternSet& prev_high,
                                        const PatternSet& prev_queue,
                                        bool* hit_candidate_cap) {
  // Candidate generation: P in H extended with every P' in Q, both
  // orders.  Because one side is always high, every candidate respects
  // the min-max seed rule (observation 3 of §4).
  //
  // In beam mode the generation itself must stay bounded: with a
  // min-length constraint the threshold omega is -inf until k eligible
  // patterns exist, which makes everything high and |H| x |Q| explode.
  // We then walk both sets in NM-descending order (the most promising
  // combinations first) and stop once enough candidates are staged for
  // the beam to rank.
  std::vector<Pattern> high_sorted(high.begin(), high.end());
  std::vector<Pattern> queue_sorted = queue;
  const bool beam = options.max_candidates_per_iteration > 0;
  if (beam) {
    auto by_nm_desc = [&](const Pattern& a, const Pattern& b) {
      const double na = scores.at(a);
      const double nb = scores.at(b);
      if (na != nb) return na > nb;
      return a < b;
    };
    std::sort(high_sorted.begin(), high_sorted.end(), by_nm_desc);
    std::sort(queue_sorted.begin(), queue_sorted.end(), by_nm_desc);
  } else {
    std::sort(high_sorted.begin(), high_sorted.end());
  }
  const size_t generation_budget =
      beam ? 4 * options.max_candidates_per_iteration
           : std::numeric_limits<size_t>::max();
  std::vector<Pattern> candidates;
  PatternSet cand_seen;
  // Wildcard joiners (§5): 0..d '*' positions between the two halves.
  std::vector<Pattern> joiners;
  joiners.emplace_back();  // plain concatenation
  for (int g = 1; g <= options.max_wildcards; ++g) {
    joiners.emplace_back(std::vector<CellId>(g, kWildcardCell));
  }
  // Stage the two concatenation orders of a pair; the length test runs
  // BEFORE any pattern is materialized — with a depth cap most pairs
  // are over-length, and allocating just to discard dominated the
  // whole mining run.
  auto stage_pair = [&](const Pattern& a, const Pattern& join,
                        const Pattern& b) {
    if (options.max_pattern_length > 0 &&
        a.length() + join.length() + b.length() >
            options.max_pattern_length) {
      return;
    }
    for (Pattern cand : {a.Concat(join).Concat(b),
                         b.Concat(join).Concat(a)}) {
      if (scores.count(cand) > 0 || !cand_seen.insert(cand).second) {
        continue;
      }
      candidates.push_back(std::move(cand));
    }
  };
  // Frontier rule: a pair whose halves were BOTH already in last
  // round's H and Q generated its candidates last round (exact mode
  // stages every pair, so this is lossless there; in beam mode it
  // avoids re-walking quadratically many known pairs every round).
  const bool first_round = prev_high.empty() && prev_queue.empty();
  std::vector<char> q_old(queue_sorted.size());
  for (size_t j = 0; j < queue_sorted.size(); ++j) {
    q_old[j] = prev_queue.count(queue_sorted[j]) > 0 ? 1 : 0;
  }
  for (const Pattern& p : high_sorted) {
    if (candidates.size() >= generation_budget) break;
    const bool p_old = !first_round && prev_high.count(p) > 0;
    for (size_t j = 0; j < queue_sorted.size(); ++j) {
      if (candidates.size() >= generation_budget) break;
      if (p_old && q_old[j] != 0) continue;
      const Pattern& q = queue_sorted[j];
      for (const Pattern& join : joiners) stage_pair(p, join, q);
    }
  }

  if (options.max_candidates_per_iteration > 0 &&
      candidates.size() > options.max_candidates_per_iteration) {
    // Beam fallback: keep the candidates whose worse half is best — the
    // min-max property bounds a pattern's NM by the max of any cut, so
    // a candidate with two strong halves is the most promising.  The
    // beam is stratified by candidate length: ranking by bound alone
    // would let the (always better-bounded) short candidates starve the
    // long ones, and with a min-length constraint the threshold omega
    // never tightens until long patterns exist at all.
    if (hit_candidate_cap != nullptr) *hit_candidate_cap = true;
    auto bound = [&](const Pattern& c) {
      double best = kNegInf;
      ForEachMemoizedCut(c.cells(), scores,
                         [&](size_t, double left, double right) {
                           best = std::max(best, std::min(left, right));
                         });
      return best;
    };
    std::map<size_t, std::vector<std::pair<double, Pattern>>> buckets;
    for (Pattern& c : candidates) {
      const size_t len = c.length();
      buckets[len].emplace_back(bound(c), std::move(c));
    }
    for (auto& [len, bucket] : buckets) {
      (void)len;
      std::sort(bucket.begin(), bucket.end(),
                [](const auto& a, const auto& b) {
                  if (a.first != b.first) return a.first > b.first;
                  return a.second < b.second;
                });
    }
    candidates.clear();
    // Round-robin across length buckets, best-bound first within each.
    std::vector<size_t> cursor_keys;
    for (const auto& [len, bucket] : buckets) {
      (void)bucket;
      cursor_keys.push_back(len);
    }
    std::vector<size_t> offsets(cursor_keys.size(), 0);
    while (candidates.size() < options.max_candidates_per_iteration) {
      bool any = false;
      for (size_t b = 0; b < cursor_keys.size() &&
                         candidates.size() <
                             options.max_candidates_per_iteration;
           ++b) {
        auto& bucket = buckets[cursor_keys[b]];
        if (offsets[b] < bucket.size()) {
          candidates.push_back(std::move(bucket[offsets[b]].second));
          ++offsets[b];
          any = true;
        }
      }
      if (!any) break;
    }
  }
  return candidates;
}

MinerCheckpoint MakeBaseCheckpoint(int completed_iterations, int k,
                                   double omega,
                                   const PatternScoreMap& scores,
                                   const PatternSet& prev_high,
                                   const PatternSet& prev_queue,
                                   int64_t candidates_evaluated,
                                   int64_t candidates_pruned) {
  MinerCheckpoint cp;
  cp.iteration = completed_iterations;
  cp.k = k;
  cp.omega = omega;
  cp.scores.reserve(scores.size());
  for (const auto& [p, nm] : scores) cp.scores.push_back({p, nm});
  std::sort(cp.scores.begin(), cp.scores.end(),
            [](const ScoredPattern& a, const ScoredPattern& b) {
              return a.pattern < b.pattern;
            });
  cp.prev_high.assign(prev_high.begin(), prev_high.end());
  std::sort(cp.prev_high.begin(), cp.prev_high.end());
  cp.prev_queue.assign(prev_queue.begin(), prev_queue.end());
  std::sort(cp.prev_queue.begin(), cp.prev_queue.end());
  cp.candidates_evaluated = candidates_evaluated;
  cp.candidates_pruned = candidates_pruned;
  return cp;
}

TrajPatternMiner::TrajPatternMiner(const NmEngine* engine,
                                   const MinerOptions& options)
    : engine_(engine), options_(options), top_k_(options.k) {}

void TrajPatternMiner::ScoreBatch(std::vector<Pattern> patterns) {
  // Defensive re-filter against the memo: scoring a pattern twice would
  // also offer it to the top-k twice.  Callers already dedupe.
  std::erase_if(patterns,
                [&](const Pattern& p) { return scores_.contains(p); });
  if (patterns.empty()) return;
  TP_TRACE_SPAN("miner/score_batch");
  // The batch runs against the ω that held when it was staged.  A
  // batch's own offers can only raise ω, so this is conservative (never
  // skips or abandons a candidate the final ω would keep) — and it is
  // what makes the skip decisions and abandonment points, and hence the
  // memoized bounds, independent of the worker count.
  const double omega = top_k_.Omega();
  // Split bound (exact mode): a candidate whose memo-only bound is below
  // ω can neither enter the top-k nor turn high under any later ω, so it
  // memoizes the bound and is never warmed or scanned.  Every bound
  // reads the memo as of batch entry.  Beam mode scans everything,
  // because its min-max ranking reads memo values as scores.
  std::vector<double> bounds(patterns.size(), kPosInf);
  if (options_.max_candidates_per_iteration == 0 && omega > kNegInf) {
    TP_TRACE_SPAN("miner/split_bound");
    const size_t n = engine_->data().size();
    for (size_t i = 0; i < patterns.size(); ++i) {
      bounds[i] = SplitBound(patterns[i].cells(), scores_, n);
    }
  }
  const auto is_bounded = [&](size_t i) { return bounds[i] < omega; };
  size_t bounded = 0;
  for (size_t i = 0; i < patterns.size(); ++i) bounded += is_bounded(i);
  std::vector<Pattern> scan;
  scan.reserve(patterns.size() - bounded);
  for (size_t i = 0; i < patterns.size(); ++i) {
    if (!is_bounded(i)) scan.push_back(std::move(patterns[i]));
  }

  const double prune_below =
      options_.omega_pruning ? omega : NmEngine::kNoPruning;
  BatchScoreStats bstats;
  const std::vector<double> nms =
      engine_->NmTotalBatch(scan, options_.num_threads, &bstats, prune_below,
                            &options_.run);
  AccumulateBatch(bstats, &stats_);
  if (bstats.stop != StopReason::kNone) {
    // Discard the whole batch, skip decisions included: under a
    // mid-batch stop `nms` holds a mix of real scores and unclaimed
    // defaults, and feeding any of it to the memo would fork this run
    // from its uninterrupted twin.  Memo and top-k stay exactly at the
    // last completed batch, which is what keeps the best-so-far answer
    // exact and the last checkpoint a bit-identical resume point.
    stats_.stop_reason = bstats.stop;
    stats_.aborted = true;
    return;
  }
  TP_COUNTER_ADD("miner.candidates_evaluated", patterns.size());
  TP_COUNTER_ADD("miner.candidates_pruned",
                 bstats.candidates_pruned + bounded);
  TP_COUNTER_ADD("miner.candidates_bounded", bounded);
  TP_COUNTER_ADD("miner.trajectories_skipped", bstats.trajectories_skipped);
  stats_.candidates_evaluated += static_cast<int64_t>(patterns.size());
  stats_.candidates_pruned += static_cast<int64_t>(bounded);
  // Serial epilogue in staged order: the memo and top-k offers land
  // exactly as the serial one-at-a-time loop would.  A bounded or
  // ω-pruned candidate's memo value is an upper bound below ω: the
  // top-k would reject it, and the rebuild/1-extension consumers
  // classify it low — exactly as its exact score would be.
  size_t next = 0;
  for (size_t i = 0; i < patterns.size(); ++i) {
    if (is_bounded(i)) {
      scores_.emplace(std::move(patterns[i]), bounds[i]);
      continue;
    }
    const double nm = nms[next];
    const auto it = scores_.emplace(std::move(scan[next]), nm).first;
    ++next;
    if (Eligible(it->first)) top_k_.Offer(it->first, nm);
  }
}

MiningResult TrajPatternMiner::Mine() { return Run(nullptr); }

MiningResult TrajPatternMiner::Mine(const MinerCheckpoint& resume) {
  return Run(&resume);
}

MinerCheckpoint TrajPatternMiner::MakeCheckpoint(
    int completed_iterations, const PatternSet& prev_high,
    const PatternSet& prev_queue) const {
  return MakeBaseCheckpoint(completed_iterations, options_.k, top_k_.Omega(),
                            scores_, prev_high, prev_queue,
                            stats_.candidates_evaluated,
                            stats_.candidates_pruned);
}

MiningResult TrajPatternMiner::Run(const MinerCheckpoint* resume) {
  WallTimer timer;
  TP_TRACE_SPAN("miner/mine");

  // Journal the run lifecycle (no-ops when the journal is inactive).
  // Events fire only at iteration boundaries, so this costs nothing on
  // the scoring hot path and never perturbs the top-k.
  obs::RunJournal& journal = obs::RunJournal::Global();
  const int64_t jrun =
      journal.BeginRun(options_.k, /*num_shards=*/0, resume != nullptr);

  if (resume != nullptr) {
    // Restore the score memo and re-derive the top-k/ω from it (the k
    // best eligible patterns under the strict BetterScored order are
    // unique, so the offer order cannot matter).  NM values round-trip
    // bit-exactly through the checkpoint, which is what makes a resumed
    // run's answer bit-identical to an uninterrupted one.
    assert(resume->k == options_.k);
    for (const ScoredPattern& sp : resume->scores) {
      scores_.emplace(sp.pattern, sp.nm);
      if (Eligible(sp.pattern)) top_k_.Offer(sp.pattern, sp.nm);
    }
    stats_.iterations = resume->iteration;
    stats_.candidates_evaluated = resume->candidates_evaluated;
    stats_.candidates_pruned = resume->candidates_pruned;
  }

  // Step 1: singular patterns form the initial Q (§4: "the grid centers
  // serve as the singular patterns").  On resume every singular is
  // already in the memo and `ScoreBatch` skips the whole batch.
  std::vector<CellId> alphabet;
  if (options_.restrict_to_touched_cells) {
    alphabet = engine_->TouchedCells(options_.touched_radius_sigmas);
  } else {
    alphabet.resize(engine_->space().grid.num_cells());
    for (int c = 0; c < engine_->space().grid.num_cells(); ++c) {
      alphabet[c] = c;
    }
  }
  stats_.alphabet_size = alphabet.size();
  // One batch warms every touched cell's column up front and scores the
  // singulars across the workers.
  std::vector<Pattern> singulars;
  singulars.reserve(alphabet.size());
  for (CellId c : alphabet) singulars.emplace_back(c);
  ScoreBatch(std::move(singulars));

  // The high set H and the retained set Q.  Q is rebuilt from the global
  // score memo every round: a low pattern pruned in an earlier round must
  // re-enter Q as soon as its length-(m-1) prefix or suffix turns high,
  // otherwise Lemma 1's seed pool would be incomplete.
  PatternSet high;
  std::vector<Pattern> queue;
  auto rebuild = [&]() {
    RebuildFrontier(scores_, top_k_.Omega(), &high, &queue);
    stats_.peak_queue_size = std::max(stats_.peak_queue_size, queue.size());
  };
  rebuild();

  // The H and Q snapshots that the previous round's generation ran over;
  // see the frontier rule below.  These are the only pieces of mining
  // state not derivable from the memo, so a resume restores them.
  PatternSet prev_high;
  PatternSet prev_queue;
  if (resume != nullptr) {
    prev_high.insert(resume->prev_high.begin(), resume->prev_high.end());
    prev_queue.insert(resume->prev_queue.begin(), resume->prev_queue.end());
  }
  const int start_iteration = resume != nullptr ? resume->iteration : 0;

  // The sink's view of the run.  `last_cp` always holds the checkpoint
  // of the newest completed boundary; `sink_has_latest` says whether the
  // sink already received it.  Until the first in-loop boundary that is
  // the start boundary (post-singulars, pre-iteration), which the sink
  // has never seen — if a stop fires mid-iteration before any boundary
  // delivery, it is emitted below so an aborted run always leaves a
  // resumable checkpoint behind.  (A stop during the singular batch
  // itself predates any resumable state; such a run resumes from
  // scratch.)
  const bool has_sink = static_cast<bool>(options_.checkpoint_sink);
  std::optional<MinerCheckpoint> last_cp;
  bool sink_has_latest = false;
  if (has_sink && !stats_.aborted) {
    last_cp = MakeCheckpoint(start_iteration, prev_high, prev_queue);
  }

  // `prev_high` is the H snapshot the checkpointed run's last generation
  // ran over — i.e. the `high_old` of its convergence test.  If the
  // rebuilt H equals it, the original run stopped at exactly this
  // boundary; running another iteration here would stage pairs against
  // the since-expanded Q and evaluate candidates the uninterrupted run
  // never saw (same top-k, but inflated work counters — the resumed run
  // would no longer be a faithful continuation).
  const bool resumed_after_convergence = resume != nullptr &&
                                         start_iteration > 0 &&
                                         high == prev_high;

  // Journal baselines: ω-tightening and eviction events carry deltas
  // against these.
  double journal_omega = top_k_.Omega();
  int64_t journal_evicted = stats_.cells_evicted;

  // Growing loop (§4): extend high patterns, rescore, re-threshold, prune.
  for (int iter = start_iteration;
       !stats_.aborted && !resumed_after_convergence &&
       iter < options_.max_iterations;
       ++iter) {
    // Batch-boundary poll: catches a cancel/deadline that fired between
    // iterations (workers additionally poll mid-batch).
    const StopReason sr = options_.run.CheckStop();
    if (sr != StopReason::kNone) {
      stats_.stop_reason = sr;
      stats_.aborted = true;
      break;
    }
    TP_TRACE_SPAN("miner/iteration");
    TP_COUNTER_INC("miner.iterations");
    ++stats_.iterations;

    // Candidate generation (shared with the sharded miner — see
    // `GenerateCandidates`): H x Q in both orders under the frontier
    // rule, wildcard joiners, and the beam fallback.
    std::vector<Pattern> candidates =
        GenerateCandidates(options_, scores_, high, queue, prev_high,
                           prev_queue, &stats_.hit_candidate_cap);
    prev_high = high;
    prev_queue.clear();
    prev_queue.insert(queue.begin(), queue.end());
    stats_.candidates_generated += static_cast<int64_t>(candidates.size());
    TP_COUNTER_ADD("miner.candidates_generated", candidates.size());
    TP_HISTOGRAM_OBSERVE("miner.iteration_candidates", candidates.size(),
                         {10, 100, 1000, 10000, 100000});

    ScoreBatch(std::move(candidates));
    // A stop mid-batch discarded the whole generation; the memo is still
    // exactly the last boundary's, so `last_cp` stays valid.
    if (stats_.aborted) break;

    // Re-threshold, relabel, prune (§4.1).
    PatternSet high_old = std::move(high);
    rebuild();

    if (journal.active()) {
      if (stats_.cells_evicted > journal_evicted) {
        obs::JournalEvent ev;
        ev.type = obs::JournalEventType::kCellsEvicted;
        ev.run_id = jrun;
        ev.iteration = iter + 1;
        ev.cells_evicted = stats_.cells_evicted - journal_evicted;
        journal.Emit(ev);
        journal_evicted = stats_.cells_evicted;
      }
      if (top_k_.Omega() > journal_omega) {
        obs::JournalEvent ev;
        ev.type = obs::JournalEventType::kOmegaTightened;
        ev.run_id = jrun;
        ev.iteration = iter + 1;
        ev.omega = top_k_.Omega();
        journal.Emit(ev);
        journal_omega = top_k_.Omega();
      }
      obs::JournalEvent ev;
      ev.type = obs::JournalEventType::kRoundCommitted;
      ev.run_id = jrun;
      ev.iteration = iter + 1;
      ev.omega = top_k_.Omega();
      ev.candidates_evaluated = stats_.candidates_evaluated;
      ev.candidates_pruned = stats_.candidates_pruned;
      ev.frontier_depth = static_cast<int64_t>(queue.size());
      journal.Emit(ev);
    }

    const bool converged = high == high_old;
    if (has_sink) {
      // The iteration boundary is the resumable point: the memo and the
      // frontier snapshots fully determine everything the next iteration
      // does.  A sink veto stops here; `Mine(checkpoint)` picks it up.
      TP_TRACE_SPAN("miner/checkpoint");
      MinerCheckpoint cp = MakeCheckpoint(iter + 1, prev_high, prev_queue);
      const bool keep_going = options_.checkpoint_sink(cp);
      last_cp = std::move(cp);
      sink_has_latest = true;
      if (journal.active()) {
        obs::JournalEvent ev;
        ev.type = obs::JournalEventType::kCheckpointWritten;
        ev.run_id = jrun;
        ev.iteration = iter + 1;
        ev.omega = top_k_.Omega();
        journal.Emit(ev);
      }
      if (!keep_going) {
        stats_.aborted = true;
        stats_.stop_reason = StopReason::kSinkVeto;
        break;
      }
    }
    if (converged) break;
    if (iter + 1 == options_.max_iterations) stats_.hit_iteration_cap = true;
  }

  // An abort before this segment's first boundary delivery leaves the
  // sink without the start-boundary state; emit it now so every aborted
  // run (past the singular batch) ends with a resumable checkpoint on
  // record.  The veto answer is ignored — the run is already stopping.
  if (stats_.aborted && stats_.stop_reason != StopReason::kSinkVeto &&
      has_sink && last_cp.has_value() && !sink_has_latest) {
    TP_TRACE_SPAN("miner/checkpoint");
    (void)options_.checkpoint_sink(*last_cp);
    if (journal.active()) {
      obs::JournalEvent ev;
      ev.type = obs::JournalEventType::kCheckpointWritten;
      ev.run_id = jrun;
      ev.iteration = last_cp->iteration;
      ev.omega = last_cp->omega;
      ev.detail = "tail";
      journal.Emit(ev);
    }
  }

  MiningResult result;
  result.patterns = top_k_.Sorted();
  stats_.seconds = timer.Seconds();
  stats_.cells_cached = engine_->num_cached_cells();
  result.stats = stats_;
  if (journal.active()) {
    obs::JournalEvent ev;
    ev.type = obs::JournalEventType::kRunStopped;
    ev.run_id = jrun;
    ev.iteration = stats_.iterations;
    ev.omega = top_k_.Omega();
    ev.candidates_evaluated = stats_.candidates_evaluated;
    ev.candidates_pruned = stats_.candidates_pruned;
    ev.stop_reason = StopReasonName(stats_.stop_reason);
    journal.Emit(ev);
  }
  return result;
}

MiningResult MineTrajPatterns(const NmEngine& engine,
                              const MinerOptions& options,
                              const MinerCheckpoint* resume) {
  if (options.num_shards > 0) {
    // The sharded path (src/shard) produces the bit-identical top-k via
    // N candidate-partitioned shards and a merging coordinator.
    return MineShardedDispatch(engine, options, resume);
  }
  TrajPatternMiner miner(&engine, options);
  return resume != nullptr ? miner.Mine(*resume) : miner.Mine();
}

}  // namespace trajpattern
