#include "core/miner.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "obs/journal.h"
#include "obs/obs.h"
#include "stats/timer.h"

namespace trajpattern {
namespace {

/// One round's high set H and retained queue Q (§4.1).  Both hold ids of
/// the `ScoreMemo` in ascending order, i.e. in insertion order, so two
/// snapshots of one memo compare as sets with `==`.  Exact mining never
/// depends on the order within a list: the candidate set, the scores, ω
/// and the top-k are the same for any walk order.
struct Frontier {
  std::vector<ScoreMemo::Id> high;
  std::vector<ScoreMemo::Id> queue;
};

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
void ForEachMemoizedCut(std::span<const CellId> cells, const ScoreMemo& scores,
                        Visit&& visit) {
  for (size_t cut = 1; cut < cells.size(); ++cut) {
    const double* left = scores.find(cells.first(cut));
    if (left == nullptr) continue;
    const double* right = scores.find(cells.subspan(cut));
    if (right == nullptr) continue;
    visit(cut, *left, *right);
  }
}

/// True iff `ids` ascend strictly and each is an id of `scores`: the
/// shape of a `Frontier` list.
[[maybe_unused]] bool AreAscendingIds(const std::vector<ScoreMemo::Id>& ids,
                                      const ScoreMemo& scores) {
  return std::ranges::adjacent_find(ids, std::greater_equal{}) == ids.end() &&
         (ids.empty() || ids.back() < scores.size());
}

/// True iff `cells` is memoized with a value reaching ω, i.e. is in H.
bool IsHigh(const ScoreMemo& scores, std::span<const CellId> cells,
            double omega) {
  const double* nm = scores.find(cells);
  return nm != nullptr && *nm >= omega;
}

}  // namespace

double SplitBound(std::span<const CellId> pattern, const ScoreMemo& scores,
                  size_t num_trajectories) {
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

namespace {

/// Recomputes the high set H and the retained queue Q from the score
/// memo under threshold `omega` (§4.1): a pattern is high iff its
/// memoized NM (or upper bound) reaches ω, and it is retained iff it is
/// high, singular, or a 1-extension of a high pattern (Lemma 1).  Walks
/// the memo in id order, so both lists come back as ascending ids;
/// refills `*out` in place.
void RebuildFrontier(const ScoreMemo& scores, double omega, Frontier* out) {
  TP_TRACE_SPAN("miner/rebuild");
  TP_GAUGE_SET("miner.omega", omega);
  TP_TRACE_COUNTER("miner/omega", omega);
  TP_GAUGE_SET("miner.memo_bytes", scores.bytes());
  out->high.clear();
  out->queue.clear();
  for (ScoreMemo::Id id = 0; id < scores.size(); ++id) {
    if (scores.nm(id) >= omega) {
      out->high.push_back(id);
      out->queue.push_back(id);
      continue;
    }
    // Lemma 1: a low pattern stays while its length-(m-1) suffix or
    // prefix is high; both are probed as sub-spans, without a copy.
    const std::span<const CellId> cells = scores.cells(id);
    if (cells.size() == 1 || IsHigh(scores, cells.subspan(1), omega) ||
        IsHigh(scores, cells.first(cells.size() - 1), omega)) {
      out->queue.push_back(id);
    }
  }
  TP_GAUGE_SET("miner.queue_depth", out->queue.size());
  TP_GAUGE_SET("miner.high_set_size", out->high.size());
  TP_TRACE_COUNTER("miner/queue_depth", static_cast<double>(out->queue.size()));
}

/// One iteration's candidate generation (§4 extension step, §5 wildcard
/// joiners, beam fallback): every high pattern concatenated with every
/// retained pattern in both orders, the frontier rule skipping pairs
/// whose halves were both in `state`'s snapshots (last round's H and Q),
/// deduplicated against `state`'s memo and within the batch.  Each
/// concatenation is staged in one reusable cell buffer, probed by span,
/// and a new one is interned into the returned batch, a `ScoreMemo`
/// whose values are unused; no `Pattern` is built.  In beam mode
/// (`options.max_candidates_per_iteration > 0`) the staged set is
/// truncated to the best min-max bounds, round-robined across length
/// strata, into a fresh batch; `*hit_candidate_cap` reports a
/// truncation.  Deterministic: the batch's id order is a pure function
/// of the inputs.  In exact mode it follows the frontier's id order, so
/// only the order, never the set, depends on the memo's insertion order.
ScoreMemo GenerateCandidates(const MinerOptions& options,
                             const MinerCheckpoint& state,
                             const Frontier& current,
                             bool* hit_candidate_cap) {
  using Id = ScoreMemo::Id;
  const ScoreMemo& scores = state.scores;
  // Candidate generation: P in H extended with every P' in Q, both
  // orders.  Because one side is always high, every candidate respects
  // the min-max seed rule (observation 3 of §4).  Exact mode walks both
  // lists in place, in their id order.
  //
  // In beam mode the generation itself must stay bounded: with a
  // min-length constraint the threshold omega is -inf until k eligible
  // patterns exist, which makes everything high and |H| x |Q| explode.
  // We then walk both sets in NM-descending order (the most promising
  // combinations first) and stop once enough candidates are staged for
  // the beam to rank.
  const size_t cap = options.max_candidates_per_iteration;
  const bool beam = cap > 0;
  std::vector<Id> high_by_nm;
  std::vector<Id> queue_by_nm;
  if (beam) {
    auto by_nm_desc = [&](Id a, Id b) {
      const double na = scores.nm(a);
      const double nb = scores.nm(b);
      if (na != nb) return na > nb;
      return scores.Less(a, b);
    };
    high_by_nm = current.high;
    queue_by_nm = current.queue;
    std::sort(high_by_nm.begin(), high_by_nm.end(), by_nm_desc);
    std::sort(queue_by_nm.begin(), queue_by_nm.end(), by_nm_desc);
  }
  const std::vector<Id>& high = beam ? high_by_nm : current.high;
  const std::vector<Id>& queue = beam ? queue_by_nm : current.queue;
  const size_t generation_budget =
      beam ? 4 * cap : std::numeric_limits<size_t>::max();
  ScoreMemo staged_set;
  std::vector<CellId> staged;
  // Stage the two concatenation orders a·*^gap·b and b·*^gap·a of a pair
  // (§5 wildcard joiners put 0..d '*' positions between the halves).
  // Each is assembled in `staged` and probed by span.  The length test
  // runs first: with a depth cap most pairs are over-length.
  auto stage_pair = [&](std::span<const CellId> a, size_t gap,
                        std::span<const CellId> b) {
    if (options.max_pattern_length > 0 &&
        a.size() + gap + b.size() > options.max_pattern_length) {
      return;
    }
    for (const auto& [first, second] : {std::pair(a, b), std::pair(b, a)}) {
      staged.assign(first.begin(), first.end());
      staged.insert(staged.end(), gap, kWildcardCell);
      staged.insert(staged.end(), second.begin(), second.end());
      if (!scores.contains(staged)) staged_set.emplace(staged, 0.0);
    }
  };
  // Frontier rule: a pair whose halves were BOTH already in last
  // round's H and Q generated its candidates last round (exact mode
  // stages every pair, so this is lossless there; in beam mode it
  // avoids re-walking quadratically many known pairs every round).
  // Every snapshot id is a memo id, so membership is one flag each.
  constexpr uint8_t kPrevHigh = 1;
  constexpr uint8_t kPrevQueue = 2;
  std::vector<uint8_t> in_prev(scores.size(), 0);
  for (const Id id : state.prev_high) in_prev[id] |= kPrevHigh;
  for (const Id id : state.prev_queue) in_prev[id] |= kPrevQueue;
  for (const Id p : high) {
    if (staged_set.size() >= generation_budget) break;
    const bool p_old = (in_prev[p] & kPrevHigh) != 0;
    const std::span<const CellId> p_cells = scores.cells(p);
    for (const Id q : queue) {
      if (staged_set.size() >= generation_budget) break;
      if (p_old && (in_prev[q] & kPrevQueue) != 0) continue;
      const std::span<const CellId> q_cells = scores.cells(q);
      for (int gap = 0; gap <= options.max_wildcards; ++gap) {
        stage_pair(p_cells, static_cast<size_t>(gap), q_cells);
      }
    }
  }
  if (!beam || staged_set.size() <= cap) return staged_set;

  // Beam fallback: keep the candidates whose worse half is best — the
  // min-max property bounds a pattern's NM by the max of any cut, so a
  // candidate with two strong halves is the most promising.  The beam is
  // stratified by candidate length: ranking by bound alone would let the
  // (always better-bounded) short candidates starve the long ones, and
  // with a min-length constraint the threshold omega never tightens
  // until long patterns exist at all.
  if (hit_candidate_cap != nullptr) *hit_candidate_cap = true;
  const auto length = [&](Id id) { return staged_set.cells(id).size(); };
  std::vector<double> bound(staged_set.size(), kNegInf);
  for (Id id = 0; id < staged_set.size(); ++id) {
    double& best = bound[id];
    ForEachMemoizedCut(staged_set.cells(id), scores,
                       [&](size_t, double left, double right) {
                         best = std::max(best, std::min(left, right));
                       });
  }
  // Rank each length's candidates best bound first, then fill the beam
  // round-robin across lengths: ascending (rank, length).
  std::vector<Id> order(staged_set.size());
  std::iota(order.begin(), order.end(), Id{0});
  std::sort(order.begin(), order.end(), [&](Id a, Id b) {
    if (length(a) != length(b)) return length(a) < length(b);
    if (bound[a] != bound[b]) return bound[a] > bound[b];
    return staged_set.Less(a, b);
  });
  std::vector<size_t> rank(staged_set.size(), 0);
  for (size_t i = 1; i < order.size(); ++i) {
    if (length(order[i]) == length(order[i - 1])) {
      rank[order[i]] = rank[order[i - 1]] + 1;
    }
  }
  std::partial_sort(order.begin(), order.begin() + cap, order.end(),
                    [&](Id a, Id b) {
                      if (rank[a] != rank[b]) return rank[a] < rank[b];
                      return length(a) < length(b);
                    });
  ScoreMemo kept;
  for (size_t i = 0; i < cap; ++i) {
    kept.emplace(staged_set.cells(order[i]), 0.0);
  }
  return kept;
}

}  // namespace

TrajPatternMiner::TrajPatternMiner(const NmEngine* engine,
                                   const MinerOptions& options)
    : engine_(engine), options_(options), top_k_(options.k) {
  state_.k = options.k;
}

void TrajPatternMiner::ScoreBatch(const ScoreMemo& batch) {
  using Id = ScoreMemo::Id;
  if (batch.size() == 0) return;
  TP_TRACE_SPAN("miner/score_batch");
  ScoreMemo& scores = state_.scores;
  // The batch runs against the ω that held when it was staged.  A
  // batch's own offers can only raise ω, so this is conservative (never
  // skips a candidate the final ω would keep) — and it is what makes the
  // skip decisions, and hence the memoized bounds, independent of the
  // worker count.
  const double omega = top_k_.Omega();
  // Split bound (exact mode): a candidate whose memo-only bound is below
  // ω can neither enter the top-k nor turn high under any later ω, so it
  // memoizes the bound and is never warmed or scanned.  Every bound
  // reads the memo as of batch entry.  Beam mode scans everything,
  // because its min-max ranking reads memo values as scores.
  std::vector<double> bounds(batch.size(), kPosInf);
  if (options_.max_candidates_per_iteration == 0 && omega > kNegInf) {
    TP_TRACE_SPAN("miner/split_bound");
    const size_t n = engine_->data().size();
    for (Id id = 0; id < batch.size(); ++id) {
      bounds[id] = SplitBound(batch.cells(id), scores, n);
    }
  }
  const auto is_bounded = [&](Id id) { return bounds[id] < omega; };
  std::vector<Pattern> scan;
  for (Id id = 0; id < batch.size(); ++id) {
    if (!is_bounded(id)) scan.push_back(batch.pattern(id));
  }
  const size_t bounded = batch.size() - scan.size();

  BatchScoreStats bstats;
  const std::vector<double> nms = engine_->NmTotalBatch(
      scan, options_.num_threads, &bstats, &options_.run);
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
  TP_COUNTER_ADD("miner.candidates_evaluated", batch.size());
  TP_COUNTER_ADD("miner.candidates_pruned", bounded);
  stats_.candidates_evaluated += static_cast<int64_t>(batch.size());
  stats_.candidates_pruned += static_cast<int64_t>(bounded);
  // Serial epilogue in batch order: the memo and top-k offers land
  // exactly as the serial one-at-a-time loop would.  A bounded
  // candidate's memo value is an upper bound below ω: the top-k would
  // reject it, and the rebuild/1-extension consumers classify it low —
  // exactly as its exact score would be.
  scores.reserve(scores.size() + batch.size(),
                 scores.num_cells() + batch.num_cells());
  size_t next = 0;
  for (Id id = 0; id < batch.size(); ++id) {
    const std::span<const CellId> cells = batch.cells(id);
    if (is_bounded(id)) {
      scores.emplace(cells, bounds[id]);
      continue;
    }
    const double nm = nms[next++];
    if (scores.emplace(cells, nm) && Eligible(cells.size())) {
      top_k_.Offer(cells, nm);
    }
  }
}

MiningResult TrajPatternMiner::Mine() { return Run(nullptr); }

MiningResult TrajPatternMiner::Mine(const MinerCheckpoint& resume) {
  return Run(&resume);
}

MiningResult TrajPatternMiner::Run(const MinerCheckpoint* resume) {
  WallTimer timer;
  TP_TRACE_SPAN("miner/mine");

  // Journal the run lifecycle (no-ops when the journal is inactive).
  // Events fire only at iteration boundaries, so this costs nothing on
  // the scoring hot path and never perturbs the top-k.
  obs::RunJournal& journal = obs::RunJournal::Global();
  const int64_t jrun = journal.BeginRun(options_.k, resume != nullptr);

  if (resume != nullptr) {
    // Restore the state and re-derive the top-k/ω from its memo (the k
    // best eligible patterns under the strict BetterScored order are
    // unique, so the offer order cannot matter).  NM values round-trip
    // bit-exactly through the checkpoint, which is what makes a resumed
    // run's answer bit-identical to an uninterrupted one.
    assert(resume->k == options_.k);
    assert(!CheckpointCellOutsideGrid(*resume, engine_->space().grid));
    assert(AreAscendingIds(resume->prev_high, resume->scores));
    assert(AreAscendingIds(resume->prev_queue, resume->scores));
    state_ = *resume;
    for (ScoreMemo::Id id = 0; id < state_.scores.size(); ++id) {
      if (Eligible(state_.scores.cells(id).size())) {
        top_k_.Offer(state_.scores.cells(id), state_.scores.nm(id));
      }
    }
    stats_.iterations = resume->iteration;
    stats_.candidates_evaluated = resume->candidates_evaluated;
    stats_.candidates_pruned = resume->candidates_pruned;
    stats_.hit_candidate_cap = resume->hit_candidate_cap;
  }
  const ScoreMemo& scores = state_.scores;

  // Step 1: singular patterns form the initial Q (§4: "the grid centers
  // serve as the singular patterns").  On resume every singular is
  // normally in the memo already, and the batch holds only those that
  // are not.
  const std::vector<CellId> alphabet = engine_->SingularAlphabet(
      options_.restrict_to_touched_cells, options_.touched_radius_sigmas);
  stats_.alphabet_size = alphabet.size();
  // One batch warms every touched cell's column up front and scores the
  // singulars across the workers.
  ScoreMemo singulars;
  for (const CellId c : alphabet) {
    const std::span<const CellId> cell(&c, 1);
    if (!scores.contains(cell)) singulars.emplace(cell, 0.0);
  }
  ScoreBatch(singulars);
  // A stop during the singular batch predates any resumable state; such
  // a run resumes from scratch.
  const bool resumable = !stats_.aborted;

  // The high set H and the retained set Q.  Q is rebuilt from the global
  // score memo every round: a low pattern pruned in an earlier round must
  // re-enter Q as soon as its length-(m-1) prefix or suffix turns high,
  // otherwise Lemma 1's seed pool would be incomplete.
  Frontier frontier;
  auto rebuild = [&]() {
    RebuildFrontier(scores, top_k_.Omega(), &frontier);
    stats_.peak_queue_size =
        std::max(stats_.peak_queue_size, frontier.queue.size());
  };
  rebuild();

  const int start_iteration = resume != nullptr ? resume->iteration : 0;

  // Hands the sink the live state, its scalars stamped for boundary
  // `iteration`, and journals the delivery; returns the sink's answer.
  // `sink_has_latest` says whether the sink received any boundary since
  // the start one (post-singulars, pre-iteration), which it has never
  // seen.
  const bool has_sink = static_cast<bool>(options_.checkpoint_sink);
  bool sink_has_latest = false;
  auto deliver = [&](int iteration, const char* detail) {
    TP_TRACE_SPAN("miner/checkpoint");
    state_.iteration = iteration;
    state_.omega = top_k_.Omega();
    state_.candidates_evaluated = stats_.candidates_evaluated;
    state_.candidates_pruned = stats_.candidates_pruned;
    state_.hit_candidate_cap = stats_.hit_candidate_cap;
    const bool keep_going = options_.checkpoint_sink(state_);
    if (journal.active()) {
      obs::JournalEvent ev;
      ev.type = obs::JournalEventType::kCheckpointWritten;
      ev.run_id = jrun;
      ev.iteration = iteration;
      ev.omega = state_.omega;
      ev.detail = detail;
      journal.Emit(ev);
    }
    return keep_going;
  };

  // `prev_high` is the H snapshot the checkpointed run's last generation
  // ran over — i.e. the H its convergence test compared against.  If the
  // rebuilt H equals it, the original run stopped at exactly this
  // boundary; running another iteration here would stage pairs against
  // the since-expanded Q and evaluate candidates the uninterrupted run
  // never saw (same top-k, but inflated work counters — the resumed run
  // would no longer be a faithful continuation).
  const bool resumed_after_convergence = resume != nullptr &&
                                         start_iteration > 0 &&
                                         frontier.high == state_.prev_high;

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

    // Candidate generation (see `GenerateCandidates`): H x Q in both
    // orders under the frontier rule, wildcard joiners, and the beam
    // fallback.
    const ScoreMemo candidates = GenerateCandidates(
        options_, state_, frontier, &stats_.hit_candidate_cap);
    stats_.candidates_generated += static_cast<int64_t>(candidates.size());
    TP_COUNTER_ADD("miner.candidates_generated", candidates.size());
    TP_HISTOGRAM_OBSERVE("miner.iteration_candidates", candidates.size(),
                         {10, 100, 1000, 10000, 100000});

    ScoreBatch(candidates);
    // A stop mid-batch discarded the whole generation; the state is
    // still exactly the last boundary's.
    if (stats_.aborted) break;

    // The batch landed: this round's H and Q become the snapshots, and
    // the rebuild re-thresholds, relabels and prunes (§4.1) into the
    // frontier in place.
    state_.prev_high.swap(frontier.high);
    state_.prev_queue.swap(frontier.queue);
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
      ev.frontier_depth = static_cast<int64_t>(frontier.queue.size());
      journal.Emit(ev);
    }

    const bool converged = frontier.high == state_.prev_high;
    if (has_sink) {
      // The iteration boundary is the resumable point: the memo and the
      // frontier snapshots fully determine everything the next iteration
      // does.  A sink veto stops here; `Mine(checkpoint)` picks it up.
      const bool keep_going = deliver(iter + 1, "");
      sink_has_latest = true;
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
  // sink without the start-boundary state, which the live state still
  // is; deliver it now so every aborted run (past the singular batch)
  // ends with a resumable checkpoint on record.  The veto answer is
  // ignored — the run is already stopping.
  if (stats_.aborted && stats_.stop_reason != StopReason::kSinkVeto &&
      has_sink && resumable && !sink_has_latest) {
    (void)deliver(start_iteration, "tail");
  }

  MiningResult result;
  result.patterns = top_k_.Sorted();
  stats_.seconds = timer.Seconds();
  stats_.cells_cached = engine_->num_cached_cells();
  stats_.memo_bytes = scores.bytes();
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

std::optional<CellId> CheckpointCellOutsideGrid(const MinerCheckpoint& cp,
                                                const Grid& grid) {
  for (ScoreMemo::Id id = 0; id < cp.scores.size(); ++id) {
    if (const std::optional<CellId> c =
            PatternCellOutsideGrid(cp.scores.cells(id), grid)) {
      return c;
    }
  }
  return std::nullopt;
}

MiningResult MineTrajPatterns(const NmEngine& engine,
                              const MinerOptions& options,
                              const MinerCheckpoint* resume) {
  TrajPatternMiner miner(&engine, options);
  return resume != nullptr ? miner.Mine(*resume) : miner.Mine();
}

}  // namespace trajpattern
