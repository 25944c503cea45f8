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

/// One round's high set H and retained queue Q (§4.1).  Both hold ids of
/// the `ScoreMemo`, in ascending cell order (`ScoreMemo::SortedIds`
/// order), so two snapshots compare as sets with `==`.
struct Frontier {
  std::vector<ScoreMemo::Id> high;
  std::vector<ScoreMemo::Id> queue;
};

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
/// the memo in `SortedIds` order, so both lists come back sorted and
/// iteration order is deterministic; refills `*out` in place.
void RebuildFrontier(const ScoreMemo& scores, double omega, Frontier* out) {
  TP_TRACE_SPAN("miner/rebuild");
  TP_GAUGE_SET("miner.omega", omega);
  TP_TRACE_COUNTER("miner/omega", omega);
  TP_GAUGE_SET("miner.memo_bytes", scores.bytes());
  out->high.clear();
  out->queue.clear();
  for (const ScoreMemo::Id id : scores.SortedIds()) {
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

/// The frontier snapshots a checkpoint carries, as ids of `scores` (the
/// memo restored from the same checkpoint).  A snapshot pattern missing
/// from the memo is dropped: generation only walks memo entries, so it
/// cannot matter there.  Returns false iff a `prev_high` pattern was
/// dropped, in which case the snapshot cannot equal any rebuilt H.
bool FrontierFromCheckpoint(const ScoreMemo& scores, const MinerCheckpoint& cp,
                            Frontier* prev) {
  auto to_ids = [&](const std::vector<Pattern>& patterns,
                    std::vector<ScoreMemo::Id>* ids) {
    ids->clear();
    bool complete = true;
    for (const Pattern& p : patterns) {
      const ScoreMemo::Id id = scores.FindId(p.cells());
      if (id == ScoreMemo::kNoId) {
        complete = false;
      } else {
        ids->push_back(id);
      }
    }
    std::sort(ids->begin(), ids->end(), [&](ScoreMemo::Id a, ScoreMemo::Id b) {
      return scores.Less(a, b);
    });
    ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
    return complete;
  };
  const bool high_complete = to_ids(cp.prev_high, &prev->high);
  to_ids(cp.prev_queue, &prev->queue);
  return high_complete;
}

/// One iteration's candidate generation (§4 extension step, §5 wildcard
/// joiners, beam fallback): every high pattern concatenated with every
/// retained pattern in both orders, the frontier rule skipping pairs
/// whose halves were both in `prev` (last round's H and Q),
/// deduplicated against the memo and within the batch.  Each
/// concatenation is staged in one reusable cell buffer and probed by
/// span; only a new candidate becomes a `Pattern`.  In beam mode
/// (`options.max_candidates_per_iteration > 0`) the staged set is
/// truncated to the best min-max bounds, round-robined across length
/// strata; `*hit_candidate_cap` reports a truncation.  Deterministic:
/// the output order is a pure function of the inputs.
std::vector<Pattern> GenerateCandidates(const MinerOptions& options,
                                        const ScoreMemo& scores,
                                        const Frontier& current,
                                        const Frontier& prev,
                                        bool* hit_candidate_cap) {
  using Id = ScoreMemo::Id;
  // Candidate generation: P in H extended with every P' in Q, both
  // orders.  Because one side is always high, every candidate respects
  // the min-max seed rule (observation 3 of §4).  Exact mode walks both
  // lists in place, in their ascending cell order.
  //
  // In beam mode the generation itself must stay bounded: with a
  // min-length constraint the threshold omega is -inf until k eligible
  // patterns exist, which makes everything high and |H| x |Q| explode.
  // We then walk both sets in NM-descending order (the most promising
  // combinations first) and stop once enough candidates are staged for
  // the beam to rank.
  const bool beam = options.max_candidates_per_iteration > 0;
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
      beam ? 4 * options.max_candidates_per_iteration
           : std::numeric_limits<size_t>::max();
  std::vector<Pattern> candidates;
  // Candidates staged by this call, for the within-batch dedupe.
  ScoreMemo staged_set;
  std::vector<CellId> staged;
  // Stage the two concatenation orders a·*^gap·b and b·*^gap·a of a pair
  // (§5 wildcard joiners put 0..d '*' positions between the halves).
  // Each is assembled in `staged` and probed by span; only a new one
  // becomes a `Pattern`.  The length test runs first: with a depth cap
  // most pairs are over-length.
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
      if (scores.contains(staged) || !staged_set.emplace(staged, 0.0)) {
        continue;
      }
      candidates.emplace_back(staged);
    }
  };
  // Frontier rule: a pair whose halves were BOTH already in last
  // round's H and Q generated its candidates last round (exact mode
  // stages every pair, so this is lossless there; in beam mode it
  // avoids re-walking quadratically many known pairs every round).
  // Every id in `prev` is a memo id, so membership is one flag each.
  constexpr uint8_t kPrevHigh = 1;
  constexpr uint8_t kPrevQueue = 2;
  std::vector<uint8_t> in_prev(scores.size(), 0);
  for (const Id id : prev.high) in_prev[id] |= kPrevHigh;
  for (const Id id : prev.queue) in_prev[id] |= kPrevQueue;
  for (const Id p : high) {
    if (candidates.size() >= generation_budget) break;
    const bool p_old = (in_prev[p] & kPrevHigh) != 0;
    const std::span<const CellId> p_cells = scores.cells(p);
    for (const Id q : queue) {
      if (candidates.size() >= generation_budget) break;
      if (p_old && (in_prev[q] & kPrevQueue) != 0) continue;
      const std::span<const CellId> q_cells = scores.cells(q);
      for (int gap = 0; gap <= options.max_wildcards; ++gap) {
        stage_pair(p_cells, static_cast<size_t>(gap), q_cells);
      }
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

}  // namespace

TrajPatternMiner::TrajPatternMiner(const NmEngine* engine,
                                   const MinerOptions& options)
    : engine_(engine), options_(options), top_k_(options.k) {}

void TrajPatternMiner::ScoreBatch(std::vector<Pattern> patterns) {
  // Defensive re-filter against the memo: scoring a pattern twice would
  // also offer it to the top-k twice.  Callers already dedupe.
  std::erase_if(patterns,
                [&](const Pattern& p) { return scores_.contains(p.cells()); });
  if (patterns.empty()) return;
  TP_TRACE_SPAN("miner/score_batch");
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
  size_t batch_cells = 0;
  std::vector<Pattern> scan;
  scan.reserve(patterns.size() - bounded);
  for (size_t i = 0; i < patterns.size(); ++i) {
    batch_cells += patterns[i].length();
    if (!is_bounded(i)) scan.push_back(std::move(patterns[i]));
  }

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
  TP_COUNTER_ADD("miner.candidates_evaluated", patterns.size());
  TP_COUNTER_ADD("miner.candidates_pruned", bounded);
  stats_.candidates_evaluated += static_cast<int64_t>(patterns.size());
  stats_.candidates_pruned += static_cast<int64_t>(bounded);
  // Serial epilogue in staged order: the memo and top-k offers land
  // exactly as the serial one-at-a-time loop would.  A bounded
  // candidate's memo value is an upper bound below ω: the top-k would
  // reject it, and the rebuild/1-extension consumers classify it low —
  // exactly as its exact score would be.
  scores_.reserve(scores_.size() + patterns.size(),
                  scores_.num_cells() + batch_cells);
  size_t next = 0;
  for (size_t i = 0; i < patterns.size(); ++i) {
    if (is_bounded(i)) {
      scores_.emplace(patterns[i].cells(), bounds[i]);
      continue;
    }
    const Pattern& p = scan[next];
    const double nm = nms[next];
    ++next;
    if (scores_.emplace(p.cells(), nm) && Eligible(p)) top_k_.Offer(p, nm);
  }
}

MiningResult TrajPatternMiner::Mine() { return Run(nullptr); }

MiningResult TrajPatternMiner::Mine(const MinerCheckpoint& resume) {
  return Run(&resume);
}

MinerCheckpoint TrajPatternMiner::MakeCheckpoint(int completed_iterations,
                                                 const Frontier& prev) const {
  MinerCheckpoint cp;
  cp.iteration = completed_iterations;
  cp.k = options_.k;
  cp.omega = top_k_.Omega();
  // Rows in sorted pattern order; the memo keeps that order
  // incrementally, and the frontier lists are already in it.
  cp.scores.reserve(scores_.size());
  for (const ScoreMemo::Id id : scores_.SortedIds()) {
    cp.scores.push_back({scores_.pattern(id), scores_.nm(id)});
  }
  for (const auto& [ids, out] : {std::pair(&prev.high, &cp.prev_high),
                                 std::pair(&prev.queue, &cp.prev_queue)}) {
    out->reserve(ids->size());
    for (const ScoreMemo::Id id : *ids) out->push_back(scores_.pattern(id));
  }
  cp.candidates_evaluated = stats_.candidates_evaluated;
  cp.candidates_pruned = stats_.candidates_pruned;
  return cp;
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
    // Restore the score memo and re-derive the top-k/ω from it (the k
    // best eligible patterns under the strict BetterScored order are
    // unique, so the offer order cannot matter).  NM values round-trip
    // bit-exactly through the checkpoint, which is what makes a resumed
    // run's answer bit-identical to an uninterrupted one.
    assert(resume->k == options_.k);
    assert(!CheckpointCellOutsideGrid(*resume, engine_->space().grid));
    size_t cells = 0;
    for (const ScoredPattern& sp : resume->scores) cells += sp.pattern.length();
    scores_.reserve(resume->scores.size(), cells);
    for (const ScoredPattern& sp : resume->scores) {
      if (scores_.emplace(sp.pattern.cells(), sp.nm) && Eligible(sp.pattern)) {
        top_k_.Offer(sp.pattern, sp.nm);
      }
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
  Frontier frontier;
  auto rebuild = [&]() {
    RebuildFrontier(scores_, top_k_.Omega(), &frontier);
    stats_.peak_queue_size =
        std::max(stats_.peak_queue_size, frontier.queue.size());
  };
  rebuild();

  // The H and Q snapshots that the previous round's generation ran over;
  // see the frontier rule in `GenerateCandidates`.  These are the only
  // pieces of mining state not derivable from the memo, so a resume
  // restores them.
  Frontier prev;
  const bool prev_high_in_memo =
      resume == nullptr || FrontierFromCheckpoint(scores_, *resume, &prev);
  const int start_iteration = resume != nullptr ? resume->iteration : 0;

  // The sink's view of the run.  `last_cp` holds the start boundary
  // (post-singulars, pre-iteration), which the sink has never seen, and
  // `sink_has_latest` says whether the sink received any boundary since.
  // If a stop fires before the first in-loop delivery, `last_cp` is
  // emitted below so an aborted run always leaves a resumable
  // checkpoint behind.  (A stop during the singular batch itself
  // predates any resumable state; such a run resumes from scratch.)
  const bool has_sink = static_cast<bool>(options_.checkpoint_sink);
  std::optional<MinerCheckpoint> last_cp;
  bool sink_has_latest = false;
  if (has_sink && !stats_.aborted) {
    last_cp = MakeCheckpoint(start_iteration, prev);
  }

  // `prev.high` is the H snapshot the checkpointed run's last generation
  // ran over — i.e. the H its convergence test compared against.  If the
  // rebuilt H equals it, the original run stopped at exactly this
  // boundary; running another iteration here would stage pairs against
  // the since-expanded Q and evaluate candidates the uninterrupted run
  // never saw (same top-k, but inflated work counters — the resumed run
  // would no longer be a faithful continuation).
  const bool resumed_after_convergence = resume != nullptr &&
                                         start_iteration > 0 &&
                                         prev_high_in_memo &&
                                         frontier.high == prev.high;

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
    std::vector<Pattern> candidates = GenerateCandidates(
        options_, scores_, frontier, prev, &stats_.hit_candidate_cap);
    prev = frontier;
    stats_.candidates_generated += static_cast<int64_t>(candidates.size());
    TP_COUNTER_ADD("miner.candidates_generated", candidates.size());
    TP_HISTOGRAM_OBSERVE("miner.iteration_candidates", candidates.size(),
                         {10, 100, 1000, 10000, 100000});

    ScoreBatch(std::move(candidates));
    // A stop mid-batch discarded the whole generation; the memo is still
    // exactly the last boundary's, so `last_cp` stays valid.
    if (stats_.aborted) break;

    // Re-threshold, relabel, prune (§4.1).  `prev.high` is this round's
    // H before the rebuild.
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

    const bool converged = frontier.high == prev.high;
    if (has_sink) {
      // The iteration boundary is the resumable point: the memo and the
      // frontier snapshots fully determine everything the next iteration
      // does.  A sink veto stops here; `Mine(checkpoint)` picks it up.
      TP_TRACE_SPAN("miner/checkpoint");
      const bool keep_going =
          options_.checkpoint_sink(MakeCheckpoint(iter + 1, prev));
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
  stats_.memo_bytes = scores_.bytes();
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
  const auto outside = [&grid](const Pattern& p) -> std::optional<CellId> {
    for (const CellId c : p.cells()) {
      if (c != kWildcardCell && !grid.IsValid(c)) return c;
    }
    return std::nullopt;
  };
  for (const ScoredPattern& sp : cp.scores) {
    if (const std::optional<CellId> c = outside(sp.pattern)) return c;
  }
  for (const std::vector<Pattern>* list : {&cp.prev_high, &cp.prev_queue}) {
    for (const Pattern& p : *list) {
      if (const std::optional<CellId> c = outside(p)) return c;
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
