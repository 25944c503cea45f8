#include "shard/sharded_miner.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "obs/journal.h"
#include "obs/obs.h"
#include "stats/timer.h"

namespace trajpattern {

ShardedMiner::ShardedMiner(const NmEngine* engine, const MinerOptions& options)
    : options_(options),
      num_shards_(options.num_shards),
      coordinator_(options.k, options.num_shards, options.omega_exchange,
                   options.min_length),
      shard_counters_(static_cast<size_t>(options.num_shards)) {
  assert(options.k > 0);
  assert(options.num_shards >= 1);
  engines_.reserve(static_cast<size_t>(num_shards_));
  engines_.push_back(engine);
  for (int s = 1; s < num_shards_; ++s) {
    // Candidate partitioning, not data partitioning: every shard sees
    // the whole dataset (per-candidate NM sums are never split across
    // shards, so no floating-point re-association can creep in), but
    // each engine's column arena warms only the cells that shard's
    // candidates touch.
    auto owned =
        std::make_unique<NmEngine>(engine->data(), engine->space());
    owned->set_window_kernel(engine->window_kernel());
    engines_.push_back(owned.get());
    owned_engines_.push_back(std::move(owned));
  }

  // Run-control fan-out: all shards share the caller's cancellation
  // token and deadline (RunContext copies share the flag); a memory
  // budget splits evenly so the shard arenas together stay within the
  // global bound.  A budget too small to split stays non-zero (1 byte)
  // rather than silently becoming "unlimited".
  shard_runs_.assign(static_cast<size_t>(num_shards_), options.run);
  if (options.run.memory_budget_bytes > 0) {
    uint64_t per_shard =
        options.run.memory_budget_bytes / static_cast<uint64_t>(num_shards_);
    if (per_shard == 0) per_shard = 1;
    for (RunContext& run : shard_runs_) run.memory_budget_bytes = per_shard;
  }

  const int total_threads = ResolveThreadCount(options.num_threads);
  shard_threads_ = std::max(1, total_threads / num_shards_);
  const int fanout = std::min(num_shards_, total_threads);
  if (fanout > 1) pool_ = std::make_unique<ThreadPool>(fanout);
}

MiningResult ShardedMiner::Mine() { return Run(nullptr); }

MiningResult ShardedMiner::Mine(const MinerCheckpoint& resume) {
  return Run(&resume);
}

MinerCheckpoint ShardedMiner::MakeShardedCheckpoint(
    int completed_iterations, const Frontier& prev) const {
  MinerCheckpoint cp = MakeBaseCheckpoint(
      completed_iterations, options_.k, coordinator_.global_omega(), scores_,
      prev, stats_.candidates_evaluated, stats_.candidates_pruned);
  cp.shards.reserve(static_cast<size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    MinerCheckpoint::ShardSlice slice;
    slice.shard_id = s;
    slice.omega = coordinator_.local_omega(s);
    slice.candidates_evaluated = shard_counters_[s].candidates_evaluated;
    slice.candidates_pruned = shard_counters_[s].candidates_pruned;
    slice.trajectories_skipped = shard_counters_[s].trajectories_skipped;
    cp.shards.push_back(slice);
  }
  return cp;
}

bool ShardedMiner::ScorePartitioned(const std::vector<Pattern>& patterns) {
  // Defensive re-filter against the memo (mirrors the unsharded
  // `ScoreBatch`), then the stable-hash partition: each candidate goes
  // whole to exactly one shard.
  std::vector<std::vector<Pattern>> parts(
      static_cast<size_t>(num_shards_));
  for (const Pattern& p : patterns) {
    if (scores_.contains(p.cells())) continue;
    parts[ShardOf(p, options_.shard_salt, num_shards_)].push_back(p);
  }
  size_t max_part = 0;
  for (const auto& part : parts) max_part = std::max(max_part, part.size());
  if (max_part == 0) return true;
  const size_t round_size =
      options_.shard_round_size > 0 ? options_.shard_round_size : max_part;
  const size_t rounds = (max_part + round_size - 1) / round_size;

  TP_TRACE_SPAN("shard/score_partitioned");
  for (size_t r = 0; r < rounds; ++r) {
    // Round boundary is a shard boundary: a stop here discards nothing.
    const StopReason sr = options_.run.CheckStop();
    if (sr != StopReason::kNone) {
      stats_.stop_reason = sr;
      stats_.aborted = true;
      return false;
    }

    // Stage this round's chunk per shard and pre-read every shard's
    // prune threshold serially, before any worker starts: the dispatch
    // snapshot is a pure function of the merged state, so the
    // abandonment points — and hence the memoized bounds — cannot
    // depend on worker timing.
    std::vector<std::vector<Pattern>> chunk(
        static_cast<size_t>(num_shards_));
    std::vector<double> threshold(static_cast<size_t>(num_shards_),
                                  NmEngine::kNoPruning);
    for (int s = 0; s < num_shards_; ++s) {
      const size_t begin = r * round_size;
      if (begin >= parts[s].size()) continue;
      const size_t end = std::min(parts[s].size(), begin + round_size);
      chunk[s].assign(parts[s].begin() + static_cast<ptrdiff_t>(begin),
                      parts[s].begin() + static_cast<ptrdiff_t>(end));
      if (options_.omega_pruning) {
        threshold[s] = coordinator_.AcquirePruneThreshold(s);
      }
    }

    // Scoring fan-out: one task per shard, each against its own engine
    // and arena — the only shared mutable state is each task's own
    // output slot, so the region is race-free by construction.
    std::vector<std::vector<double>> nms(static_cast<size_t>(num_shards_));
    std::vector<BatchScoreStats> bstats(static_cast<size_t>(num_shards_));
    ParallelFor(
        pool_.get(), static_cast<size_t>(num_shards_),
        [&](size_t s, int) {
          if (chunk[s].empty()) return;
          nms[s] = engines_[s]->NmTotalBatch(chunk[s], shard_threads_,
                                             &bstats[s], threshold[s],
                                             &shard_runs_[s]);
        },
        &options_.run);

    // A stop anywhere voids the whole round: results may mix scored and
    // never-claimed shards, and merging a subset would fork this run
    // from its uninterrupted twin.  The memo stays exactly at the last
    // merged round.
    StopReason stop = options_.run.CheckStop();
    for (int s = 0; s < num_shards_ && stop == StopReason::kNone; ++s) {
      if (bstats[s].stop != StopReason::kNone) {
        stop = bstats[s].stop;
      } else if (nms[s].size() != chunk[s].size()) {
        stop = StopReason::kCancelled;  // lane skipped by a late stop
      }
    }
    if (stop != StopReason::kNone) {
      stats_.stop_reason = stop;
      stats_.aborted = true;
      return false;
    }

    // Serial merge in shard order — the deterministic commit point.
    // Per-shard accounting goes through the same `AccumulateBatch` as
    // the fleet-wide counters, each batch folded exactly once into its
    // shard's slice and once into the global stats, so the fleet totals
    // are the sum of the shard slices with no double counting.
    for (int s = 0; s < num_shards_; ++s) {
      if (chunk[s].empty()) continue;
      coordinator_.Merge(s, chunk[s], nms[s], threshold[s]);
      for (size_t i = 0; i < chunk[s].size(); ++i) {
        scores_.emplace(chunk[s][i].cells(), nms[s][i]);
      }
      const int64_t evaluated = static_cast<int64_t>(chunk[s].size());
      stats_.candidates_evaluated += evaluated;
      shard_counters_[s].candidates_evaluated += evaluated;
      AccumulateBatch(bstats[s], &stats_);
      AccumulateBatch(bstats[s], &shard_counters_[s]);
      TP_COUNTER_ADD("miner.candidates_evaluated", evaluated);
      TP_COUNTER_ADD("miner.candidates_pruned", bstats[s].candidates_pruned);
      TP_COUNTER_ADD("miner.trajectories_skipped",
                     bstats[s].trajectories_skipped);
      TP_OBS_ONLY(obs::MetricsRegistry::Global()
                      .GetCounter("shard." + std::to_string(s) +
                                  ".candidates_pruned")
                      ->Add(static_cast<int64_t>(bstats[s].candidates_pruned)));
    }
  }
  return true;
}

MiningResult ShardedMiner::Run(const MinerCheckpoint* resume) {
  WallTimer timer;
  TP_TRACE_SPAN("shard/mine");

  // Journal the run lifecycle; the coordinator additionally journals
  // mid-iteration ω tightenings as merges land (attributed to the shard
  // whose round raised the global ω).
  obs::RunJournal& journal = obs::RunJournal::Global();
  const int64_t jrun =
      journal.BeginRun(options_.k, num_shards_, resume != nullptr);
  coordinator_.set_journal_run_id(jrun);

  if (resume != nullptr) {
    // Restore the memo and re-derive every heap from it: the global and
    // shard-local top-k sets are the k best eligible offers under the
    // strict BetterScored order, unique regardless of offer order, and
    // the stable hash reassigns each memoized pattern to the shard that
    // scored it — so the rebuilt heaps equal the interrupted run's
    // bit-exactly.
    assert(resume->k == options_.k);
    assert(resume->shards.empty() ||
           static_cast<int>(resume->shards.size()) == num_shards_);
    for (const ScoredPattern& sp : resume->scores) {
      if (!scores_.emplace(sp.pattern.cells(), sp.nm)) continue;
      coordinator_.Seed(
          static_cast<int>(
              ShardOf(sp.pattern, options_.shard_salt, num_shards_)),
          sp.pattern, sp.nm);
    }
    stats_.iterations = resume->iteration;
    stats_.candidates_evaluated = resume->candidates_evaluated;
    stats_.candidates_pruned = resume->candidates_pruned;
    for (const MinerCheckpoint::ShardSlice& slice : resume->shards) {
      if (slice.shard_id < 0 || slice.shard_id >= num_shards_) continue;
      MiningCounters& c = shard_counters_[slice.shard_id];
      c.candidates_evaluated = slice.candidates_evaluated;
      c.candidates_pruned = slice.candidates_pruned;
      c.trajectories_skipped = slice.trajectories_skipped;
    }
  }

  // Step 1: singular patterns (same alphabet as the unsharded miner;
  // shard 0's engine derives it — `TouchedCells` is a pure function of
  // the dataset/space, identical from any shard's engine).
  std::vector<CellId> alphabet;
  if (options_.restrict_to_touched_cells) {
    alphabet = engines_[0]->TouchedCells(options_.touched_radius_sigmas);
  } else {
    alphabet.resize(
        static_cast<size_t>(engines_[0]->space().grid.num_cells()));
    for (int c = 0; c < engines_[0]->space().grid.num_cells(); ++c) {
      alphabet[static_cast<size_t>(c)] = c;
    }
  }
  stats_.alphabet_size = alphabet.size();
  std::vector<Pattern> singulars;
  singulars.reserve(alphabet.size());
  for (CellId c : alphabet) singulars.emplace_back(c);
  // Unlike the unsharded miner (one unpruned batch), the singulars go
  // through the same round/merge machinery as every other generation —
  // so once the global heap fills, the exchange already prunes the
  // remaining singular rounds.
  ScorePartitioned(singulars);

  Frontier frontier;
  auto rebuild = [&]() {
    RebuildFrontier(scores_, coordinator_.global_omega(), &frontier);
    stats_.peak_queue_size =
        std::max(stats_.peak_queue_size, frontier.queue.size());
  };
  rebuild();

  Frontier prev;
  const bool prev_high_in_memo =
      resume == nullptr || FrontierFromCheckpoint(scores_, *resume, &prev);
  const int start_iteration = resume != nullptr ? resume->iteration : 0;

  // Sink protocol, identical to the unsharded miner: `last_cp` is the
  // start boundary, emitted on an abort that never reached a boundary
  // delivery, so every aborted run past the singular batch leaves a
  // resumable (now shard-sliced) checkpoint behind.
  const bool has_sink = static_cast<bool>(options_.checkpoint_sink);
  std::optional<MinerCheckpoint> last_cp;
  bool sink_has_latest = false;
  if (has_sink && !stats_.aborted) {
    last_cp = MakeShardedCheckpoint(start_iteration, prev);
  }

  const bool resumed_after_convergence = resume != nullptr &&
                                         start_iteration > 0 &&
                                         prev_high_in_memo &&
                                         frontier.high == prev.high;

  // Eviction events carry per-round deltas against this baseline.
  int64_t journal_evicted = stats_.cells_evicted;

  for (int iter = start_iteration;
       !stats_.aborted && !resumed_after_convergence &&
       iter < options_.max_iterations;
       ++iter) {
    const StopReason sr = options_.run.CheckStop();
    if (sr != StopReason::kNone) {
      stats_.stop_reason = sr;
      stats_.aborted = true;
      break;
    }
    TP_TRACE_SPAN("shard/iteration");
    TP_COUNTER_INC("miner.iterations");
    ++stats_.iterations;

    // Generation runs on the coordinator against the *global* memo and
    // frontier — bit-identical inputs to the unsharded miner's, hence
    // bit-identical candidate sets (see `GenerateCandidates`).
    std::vector<Pattern> candidates = GenerateCandidates(
        options_, scores_, frontier, prev, &stats_.hit_candidate_cap);
    prev = frontier;
    stats_.candidates_generated += static_cast<int64_t>(candidates.size());
    TP_COUNTER_ADD("miner.candidates_generated", candidates.size());
    TP_HISTOGRAM_OBSERVE("miner.iteration_candidates", candidates.size(),
                         {10, 100, 1000, 10000, 100000});

    if (!ScorePartitioned(candidates)) break;

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
      obs::JournalEvent ev;
      ev.type = obs::JournalEventType::kRoundCommitted;
      ev.run_id = jrun;
      ev.iteration = iter + 1;
      ev.omega = coordinator_.global_omega();
      ev.candidates_evaluated = stats_.candidates_evaluated;
      ev.candidates_pruned = stats_.candidates_pruned;
      ev.frontier_depth = static_cast<int64_t>(frontier.queue.size());
      journal.Emit(ev);
    }

    const bool converged = frontier.high == prev.high;
    if (has_sink) {
      TP_TRACE_SPAN("miner/checkpoint");
      const bool keep_going =
          options_.checkpoint_sink(MakeShardedCheckpoint(iter + 1, prev));
      sink_has_latest = true;
      if (journal.active()) {
        obs::JournalEvent ev;
        ev.type = obs::JournalEventType::kCheckpointWritten;
        ev.run_id = jrun;
        ev.iteration = iter + 1;
        ev.omega = coordinator_.global_omega();
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

  reports_.clear();
  reports_.reserve(static_cast<size_t>(num_shards_));
  size_t cells_cached = 0;
  for (int s = 0; s < num_shards_; ++s) {
    ShardReport report;
    report.shard_id = s;
    report.omega = coordinator_.local_omega(s);
    report.cells_cached = engines_[s]->num_cached_cells();
    report.counters = shard_counters_[s];
    cells_cached += report.cells_cached;
    reports_.push_back(std::move(report));
  }

  MiningResult result;
  result.patterns = coordinator_.global_top_k().Sorted();
  stats_.seconds = timer.Seconds();
  stats_.cells_cached = cells_cached;
  stats_.memo_bytes = scores_.bytes();
  // Effective concurrency: `fanout` shard tasks, each scoring on
  // `shard_threads_` workers (AccumulateBatch reported the per-shard
  // figure; the fleet-wide report carries the product).
  stats_.threads_used =
      std::min(num_shards_, ResolveThreadCount(options_.num_threads)) *
      shard_threads_;
  result.stats = stats_;
  if (journal.active()) {
    obs::JournalEvent ev;
    ev.type = obs::JournalEventType::kRunStopped;
    ev.run_id = jrun;
    ev.iteration = stats_.iterations;
    ev.omega = coordinator_.global_omega();
    ev.candidates_evaluated = stats_.candidates_evaluated;
    ev.candidates_pruned = stats_.candidates_pruned;
    ev.stop_reason = StopReasonName(stats_.stop_reason);
    journal.Emit(ev);
  }
  return result;
}

MiningResult MineShardedDispatch(const NmEngine& engine,
                                 const MinerOptions& options,
                                 const MinerCheckpoint* resume) {
  ShardedMiner miner(&engine, options);
  return resume != nullptr ? miner.Mine(*resume) : miner.Mine();
}

}  // namespace trajpattern
