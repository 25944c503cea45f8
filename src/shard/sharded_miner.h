#ifndef TRAJPATTERN_SHARD_SHARDED_MINER_H_
#define TRAJPATTERN_SHARD_SHARDED_MINER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/miner.h"
#include "core/nm_engine.h"
#include "parallel/thread_pool.h"
#include "shard/shard_coordinator.h"
#include "stats/mining_counters.h"

namespace trajpattern {

/// Stable candidate -> shard assignment: FNV-1a over the pattern's cells
/// mixed with a caller salt.  Every pattern is scored whole by exactly
/// the shard this names, which is what makes the sharded answer
/// bit-identical to the unsharded one — per-candidate NM totals are
/// never split (and re-associated) across shards.  The salt reshuffles
/// the assignment without changing the mined answer; the fuzz oracle
/// sweeps it to prove so.
inline uint32_t ShardOf(const Pattern& p, uint64_t salt, int num_shards) {
  uint64_t h = 14695981039346656037ull ^ (salt * 0x9e3779b97f4a7c15ull);
  for (size_t i = 0; i < p.length(); ++i) {
    h ^= static_cast<uint64_t>(static_cast<int64_t>(p[i]));
    h *= 1099511628211ull;
  }
  return static_cast<uint32_t>(h % static_cast<uint64_t>(num_shards));
}

/// Per-shard view of a finished sharded run (for benches, tests, and
/// the metrics exporters; the fleet-wide `MinerStats` is the sum).
struct ShardReport {
  int shard_id = 0;
  /// The shard's local top-k threshold when mining finished.
  double omega = 0.0;
  /// Cells resident in the shard's own column arena at the end.
  size_t cells_cached = 0;
  /// The shard's slice of the work counters (accumulated per round via
  /// `AccumulateBatch`, so fleet totals are sums, never double counts).
  MiningCounters counters;
};

/// The TrajPattern algorithm over N in-process shards (DESIGN.md §4i).
///
/// Work partitioning is by *candidate*, not by data: every shard owns a
/// full `NmEngine` view of the dataset (its own column arena, warm-up,
/// and streaming scoring) and scores only the candidates `ShardOf`
/// assigns it — so each shard warms only the cells its candidates
/// touch, and per-candidate scores are bit-identical to the unsharded
/// engine's.  Each grow iteration's candidate set is scored in rounds
/// of `MinerOptions::shard_round_size` per shard; after every round the
/// `ShardCoordinator` merges the per-shard results into the global
/// top-k (serially, in shard order — deterministic) and re-tightens the
/// pruning threshold it hands back (`MinerOptions::omega_exchange`).
///
/// Contracts carried over from the single miner, per shard count,
/// exchange setting, salt, and thread count:
///  - the final top-k is bit-identical to the unsharded run;
///  - `RunContext` fans out (shared cancellation/deadline; the memory
///    budget splits evenly across the shard arenas) and a stop discards
///    only the in-flight round;
///  - checkpoints extend the v2 state with per-shard slices (format v3)
///    and `Mine(resume)` continues bit-identically — the shard-local
///    heaps are re-derived from the memo plus the stable hash.
class ShardedMiner {
 public:
  /// `engine` serves as shard 0's engine and must outlive the miner;
  /// shards 1..N-1 get their own engines over the same dataset/space.
  /// `options.num_shards` must be >= 1.
  ShardedMiner(const NmEngine* engine, const MinerOptions& options);

  MiningResult Mine();
  MiningResult Mine(const MinerCheckpoint& resume);

  /// Valid after `Mine`: one report per shard, in shard-id order.
  const std::vector<ShardReport>& shard_reports() const { return reports_; }
  /// Candidates only the exchanged (global) ω could have abandoned.
  int64_t exchange_pruning_wins() const {
    return coordinator_.exchange_pruning_wins();
  }

 private:
  MiningResult Run(const MinerCheckpoint* resume);

  /// Partitions `patterns` across the shards and scores them in rounds,
  /// merging into the memo/heaps after each round.  Returns false iff
  /// the run must abort (stop fired or a shard failed); the memo then
  /// holds exactly the fully merged rounds.
  bool ScorePartitioned(const std::vector<Pattern>& patterns);

  /// The engine scoring shard `s`.
  const NmEngine* engine_of(int s) const { return engines_[s]; }

  MinerCheckpoint MakeShardedCheckpoint(int completed_iterations,
                                        const Frontier& prev) const;

  MinerOptions options_;
  int num_shards_;
  /// engines_[s] scores shard s; [0] is the caller's, the rest owned.
  std::vector<const NmEngine*> engines_;
  std::vector<std::unique_ptr<NmEngine>> owned_engines_;
  /// Per-shard run contexts: shared cancellation/deadline, split budget.
  std::vector<RunContext> shard_runs_;
  /// Worker threads each shard's batch call runs with.
  int shard_threads_ = 1;
  /// Pool the shard tasks fan out on (null == run shards inline).
  std::unique_ptr<ThreadPool> pool_;

  ShardCoordinator coordinator_;
  ScoreMemo scores_;
  std::vector<MiningCounters> shard_counters_;
  std::vector<ShardReport> reports_;
  MinerStats stats_;
};

}  // namespace trajpattern

#endif  // TRAJPATTERN_SHARD_SHARDED_MINER_H_
