#ifndef TRAJPATTERN_IO_CHECKPOINT_H_
#define TRAJPATTERN_IO_CHECKPOINT_H_

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "core/miner.h"

namespace trajpattern {

/// Versioned text serialization of a `MinerCheckpoint`:
///
///   trajpattern_checkpoint,v5
///   iteration,<int>
///   k,<int>
///   omega,<hexfloat>
///   candidates_evaluated,<int64>
///   candidates_pruned,<int64>
///   beam_capped,<0|1>
///   scores,<count>
///   <hexfloat NM>,<;-separated cells, '*' for wildcards>   x count
///   prev_high,<count>
///   <cells>                                                x count
///   prev_queue,<count>
///   <cells>                                                x count
///   end
///
/// In memory, `cp.scores` is a `ScoreMemo` and the frontier blocks are
/// lists of its ids.  The writer emits v5 (v4's layout): one score row
/// per memo entry in id order, then each frontier id's cells in list
/// order, each line formatted in place in a chunk buffer; every frontier
/// id must be an id of `cp.scores`.  The reader accepts v5 only.  v1, v2
/// and v4 files hold NM values of the old interval measure (Phi(hi) -
/// Phi(lo), DESIGN.md 4g), and a v3 file a run of the removed sharded
/// miner; each is refused with kFailedPrecondition naming its version and
/// why, so a rerun never mixes two measures.  NM values are written as
/// C99 hexfloats, spelled from their bits exactly as glibc's `%a` spells
/// them; they round-trip IEEE doubles bit-exactly (including -inf) — the
/// property the resumed-run bit-identity guarantee rests on.  Other
/// unknown versions, truncated files, an `iteration` or `k` outside
/// int's range, a `beam_capped` other than 0 or 1, a score block that
/// lists a pattern twice and a `prev_high` or `prev_queue` row that is
/// not also a score row are rejected with kDataLoss naming the line,
/// never half-loaded.  Row order is not part of the format: rows of any
/// block may come in any order.  Score rows become memo entries in file
/// order; frontier rows load as ascending, deduplicated ids.
Status WriteMinerCheckpoint(const MinerCheckpoint& cp, std::ostream& os);
Status ReadMinerCheckpoint(std::istream& is, MinerCheckpoint* cp);

/// File wrappers.  The writer is atomic: it writes `path + ".tmp"` and
/// renames, so a crash mid-checkpoint leaves the previous checkpoint
/// intact instead of a torn file.
Status WriteMinerCheckpointFile(const MinerCheckpoint& cp,
                                const std::string& path);
Status ReadMinerCheckpointFile(const std::string& path, MinerCheckpoint* cp);

}  // namespace trajpattern

#endif  // TRAJPATTERN_IO_CHECKPOINT_H_
