#ifndef TRAJPATTERN_CORE_SCORE_MEMO_H_
#define TRAJPATTERN_CORE_SCORE_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/pattern.h"

namespace trajpattern {

/// The miners' global score memo (§4): every pattern ever scored, with
/// its NM or an upper bound on it.  Append-only and interned.  Entry `id`
/// owns the cells `[offsets_[id], offsets_[id + 1])` of one contiguous
/// arena, next to its value and its stored 64-bit `PatternHash`.  An
/// open-addressing, linear-probe table of entry ids (load <= 1/2) serves
/// lookups by cell span, so probing a sub-pattern or a staged
/// concatenation builds no `Pattern`.  Ids run in insertion order and
/// stay valid for the memo's lifetime; the miner walks the memo, and
/// writes its checkpoint rows, in that order.
///
/// Not thread-safe: the miners touch the memo only from their serial
/// batch epilogue and boundary code.
class ScoreMemo {
 public:
  using Id = uint32_t;
  /// "Absent" for `FindId`; never a valid id.
  static constexpr Id kNoId = ~Id{0};

  size_t size() const { return nms_.size(); }
  /// Cells stored over all entries.
  size_t num_cells() const { return cells_.size(); }

  /// Adds `cells` with value `nm`.  On a duplicate, returns false and
  /// keeps the first value.  `cells` must not point into this memo.
  bool emplace(std::span<const CellId> cells, double nm);

  /// The value memoized for `cells`, or null.  The pointer is valid
  /// until the next `emplace`.
  const double* find(std::span<const CellId> cells) const;
  bool contains(std::span<const CellId> cells) const {
    return FindId(cells) != kNoId;
  }
  /// The id of `cells`, or `kNoId`.
  Id FindId(std::span<const CellId> cells) const;

  std::span<const CellId> cells(Id id) const {
    return {cells_.data() + offsets_[id],
            static_cast<size_t>(offsets_[id + 1] - offsets_[id])};
  }
  double nm(Id id) const { return nms_[id]; }
  Pattern pattern(Id id) const {
    const std::span<const CellId> c = cells(id);
    return Pattern(std::vector<CellId>(c.begin(), c.end()));
  }

  /// True iff entry `a`'s cells sort lexicographically before `b`'s: the
  /// order of `Pattern`'s operator<.  Beam mode breaks NM ties with it.
  bool Less(Id a, Id b) const;

  /// Pre-sizes the memo to hold `entries` entries with `total_cells`
  /// cells in all, growing geometrically so per-batch calls stay
  /// amortized O(1) per entry.
  void reserve(size_t entries, size_t total_cells);

  /// Heap bytes held (capacities and index included).
  size_t bytes() const;

 private:
  /// Grows the index to `capacity` slots (a power of two) and reinserts
  /// every entry from its stored hash.
  void Rehash(size_t capacity);
  /// First slot of `hash`'s probe run: the top bits of the
  /// Fibonacci-scrambled hash, so every hash bit reaches the index.
  size_t Home(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  /// The slot holding `cells` (hash `hash`), or the empty slot that
  /// ends its probe run.
  size_t Probe(std::span<const CellId> cells, uint64_t hash) const;

  std::vector<CellId> cells_;
  /// size() + 1 entries, offsets_[0] == 0.  64-bit: 10^8 entries of
  /// longer patterns overflow 32 bits of cells.
  std::vector<uint64_t> offsets_{0};
  std::vector<double> nms_;
  std::vector<uint64_t> hashes_;
  /// Entry ids, `kNoId` for an empty slot; size is 0 or a power of two.
  std::vector<Id> slots_;
  /// 64 - log2(slots_.size()); see `Home`.
  int shift_ = 64;
};

}  // namespace trajpattern

#endif  // TRAJPATTERN_CORE_SCORE_MEMO_H_
