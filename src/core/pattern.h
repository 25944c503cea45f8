#ifndef TRAJPATTERN_CORE_PATTERN_H_
#define TRAJPATTERN_CORE_PATTERN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "geometry/grid.h"

namespace trajpattern {

/// Pseudo-cell marking a wildcard ("don't care") position, §5.  Any
/// location matches a wildcard with probability 1.
inline constexpr CellId kWildcardCell = -2;

/// A trajectory pattern: an ordered list of grid-cell positions
/// (P = (p_1, ..., p_m), §3.3).  Positions may be `kWildcardCell`.
class Pattern {
 public:
  Pattern() = default;
  explicit Pattern(std::vector<CellId> cells) : cells_(std::move(cells)) {}
  /// A singular (length-1) pattern.
  explicit Pattern(CellId cell) : cells_(1, cell) {}

  /// Number of positions (the paper's pattern length m).
  size_t length() const { return cells_.size(); }
  bool empty() const { return cells_.empty(); }
  CellId operator[](size_t i) const { return cells_[i]; }
  const std::vector<CellId>& cells() const { return cells_; }

  /// True iff this pattern has exactly one position (§3.3 "singular").
  bool IsSingular() const { return cells_.size() == 1; }

  /// Number of non-wildcard positions.  NM normalizes by this count: a
  /// wildcard contributes log 1 = 0 to every window, so normalizing by
  /// the full length would make star-padded patterns spuriously beat
  /// their specified counterparts.
  size_t SpecifiedCount() const;

  /// Concatenation (P, P') — the candidate-generation step of §4.
  Pattern Concat(const Pattern& right) const;

  /// The contiguous sub-pattern [begin, begin+len).
  Pattern SubPattern(size_t begin, size_t len) const;

  /// "(c3, c7, *, c1)"-style rendering for logs and tests.
  std::string ToString() const;

  /// The continuous positions (cell centers) this pattern stands for.
  /// Wildcard positions are rendered as (NaN, NaN).
  std::vector<Point2> Centers(const Grid& grid) const;

  friend bool operator==(const Pattern& a, const Pattern& b) {
    return a.cells_ == b.cells_;
  }
  /// Lexicographic; gives mining output a deterministic order.
  friend bool operator<(const Pattern& a, const Pattern& b) {
    return a.cells_ < b.cells_;
  }

 private:
  std::vector<CellId> cells_;
};

/// FNV-1a over the cell ids; for hash tables of patterns.  A
/// `std::span<const CellId>` hashes exactly like the `Pattern` holding
/// the same cells, which is what lets `ScoreMemo` be probed with a
/// sub-pattern view.
struct PatternHash {
  size_t operator()(std::span<const CellId> cells) const {
    uint64_t h = 1469598103934665603ULL;
    for (CellId c : cells) {
      h ^= static_cast<uint64_t>(static_cast<uint32_t>(c));
      h *= 1099511628211ULL;
    }
    return static_cast<size_t>(h);
  }
  size_t operator()(const Pattern& p) const { return (*this)(p.cells()); }
};

/// A pattern together with its dataset-wide NM value; the miner's unit of
/// bookkeeping and the mining result element.
struct ScoredPattern {
  Pattern pattern;
  double nm = 0.0;

  friend bool operator==(const ScoredPattern& a, const ScoredPattern& b) {
    return a.nm == b.nm && a.pattern == b.pattern;
  }
};

/// Orders by NM descending, breaking ties lexicographically so results are
/// deterministic.
bool BetterScored(const ScoredPattern& a, const ScoredPattern& b);

}  // namespace trajpattern

#endif  // TRAJPATTERN_CORE_PATTERN_H_
