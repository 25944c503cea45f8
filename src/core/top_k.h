#ifndef TRAJPATTERN_CORE_TOP_K_H_
#define TRAJPATTERN_CORE_TOP_K_H_

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "core/pattern.h"

namespace trajpattern {

/// Bounded best-k tracker shared by the miners (TrajPattern, PB,
/// match/Apriori): a min-heap of `ScoredPattern` keyed by
/// `BetterScored`, exposing the running threshold omega (the k-th best
/// score, -inf until k candidates have been offered).  k <= 0 asks for
/// nothing: omega is +inf and no candidate is kept.
class TopKPatterns {
 public:
  explicit TopKPatterns(int k) : k_(k > 0 ? static_cast<size_t>(k) : 0) {}

  /// Offers a candidate; keeps it iff it beats the current k-th best.
  /// The cells are copied into a `Pattern` only once the candidate is
  /// kept.
  void Offer(std::span<const CellId> cells, double score) {
    if (k_ == 0) return;
    if (heap_.size() < k_) {
      heap_.push_back(Scored(cells, score));
      std::push_heap(heap_.begin(), heap_.end(), WorseOnTop);
    } else if (Beats(cells, score, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), WorseOnTop);
      heap_.back() = Scored(cells, score);
      std::push_heap(heap_.begin(), heap_.end(), WorseOnTop);
    }
  }
  void Offer(const Pattern& pattern, double score) {
    Offer(pattern.cells(), score);
  }

  /// The paper's omega: the k-th best score seen, or -inf while fewer
  /// than k candidates were offered (+inf when k <= 0).
  double Omega() const {
    if (k_ == 0) return std::numeric_limits<double>::infinity();
    return heap_.size() < k_ ? -std::numeric_limits<double>::infinity()
                             : heap_.front().nm;
  }

  size_t size() const { return heap_.size(); }
  bool full() const { return heap_.size() >= k_; }

  /// The tracked patterns, best first (does not disturb the tracker).
  std::vector<ScoredPattern> Sorted() const {
    std::vector<ScoredPattern> out = heap_;
    std::sort(out.begin(), out.end(), BetterScored);
    return out;
  }

 private:
  static bool WorseOnTop(const ScoredPattern& a, const ScoredPattern& b) {
    return BetterScored(a, b);
  }
  static ScoredPattern Scored(std::span<const CellId> cells, double score) {
    return {Pattern(std::vector<CellId>(cells.begin(), cells.end())), score};
  }
  /// `BetterScored` of (`cells`, `score`) against `kept`.
  static bool Beats(std::span<const CellId> cells, double score,
                    const ScoredPattern& kept) {
    if (score != kept.nm) return score > kept.nm;
    return std::ranges::lexicographical_compare(cells, kept.pattern.cells());
  }

  size_t k_;
  std::vector<ScoredPattern> heap_;
};

}  // namespace trajpattern

#endif  // TRAJPATTERN_CORE_TOP_K_H_
