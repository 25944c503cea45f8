#ifndef TRAJPATTERN_CORE_TOP_K_H_
#define TRAJPATTERN_CORE_TOP_K_H_

#include <algorithm>
#include <limits>
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
  void Offer(const Pattern& pattern, double score) {
    if (k_ == 0) return;
    ScoredPattern sp{pattern, score};
    if (heap_.size() < k_) {
      heap_.push_back(std::move(sp));
      std::push_heap(heap_.begin(), heap_.end(), WorseOnTop);
    } else if (BetterScored(sp, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), WorseOnTop);
      heap_.back() = std::move(sp);
      std::push_heap(heap_.begin(), heap_.end(), WorseOnTop);
    }
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

  size_t k_;
  std::vector<ScoredPattern> heap_;
};

}  // namespace trajpattern

#endif  // TRAJPATTERN_CORE_TOP_K_H_
