#include "testing/reference_scorer.h"

#include <cmath>
#include <limits>

#include "prob/log_space.h"

namespace trajpattern {

ReferenceScorer::ReferenceScorer(const TrajectoryDataset& data,
                                 const MiningSpace& space)
    : data_(&data), space_(space) {
  size_t off = 0;
  for (const Trajectory& t : data) {
    offsets_.push_back(off);
    off += t.size();
  }
}

const std::vector<double>& ReferenceScorer::Column(CellId cell) {
  auto [it, inserted] = columns_.try_emplace(cell);
  if (inserted) {
    for (const Trajectory& t : *data_) {
      for (const TrajectoryPoint& pt : t) {
        it->second.push_back(space_.LogProb(pt, cell));
      }
    }
  }
  return it->second;
}

bool ReferenceScorer::BestWindowSum(const Pattern& p, size_t i,
                                    double* best) {
  const size_t m = p.length();
  const size_t len = (*data_)[i].size();
  if (m == 0 || len < m) return false;
  std::vector<const double*> cols(m, nullptr);
  for (size_t j = 0; j < m; ++j) {
    if (p[j] != kWildcardCell) cols[j] = Column(p[j]).data() + offsets_[i];
  }
  double best_sum = -std::numeric_limits<double>::infinity();
  for (size_t k = 0; k + m <= len; ++k) {
    double sum = 0.0;
    for (size_t j = 0; j < m; ++j) {
      if (cols[j] != nullptr) sum += cols[j][k + j];
    }
    if (sum > best_sum) best_sum = sum;
  }
  *best = best_sum;
  return true;
}

double ReferenceScorer::Nm(const Pattern& p, size_t traj_index) {
  const size_t specified = p.SpecifiedCount();
  if (specified == 0) return -std::numeric_limits<double>::infinity();
  double best;
  if (!BestWindowSum(p, traj_index, &best)) return LogFloor();
  return best / static_cast<double>(specified);
}

double ReferenceScorer::Match(const Pattern& p, size_t traj_index) {
  double best;
  return BestWindowSum(p, traj_index, &best) ? std::exp(best) : 0.0;
}

double ReferenceScorer::NmTotal(const Pattern& p) {
  if (p.SpecifiedCount() == 0) {
    return -std::numeric_limits<double>::infinity();
  }
  double total = 0.0;
  for (size_t i = 0; i < data_->size(); ++i) total += Nm(p, i);
  return total;
}

double ReferenceScorer::MatchTotal(const Pattern& p) {
  double total = 0.0;
  for (size_t i = 0; i < data_->size(); ++i) total += Match(p, i);
  return total;
}

ReferenceFrontier RebuildReferenceFrontier(
    const std::vector<ScoredPattern>& scores, double omega) {
  ReferenceFrontier out;
  for (const ScoredPattern& sp : scores) {
    if (sp.nm >= omega) out.high.insert(sp.pattern);
  }
  for (const ScoredPattern& sp : scores) {
    const std::vector<CellId>& c = sp.pattern.cells();
    bool retained = out.high.contains(sp.pattern) || c.size() == 1;
    if (!retained && c.size() > 1) {
      const Pattern drop_first(std::vector<CellId>(c.begin() + 1, c.end()));
      const Pattern drop_last(std::vector<CellId>(c.begin(), c.end() - 1));
      retained = out.high.contains(drop_first) || out.high.contains(drop_last);
    }
    if (retained) out.queue.insert(sp.pattern);
  }
  return out;
}

}  // namespace trajpattern
