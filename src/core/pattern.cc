#include "core/pattern.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>

namespace trajpattern {

size_t Pattern::SpecifiedCount() const {
  size_t n = 0;
  for (CellId c : cells_) {
    if (c != kWildcardCell) ++n;
  }
  return n;
}

Pattern Pattern::Concat(const Pattern& right) const {
  std::vector<CellId> cells = cells_;
  cells.insert(cells.end(), right.cells_.begin(), right.cells_.end());
  return Pattern(std::move(cells));
}

Pattern Pattern::SubPattern(size_t begin, size_t len) const {
  assert(begin + len <= cells_.size());
  return Pattern(std::vector<CellId>(cells_.begin() + begin,
                                     cells_.begin() + begin + len));
}

std::string Pattern::ToString() const {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (i > 0) os << ", ";
    if (cells_[i] == kWildcardCell) {
      os << "*";
    } else {
      os << "c" << cells_[i];
    }
  }
  os << ")";
  return os.str();
}

std::vector<Point2> Pattern::Centers(const Grid& grid) const {
  std::vector<Point2> out;
  out.reserve(cells_.size());
  for (CellId c : cells_) {
    if (c == kWildcardCell) {
      const double nan = std::numeric_limits<double>::quiet_NaN();
      out.emplace_back(nan, nan);
    } else {
      out.push_back(grid.CenterOf(c));
    }
  }
  return out;
}

bool BetterScored(const ScoredPattern& a, const ScoredPattern& b) {
  if (a.nm != b.nm) return a.nm > b.nm;
  return a.pattern < b.pattern;
}

}  // namespace trajpattern
