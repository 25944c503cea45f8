#include "geometry/grid.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace trajpattern {
namespace {

/// Maps a continuous cell coordinate (units of cells from the box min)
/// to a valid index.  The clamping happens BEFORE the integer cast:
/// casting a NaN or an out-of-int-range double is undefined behavior,
/// so a point far outside the box — or with a NaN coordinate — must be
/// caught while still a double.  NaN clamps low, like -inf: there is no
/// meaningful cell for "no position", and the boundary cell keeps the
/// result deterministic instead of undefined.  For coordinates already
/// in [0, n) this is exactly floor-then-cast.
int ClampedCellIndex(double continuous, int n) {
  if (!(continuous > 0.0)) return 0;  // negatives and NaN
  if (continuous >= static_cast<double>(n)) return n - 1;
  return static_cast<int>(continuous);
}

}  // namespace

Grid::Grid(const BoundingBox& box, int nx, int ny)
    : box_(box),
      nx_(nx),
      ny_(ny),
      cell_w_(box.width() / nx),
      cell_h_(box.height() / ny) {
  assert(nx >= 1 && ny >= 1);
  assert(box.width() > 0 && box.height() > 0);
}

CellId Grid::CellOf(const Point2& p) const {
  return At(ClampedCellIndex((p.x - box_.min().x) / cell_w_, nx_),
            ClampedCellIndex((p.y - box_.min().y) / cell_h_, ny_));
}

Point2 Grid::CenterOf(CellId id) const {
  assert(IsValid(id));
  const int col = ColumnOf(id);
  const int row = RowOf(id);
  return Point2(box_.min().x + (col + 0.5) * cell_w_,
                box_.min().y + (row + 0.5) * cell_h_);
}

double Grid::CenterDistance(CellId a, CellId b) const {
  return Distance(CenterOf(a), CenterOf(b));
}

Grid::CellRange Grid::BoundingCells(const Point2& p, double radius) const {
  // A huge radius (a knows-nothing sigma) pushes these coordinates far
  // past the int range, so the same pre-cast clamping as CellOf applies.
  return CellRange{
      ClampedCellIndex((p.x - radius - box_.min().x) / cell_w_, nx_),
      ClampedCellIndex((p.x + radius - box_.min().x) / cell_w_, nx_),
      ClampedCellIndex((p.y - radius - box_.min().y) / cell_h_, ny_),
      ClampedCellIndex((p.y + radius - box_.min().y) / cell_h_, ny_)};
}

std::vector<CellId> Grid::CellsWithin(const Point2& p, double radius) const {
  std::vector<CellId> out;
  const CellRange range = BoundingCells(p, radius);
  const double r2 = radius * radius;
  for (int row = range.row_lo; row <= range.row_hi; ++row) {
    for (int col = range.col_lo; col <= range.col_hi; ++col) {
      const CellId id = At(col, row);
      if (SquaredDistance(CenterOf(id), p) <= r2) out.push_back(id);
    }
  }
  return out;
}

}  // namespace trajpattern
