#ifndef TRAJPATTERN_GEOMETRY_GRID_H_
#define TRAJPATTERN_GEOMETRY_GRID_H_

#include <cstdint>
#include <vector>

#include "geometry/bounding_box.h"
#include "geometry/point.h"

namespace trajpattern {

/// Identifier of a grid cell.  Cells are numbered row-major starting at the
/// south-west corner; `kInvalidCell` marks out-of-space positions.
using CellId = int32_t;

inline constexpr CellId kInvalidCell = -1;

/// Uniform tessellation of the mining space.
///
/// §3.3: "we discretize the space into small regions and only the centers of
/// these regions may serve as the positions in a pattern."  The grid maps
/// continuous points to cells and back to the cell centers that act as the
/// pattern alphabet; `G = num_cells()` is the alphabet size that drives the
/// complexity analysis (§4.4) and the Fig. 4(d) scalability experiment.
class Grid {
 public:
  /// Tessellates `box` into `nx` x `ny` cells.  Both counts must be >= 1.
  Grid(const BoundingBox& box, int nx, int ny);

  /// Convenience: a square grid of `n` x `n` cells over the unit square.
  static Grid UnitSquare(int n) {
    return Grid(BoundingBox::UnitSquare(), n, n);
  }

  const BoundingBox& box() const { return box_; }
  int nx() const { return nx_; }
  int ny() const { return ny_; }
  /// Total number of cells (the paper's G).
  int num_cells() const { return nx_ * ny_; }
  /// Cell extent along x (the paper's g_x).
  double cell_width() const { return cell_w_; }
  /// Cell extent along y (the paper's g_y).
  double cell_height() const { return cell_h_; }

  /// Cell containing `p`, or the nearest boundary cell if `p` lies outside
  /// the space (objects that drift out are clamped; the generators keep
  /// them inside, but prediction may overshoot).  A non-finite coordinate
  /// clamps like -inf (column/row 0): never undefined behavior.
  CellId CellOf(const Point2& p) const;

  /// True iff `id` names a cell of this grid.
  bool IsValid(CellId id) const { return id >= 0 && id < num_cells(); }

  /// Center of cell `id`; this is the continuous position a pattern symbol
  /// stands for.
  Point2 CenterOf(CellId id) const;

  /// Column index of `id` in [0, nx).
  int ColumnOf(CellId id) const { return id % nx_; }
  /// Row index of `id` in [0, ny).
  int RowOf(CellId id) const { return id / nx_; }
  /// Cell at (`col`, `row`).
  CellId At(int col, int row) const { return row * nx_ + col; }

  /// Euclidean distance between the centers of two cells; used by the
  /// pattern-group similarity test (Def. 1).
  double CenterDistance(CellId a, CellId b) const;

  /// All cells whose center is within `radius` of `p` (Euclidean).  Used by
  /// pattern-assisted prediction and by the wildcard NM bound.
  std::vector<CellId> CellsWithin(const Point2& p, double radius) const;

  /// Inclusive column and row bounds of a block of cells.
  struct CellRange {
    int col_lo;
    int col_hi;
    int row_lo;
    int row_hi;
  };

  /// The cells of the bounding square of the disc of `radius` around
  /// `p`, clamped to the grid: every cell whose center is within `radius`
  /// of `p` lies in it.  `CellsWithin` filters exactly this block.
  CellRange BoundingCells(const Point2& p, double radius) const;

 private:
  BoundingBox box_;
  int nx_;
  int ny_;
  double cell_w_;
  double cell_h_;
};

}  // namespace trajpattern

#endif  // TRAJPATTERN_GEOMETRY_GRID_H_
