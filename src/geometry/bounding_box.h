#ifndef TRAJPATTERN_GEOMETRY_BOUNDING_BOX_H_
#define TRAJPATTERN_GEOMETRY_BOUNDING_BOX_H_

#include <algorithm>
#include <limits>

#include "geometry/point.h"

namespace trajpattern {

/// An axis-aligned rectangle.  The mining space (§3.3: "we assume that the
/// objects are traveling in a square") is described by one of these; the
/// `Grid` tessellates it.
class BoundingBox {
 public:
  /// Creates an empty (inverted) box; `Extend` grows it.
  BoundingBox()
      : min_(std::numeric_limits<double>::infinity(),
             std::numeric_limits<double>::infinity()),
        max_(-std::numeric_limits<double>::infinity(),
             -std::numeric_limits<double>::infinity()) {}

  BoundingBox(const Point2& min, const Point2& max) : min_(min), max_(max) {}

  /// The unit square [0,1]x[0,1], the default mining space in this library.
  static BoundingBox UnitSquare() {
    return BoundingBox(Point2(0.0, 0.0), Point2(1.0, 1.0));
  }

  const Point2& min() const { return min_; }
  const Point2& max() const { return max_; }
  double width() const { return max_.x - min_.x; }
  double height() const { return max_.y - min_.y; }
  Point2 center() const {
    return Point2((min_.x + max_.x) / 2, (min_.y + max_.y) / 2);
  }

  /// True iff no point has been added and no extent was given.
  bool empty() const { return min_.x > max_.x || min_.y > max_.y; }

  /// True iff `p` lies inside or on the boundary.
  bool Contains(const Point2& p) const {
    return p.x >= min_.x && p.x <= max_.x && p.y >= min_.y && p.y <= max_.y;
  }

  /// Grows the box to include `p`.
  void Extend(const Point2& p) {
    min_.x = std::min(min_.x, p.x);
    min_.y = std::min(min_.y, p.y);
    max_.x = std::max(max_.x, p.x);
    max_.y = std::max(max_.y, p.y);
  }

  /// Grows the box by `margin` on every side.
  void Inflate(double margin) {
    min_.x -= margin;
    min_.y -= margin;
    max_.x += margin;
    max_.y += margin;
  }

  /// Returns `p` clamped into the box.
  Point2 Clamp(const Point2& p) const {
    return Point2(std::clamp(p.x, min_.x, max_.x),
                  std::clamp(p.y, min_.y, max_.y));
  }

 private:
  Point2 min_;
  Point2 max_;
};

}  // namespace trajpattern

#endif  // TRAJPATTERN_GEOMETRY_BOUNDING_BOX_H_
