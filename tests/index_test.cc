#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "index/grid_index.h"
#include "prob/rng.h"

namespace trajpattern {
namespace {

TEST(GridIndexTest, UpsertLookupRemove) {
  GridIndex index(Grid::UnitSquare(8));
  index.Upsert(1, Point2(0.1, 0.1));
  index.Upsert(2, Point2(0.9, 0.9));
  EXPECT_EQ(index.size(), 2u);
  Point2 p;
  ASSERT_TRUE(index.Lookup(1, &p));
  EXPECT_EQ(p, Point2(0.1, 0.1));
  // Move object 1 across cells.
  index.Upsert(1, Point2(0.8, 0.8));
  ASSERT_TRUE(index.Lookup(1, &p));
  EXPECT_EQ(p, Point2(0.8, 0.8));
  EXPECT_EQ(index.size(), 2u);
  EXPECT_TRUE(index.Remove(1));
  EXPECT_FALSE(index.Remove(1));
  EXPECT_FALSE(index.Lookup(1, &p));
  EXPECT_EQ(index.size(), 1u);
}

TEST(GridIndexTest, QueryBoxMatchesLinearScan) {
  Rng rng(5);
  GridIndex index(Grid::UnitSquare(10));
  std::vector<Point2> points;
  for (int i = 0; i < 200; ++i) {
    points.emplace_back(rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0));
    index.Upsert(i, points.back());
  }
  for (int trial = 0; trial < 20; ++trial) {
    Point2 a(rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0));
    Point2 b(rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0));
    const BoundingBox box(Point2(std::min(a.x, b.x), std::min(a.y, b.y)),
                          Point2(std::max(a.x, b.x), std::max(a.y, b.y)));
    std::vector<GridIndex::ObjectId> expected;
    for (int i = 0; i < 200; ++i) {
      if (box.Contains(points[i])) expected.push_back(i);
    }
    EXPECT_EQ(index.QueryBox(box), expected);
  }
}

TEST(GridIndexTest, QueryRadiusMatchesLinearScan) {
  Rng rng(7);
  GridIndex index(Grid::UnitSquare(10));
  std::vector<Point2> points;
  for (int i = 0; i < 150; ++i) {
    points.emplace_back(rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0));
    index.Upsert(i, points.back());
  }
  for (int trial = 0; trial < 20; ++trial) {
    const Point2 c(rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0));
    const double r = rng.Uniform(0.02, 0.4);
    std::vector<GridIndex::ObjectId> expected;
    for (int i = 0; i < 150; ++i) {
      if (Distance(points[i], c) <= r) expected.push_back(i);
    }
    EXPECT_EQ(index.QueryRadius(c, r), expected);
  }
}

TEST(GridIndexTest, NearestNeighborsExact) {
  Rng rng(9);
  GridIndex index(Grid::UnitSquare(10));
  std::vector<Point2> points;
  for (int i = 0; i < 100; ++i) {
    points.emplace_back(rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0));
    index.Upsert(i, points.back());
  }
  for (int trial = 0; trial < 10; ++trial) {
    const Point2 c(rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0));
    const int k = rng.UniformInt(1, 12);
    std::vector<int> expected(100);
    for (int i = 0; i < 100; ++i) expected[i] = i;
    std::sort(expected.begin(), expected.end(), [&](int a, int b) {
      const double da = SquaredDistance(points[a], c);
      const double db = SquaredDistance(points[b], c);
      if (da != db) return da < db;
      return a < b;
    });
    expected.resize(k);
    const auto got = index.NearestNeighbors(c, k);
    ASSERT_EQ(got.size(), static_cast<size_t>(k));
    for (int i = 0; i < k; ++i) {
      EXPECT_EQ(got[i], expected[i]) << "trial " << trial << " rank " << i;
    }
  }
}

TEST(GridIndexTest, EdgeAndOutsidePointsBucketLikeGridCellOf) {
  // The index's bucket assignment must agree with Grid::CellOf for points
  // exactly on shared cell edges and for points outside the box — an
  // object bucketed in one cell but queried via another would vanish from
  // radius/box queries.
  const Grid grid = Grid::UnitSquare(4);
  GridIndex index(grid);
  const std::vector<Point2> tricky = {
      Point2(0.25, 0.25),   // interior shared corner
      Point2(0.25, 0.1),    // vertical shared edge
      Point2(0.1, 0.75),    // horizontal shared edge
      Point2(0.0, 0.0),     // box min corner
      Point2(1.0, 1.0),     // box max corner
      Point2(1.0, 0.3),     // box max edge
      Point2(-0.5, 0.5),    // outside, left
      Point2(0.5, 2.0),     // outside, above
      Point2(-3.0, -3.0),   // outside, both
  };
  for (size_t i = 0; i < tricky.size(); ++i) {
    index.Upsert(static_cast<GridIndex::ObjectId>(i), tricky[i]);
  }
  EXPECT_EQ(index.size(), tricky.size());
  for (size_t i = 0; i < tricky.size(); ++i) {
    const auto id = static_cast<GridIndex::ObjectId>(i);
    // A zero-radius query centered on the point must find it: the query
    // walks the buckets Grid::CellOf implies, so this fails if Upsert
    // used a different assignment.
    const auto hits = index.QueryRadius(tricky[i], 0.0);
    EXPECT_TRUE(std::find(hits.begin(), hits.end(), id) != hits.end())
        << "point " << i << " not found at its own position";
    // Moving the object out of a tricky cell and back must not strand a
    // stale bucket entry.
    index.Upsert(id, Point2(0.6, 0.6));
    index.Upsert(id, tricky[i]);
    Point2 p;
    ASSERT_TRUE(index.Lookup(id, &p));
    EXPECT_EQ(p, tricky[i]);
  }
  EXPECT_EQ(index.size(), tricky.size());
}

TEST(GridIndexTest, QueriesFindObjectsClampedFromOutsideTheBox) {
  const Grid grid = Grid::UnitSquare(4);
  GridIndex index(grid);
  index.Upsert(1, Point2(1.4, 1.4));  // clamps into cell (3, 3)
  index.Upsert(2, Point2(-0.2, 0.5));
  // Radius queries measure true Euclidean distance to the stored point,
  // not to its clamped cell, so a query around the raw position wins.
  const auto near1 = index.QueryRadius(Point2(1.4, 1.4), 0.01);
  EXPECT_EQ(near1, std::vector<GridIndex::ObjectId>{1});
  const auto near2 = index.QueryRadius(Point2(-0.2, 0.5), 0.01);
  EXPECT_EQ(near2, std::vector<GridIndex::ObjectId>{2});
  // And a box query over the whole plane sees both.
  const auto all =
      index.QueryBox(BoundingBox(Point2(-10.0, -10.0), Point2(10.0, 10.0)));
  EXPECT_EQ(all, (std::vector<GridIndex::ObjectId>{1, 2}));
}

TEST(GridIndexTest, NearestNeighborsMoreThanStored) {
  GridIndex index(Grid::UnitSquare(4));
  index.Upsert(1, Point2(0.2, 0.2));
  index.Upsert(2, Point2(0.8, 0.8));
  const auto got = index.NearestNeighbors(Point2(0.0, 0.0), 10);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], 1);
  EXPECT_EQ(got[1], 2);
}

}  // namespace
}  // namespace trajpattern
