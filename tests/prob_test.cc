#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "prob/log_space.h"
#include "prob/normal.h"
#include "prob/rng.h"

namespace trajpattern {
namespace {

TEST(StdNormalCdfTest, KnownValues) {
  EXPECT_NEAR(StdNormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(StdNormalCdf(1.0), 0.8413447460685429, 1e-9);
  EXPECT_NEAR(StdNormalCdf(-1.0), 1.0 - 0.8413447460685429, 1e-9);
  EXPECT_NEAR(StdNormalCdf(3.0), 0.9986501019683699, 1e-9);
  EXPECT_NEAR(StdNormalCdf(-8.0), 0.0, 1e-12);
  EXPECT_NEAR(StdNormalCdf(8.0), 1.0, 1e-12);
}

TEST(NormalIntervalProbTest, SymmetricInterval) {
  // One-sigma interval: ~68.27%.
  EXPECT_NEAR(NormalIntervalProb(0.0, 1.0, -1.0, 1.0), 0.6826894921,
              1e-8);
  // Two-sigma: ~95.45%.
  EXPECT_NEAR(NormalIntervalProb(0.0, 1.0, -2.0, 2.0), 0.9544997361,
              1e-8);
}

TEST(NormalIntervalProbTest, ShiftAndScaleInvariance) {
  const double p1 = NormalIntervalProb(0.0, 1.0, -0.5, 0.5);
  const double p2 = NormalIntervalProb(10.0, 2.0, 9.0, 11.0);
  EXPECT_NEAR(p1, p2, 1e-12);
}

TEST(NormalIntervalProbTest, DegenerateSigma) {
  EXPECT_DOUBLE_EQ(NormalIntervalProb(0.5, 0.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(NormalIntervalProb(2.0, 0.0, 0.0, 1.0), 0.0);
}

TEST(BesselI0ScaledTest, MatchesSeriesForSmallX) {
  // I0(x) = sum_k (x/2)^{2k} / (k!)^2.
  for (double x : {0.0, 0.1, 0.5, 1.0, 2.0, 3.0}) {
    double i0 = 0.0;
    double term = 1.0;
    for (int k = 0; k < 40; ++k) {
      i0 += term;
      term *= (x / 2.0) * (x / 2.0) / ((k + 1.0) * (k + 1.0));
    }
    EXPECT_NEAR(BesselI0Scaled(x), i0 * std::exp(-x), 2e-7) << "x=" << x;
  }
}

TEST(BesselI0ScaledTest, LargeArgumentAsymptotics) {
  // I0e(x) ~ (1 + 1/(8x) + 9/(128x^2) + 75/(1024x^3)) / sqrt(2 pi x) for
  // large x; the next term (~0.11/x^4) bounds the comparison error.
  for (double x : {10.0, 100.0, 1000.0}) {
    const double asymptotic =
        (1.0 + 1.0 / (8.0 * x) + 9.0 / (128.0 * x * x) +
         75.0 / (1024.0 * x * x * x)) /
        std::sqrt(2.0 * M_PI * x);
    const double tol = (0.2 / (x * x * x * x) + 1e-6) * asymptotic;
    EXPECT_NEAR(BesselI0Scaled(x), asymptotic, tol) << "x=" << x;
  }
}

TEST(RadialWithinProbTest, CenteredDiscMatchesRayleigh) {
  // With nu = 0 the distance is Rayleigh: P(d <= delta) =
  // 1 - exp(-delta^2 / (2 sigma^2)).
  const double sigma = 0.3;
  for (double delta : {0.1, 0.3, 0.6, 1.2}) {
    const double expected = 1.0 - std::exp(-delta * delta / (2 * sigma * sigma));
    EXPECT_NEAR(RadialWithinProb(0.0, sigma, delta), expected, 1e-6)
        << "delta=" << delta;
  }
}

TEST(RadialWithinProbTest, FarCenterIsZeroNearCenterIsOne) {
  EXPECT_NEAR(RadialWithinProb(100.0, 1.0, 1.0), 0.0, 1e-12);
  EXPECT_NEAR(RadialWithinProb(0.0, 0.01, 5.0), 1.0, 1e-9);
}

TEST(RadialWithinProbTest, MonotoneInDelta) {
  double prev = 0.0;
  for (double delta = 0.05; delta <= 2.0; delta += 0.05) {
    const double p = RadialWithinProb(0.5, 0.25, delta);
    EXPECT_GE(p, prev - 1e-12);
    prev = p;
  }
}

TEST(RadialWithinProbTest, DegenerateSigmaIsIndicator) {
  EXPECT_DOUBLE_EQ(RadialWithinProb(0.5, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(RadialWithinProb(1.5, 0.0, 1.0), 0.0);
}

TEST(NormalIntervalProbBatchTest, BitIdenticalToScalarCalls) {
  Rng rng(21);
  const size_t n = 257;  // odd, so any internal blocking sees a tail
  std::vector<double> means(n), sigmas(n), out(n);
  for (size_t i = 0; i < n; ++i) {
    means[i] = rng.Uniform(-1.0, 2.0);
    // Include degenerate sigma = 0 entries: the batch must take the
    // same indicator branch the scalar call does.
    sigmas[i] = i % 7 == 0 ? 0.0 : rng.Uniform(0.001, 0.05);
  }
  const double a = 0.30, b = 0.34;
  LogNormalIntervalProbBatch(means.data(), sigmas.data(), a, b, out.data(),
                             n);
  for (size_t i = 0; i < n; ++i) {
    const double scalar = LogNormalIntervalProb(means[i], sigmas[i], a, b);
    EXPECT_EQ(std::memcmp(&out[i], &scalar, sizeof(double)), 0) << "i=" << i;
  }
}

TEST(NormalIntervalProbBatchTest, EmptyIsANoOp) {
  LogNormalIntervalProbBatch(nullptr, nullptr, 0.0, 1.0, nullptr, 0);
}

// The log form skips erfc beyond 38 sigma and log below kProbFloor; both
// early returns must give exactly what SafeLog of the probability gives.
TEST(LogNormalIntervalProbTest, FloorShortcutsMatchSafeLogOfProb) {
  const auto expect_same = [](double mean, double sigma, double a, double b) {
    const double got = LogNormalIntervalProb(mean, sigma, a, b);
    const double want = SafeLog(NormalIntervalProb(mean, sigma, a, b));
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got));
      return;
    }
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
        << "mean=" << mean << " sigma=" << sigma << " [" << a << ", " << b
        << "]: got " << got << ", want " << want;
  };
  const double mean = 0.3;
  const double sigma = 0.01;
  // Intervals starting k sigma above the mean and ending k sigma below
  // it, on both sides of the 38 sigma cut.
  for (const double k :
       {30.0, 37.0, 37.9, 37.999999, 38.0, 38.000001, 38.1, 39.0, 1e6}) {
    expect_same(mean, sigma, mean + k * sigma, mean + (k + 2.0) * sigma);
    expect_same(mean, sigma, mean - (k + 2.0) * sigma, mean - k * sigma);
  }
  // Intervals reaching across +38 and -38 sigma.
  expect_same(mean, sigma, mean + 37.5 * sigma, mean + 38.5 * sigma);
  expect_same(mean, sigma, mean - 38.5 * sigma, mean - 37.5 * sigma);
  // sigma = 0 is an indicator: log 1 = +0.0 inside, the floor outside.
  expect_same(0.5, 0.0, 0.4, 0.6);
  expect_same(0.5, 0.0, 0.6, 0.7);
  // A NaN mean fails both shortcut tests and stays NaN.
  expect_same(std::nan(""), sigma, 0.2, 0.4);

  Rng rng(38);
  for (int i = 0; i < 20000; ++i) {
    const double s = rng.Uniform(1e-4, 0.05);
    const double m = rng.Uniform(-1.0, 2.0);
    const double k = rng.Uniform(36.0, 60.0);
    const double width = rng.Uniform(0.0, 5.0) * s;
    if (i % 2 == 0) {
      expect_same(m, s, m + k * s, m + k * s + width);
    } else {
      expect_same(m, s, m - k * s - width, m - k * s);
    }
  }
}

TEST(RadialWithinProbBatchTest, BitIdenticalToScalarCalls) {
  Rng rng(23);
  const size_t n = 65;
  std::vector<double> dist(n), sigmas(n), out(n);
  for (size_t i = 0; i < n; ++i) {
    dist[i] = rng.Uniform(0.0, 0.2);
    sigmas[i] = i % 5 == 0 ? 0.0 : rng.Uniform(0.001, 0.05);
  }
  const double delta = 0.05;
  RadialWithinProbBatch(dist.data(), sigmas.data(), delta, out.data(), n);
  for (size_t i = 0; i < n; ++i) {
    const double scalar = RadialWithinProb(dist[i], sigmas[i], delta);
    EXPECT_EQ(std::memcmp(&out[i], &scalar, sizeof(double)), 0) << "i=" << i;
  }
}

TEST(ProbWithinDeltaTest, RectangularFactorizes) {
  const Point2 l(0.2, 0.7);
  const Point2 p(0.25, 0.65);
  const double sigma = 0.05;
  const double delta = 0.03;
  const double expected =
      NormalIntervalProb(l.x, sigma, p.x - delta, p.x + delta) *
      NormalIntervalProb(l.y, sigma, p.y - delta, p.y + delta);
  EXPECT_DOUBLE_EQ(
      ProbWithinDelta(l, sigma, p, delta, IndifferenceModel::kRectangular),
      expected);
}

TEST(ProbWithinDeltaTest, ModelsAgreeQualitatively) {
  // Both models must rank a near cell above a far cell.
  const Point2 l(0.5, 0.5);
  const double sigma = 0.05;
  const double delta = 0.05;
  for (auto model :
       {IndifferenceModel::kRectangular, IndifferenceModel::kRadial}) {
    const double near = ProbWithinDelta(l, sigma, Point2(0.52, 0.5), delta, model);
    const double far = ProbWithinDelta(l, sigma, Point2(0.8, 0.8), delta, model);
    EXPECT_GT(near, far);
    EXPECT_GE(near, 0.0);
    EXPECT_LE(near, 1.0);
  }
}

TEST(ProbWithinDeltaTest, RadialInsideRectangular) {
  // The delta-disc is contained in the delta-square, so the radial
  // probability can never exceed the rectangular one.
  const double sigma = 0.04;
  const double delta = 0.05;
  for (double dx = 0.0; dx <= 0.2; dx += 0.02) {
    const Point2 l(0.5, 0.5);
    const Point2 p(0.5 + dx, 0.5);
    const double rect =
        ProbWithinDelta(l, sigma, p, delta, IndifferenceModel::kRectangular);
    const double rad =
        ProbWithinDelta(l, sigma, p, delta, IndifferenceModel::kRadial);
    EXPECT_LE(rad, rect + 1e-9) << "dx=" << dx;
  }
}

TEST(LogSpaceTest, SafeLogClampsAtFloor) {
  EXPECT_DOUBLE_EQ(SafeLog(1.0), 0.0);
  EXPECT_DOUBLE_EQ(SafeLog(0.0), LogFloor());
  EXPECT_DOUBLE_EQ(SafeLog(-1.0), LogFloor());
  EXPECT_LT(LogFloor(), -600.0);
  EXPECT_TRUE(std::isfinite(LogFloor()));
}

TEST(LogSpaceTest, AddLogFactorsFloorsTheSum) {
  EXPECT_EQ(AddLogFactors(-1.0, -2.0), -3.0);
  EXPECT_EQ(AddLogFactors(LogFloor(), -1.0), LogFloor());
  EXPECT_EQ(AddLogFactors(LogFloor(), LogFloor()), LogFloor());
  const double one = AddLogFactors(0.0, 0.0);
  EXPECT_EQ(one, 0.0);
  EXPECT_FALSE(std::signbit(one));
}

TEST(RngTest, DeterministicWithSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0.0, 1.0), b.Uniform(0.0, 1.0));
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(2.0, 0.5);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.02);
  EXPECT_NEAR(var, 0.25, 0.02);
}

TEST(RngTest, PickWeightedRespectsZeroWeight) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.PickWeighted({0.0, 1.0, 0.0}), 1);
  }
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng parent(3);
  Rng child1 = parent.Fork();
  Rng child2 = parent.Fork();
  // Distinct forks should (with overwhelming probability) differ.
  bool differs = false;
  for (int i = 0; i < 10; ++i) {
    if (child1.Uniform(0.0, 1.0) != child2.Uniform(0.0, 1.0)) differs = true;
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace trajpattern
