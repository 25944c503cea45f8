#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/simd_kernels.h"
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
  simd::LogIntervalProbColumn(means.data(), sigmas.data(), a, b, out.data(),
                              n);
  for (size_t i = 0; i < n; ++i) {
    const double scalar = LogNormalIntervalProb(means[i], sigmas[i], a, b);
    EXPECT_EQ(std::memcmp(&out[i], &scalar, sizeof(double)), 0) << "i=" << i;
  }
}

TEST(NormalIntervalProbBatchTest, EmptyIsANoOp) {
  simd::LogIntervalProbColumn(nullptr, nullptr, 0.0, 1.0, nullptr, 0);
}

// The log form skips the tails beyond the 37.05-sigma floor cut and the
// log below kProbFloor; both early returns must give exactly what SafeLog
// of the probability gives.
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

/// Q(z) = P(X > z) for X ~ N(0, 1) and z >= 0: the kernel's tail, which
/// is 0 beyond 38.5 sigma.
double UpperTail(double z) { return StdNormalCdf(-z); }

/// `LogNormalIntervalProb` without any shortcut: the outside-tails form
/// from both tails, Q(near) - Q(far) for a box on one side of the mean and
/// 1 - (Q(near) + Q(far)) for a box that holds it (where, by the form's
/// definition, a tail beyond 8.5 sigma counts as 0), then SafeLog.
double FullPathLogNormalIntervalProb(double mean, double sigma, double a,
                                     double b) {
  double p;
  if (sigma <= 0.0) {
    p = (mean >= a && mean <= b) ? 1.0 : 0.0;
  } else {
    const double lo = (a - mean) / sigma;
    const double hi = (b - mean) / sigma;
    const double near = std::min(std::fabs(lo), std::fabs(hi));
    const double far = std::max(std::fabs(lo), std::fabs(hi));
    const auto mean_tail = [](double z) { return z > 8.5 ? 0.0 : UpperTail(z); };
    if (std::isnan(lo) || std::isnan(hi)) {
      p = lo + hi;
    } else if (lo > 0.0 || hi < 0.0) {
      p = UpperTail(near) - UpperTail(far);
    } else {
      p = 1.0 - (mean_tail(near) + mean_tail(far));
    }
  }
  return SafeLog(p);
}

/// `z` and its 64 neighbours on each side, one ulp apart.
std::vector<double> UlpNeighbourhood(double z) {
  std::vector<double> out = {z};
  double up = z, down = z;
  for (int i = 0; i < 64; ++i) {
    up = std::nextafter(up, std::numeric_limits<double>::infinity());
    down = std::nextafter(down, -std::numeric_limits<double>::infinity());
    out.push_back(up);
    out.push_back(down);
  }
  return out;
}

/// The ulp neighbourhoods of 0 and of each cut of the kernel on both
/// sides of the mean: the mean-box tail (8.5), the far-tail drop (13), the
/// floor cut (37.05) and the zero tail (38.5).
std::vector<double> CutSweep() {
  std::vector<double> sweep;
  for (const double t :
       {0.0, -8.5, 8.5, -13.0, 13.0, -37.05, 37.05, -38.5, 38.5}) {
    const std::vector<double> z = UlpNeighbourhood(t);
    sweep.insert(sweep.end(), z.begin(), z.end());
  }
  return sweep;
}

// The shortcuts (a one-sided box beyond the 37.05-sigma floor cut: the
// floor; a dropped far tail: Q(near) alone; a box holding the mean with
// both tails beyond 8.5: +0.0) return the bits of the full path.  z
// sweeps across every cut in ulp steps with mean 0 and sigma 1, where the
// standardized bounds are the bounds themselves, then over a grid of
// (mean, sigma, a, b), with infinite bounds and a NaN mean.
TEST(LogNormalIntervalProbTest, TailShortcutsMatchTheFullPathBitForBit) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  size_t checked = 0;
  const auto expect_same = [&](double mean, double sigma, double a, double b) {
    if (!(a <= b)) return;
    const double got = LogNormalIntervalProb(mean, sigma, a, b);
    const double want = FullPathLogNormalIntervalProb(mean, sigma, a, b);
    ++checked;
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got)) << "mean=" << mean;
      return;
    }
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
        << std::hexfloat << "mean=" << mean << " sigma=" << sigma << " ["
        << a << ", " << b << "]: got " << got << ", want " << want;
  };
  std::vector<double> partners = {-kInf, -40.0, -38.0, -17.0, -9.0, -8.0,
                                  -4.5,  -1.0,  -0.0,  0.0,   0.25, 1.0,
                                  4.5,   8.0,   9.0,   17.0,  38.0, 40.0,
                                  kInf};
  const std::vector<double> sweep = CutSweep();
  partners.insert(partners.end(), sweep.begin(), sweep.end());
  for (const double z : sweep) {
    for (const double other : partners) {
      expect_same(0.0, 1.0, z, other);  // z as the lower bound
      expect_same(0.0, 1.0, other, z);  // z as the upper bound
    }
  }

  const double means[] = {-1.5, 0.0, 0.3, 1e3};
  const double sigmas[] = {1e-9, 0.006, 0.05, 1.0, 7.0};
  const double zs[] = {-kInf, -40.0, -38.5, -37.050001, -37.05, -37.049999,
                       -20.0, -13.000001, -13.0, -9.0, -8.500001, -8.5,
                       -8.499999, -8.3, -4.5, -3.0, 0.0, 0.5, 4.5, 7.9, 8.3,
                       8.499999, 8.5, 8.500001, 9.0, 12.999999, 13.0, 20.0,
                       37.049999, 37.05, 37.050001, 38.5, 40.0, kInf};
  for (const double mean : means) {
    for (const double sigma : sigmas) {
      for (const double za : zs) {
        for (const double zb : zs) {
          expect_same(mean, sigma, mean + za * sigma, mean + zb * sigma);
        }
      }
    }
  }
  // A NaN mean fails every shortcut test and stays NaN, at any bounds.
  for (const double za : zs) {
    for (const double zb : zs) expect_same(std::nan(""), 0.01, za, zb);
  }
  EXPECT_GT(checked, 100000u);
}

// Eq. 2's Prob cannot change when an axis is mirrored, and neither may its
// bits: (mean, a, b) -> (-mean, -b, -a) maps the standardized edges
// (lo, hi) to (-hi, -lo) exactly, so the form sees the same two tails.
TEST(LogNormalIntervalProbTest, MirroredBoxGivesTheSameBits) {
  size_t checked = 0;
  const auto expect_mirror = [&](double mean, double sigma, double a,
                                 double b) {
    if (!(a <= b)) return;
    const double got = LogNormalIntervalProb(mean, sigma, a, b);
    const double mirrored = LogNormalIntervalProb(-mean, sigma, -b, -a);
    const double p = NormalIntervalProb(mean, sigma, a, b);
    const double p_mirrored = NormalIntervalProb(-mean, sigma, -b, -a);
    ++checked;
    EXPECT_EQ(std::memcmp(&got, &mirrored, sizeof(double)), 0)
        << std::hexfloat << "mean=" << mean << " sigma=" << sigma << " ["
        << a << ", " << b << "]: " << got << " vs " << mirrored;
    EXPECT_EQ(std::memcmp(&p, &p_mirrored, sizeof(double)), 0)
        << std::hexfloat << "mean=" << mean << " sigma=" << sigma << " ["
        << a << ", " << b << "]: " << p << " vs " << p_mirrored;
  };
  Rng rng(40);
  for (int i = 0; i < 200000; ++i) {
    const double mean = rng.Uniform(-2.0, 2.0);
    const double sigma = rng.Uniform(1e-3, 2.0);
    const double lo = rng.Uniform(-40.0, 40.0);
    const double width = i % 2 == 0 ? rng.Uniform(0.0, 40.0)
                                    : rng.Uniform(0.0, 2.0);
    expect_mirror(mean, sigma, mean + lo * sigma,
                  mean + (lo + width) * sigma);
  }
  const std::vector<double> sweep = CutSweep();
  for (const double z : sweep) {
    for (const double other : {-40.0, -17.0, -8.0, -1.0, 0.0, 0.5, 4.0,
                               12.0, 36.0, 40.0}) {
      expect_mirror(0.0, 1.0, std::min(z, other), std::max(z, other));
      expect_mirror(0.3, 0.01, 0.3 + 0.01 * std::min(z, other),
                    0.3 + 0.01 * std::max(z, other));
    }
  }
  EXPECT_GT(checked, 200000u);
}

/// The outside-tails form in long double, from the double standardized
/// edges: Q(z) = erfcl(z / sqrt 2) / 2, then logl, floored at kProbFloor.
long double ReferenceLogNormalIntervalProb(double mean, double sigma,
                                           double a, double b) {
  const double lo = (a - mean) / sigma;
  const double hi = (b - mean) / sigma;
  const auto q = [](long double z) {
    return 0.5L * std::erfc(z / std::sqrt(2.0L));
  };
  const long double near = std::min(std::fabs(lo), std::fabs(hi));
  const long double far = std::max(std::fabs(lo), std::fabs(hi));
  long double p;
  if (lo > 0.0 || hi < 0.0) {
    p = q(near) - q(far);
  } else {
    const auto mean_tail = [&](long double z) { return z > 8.5L ? 0.0L : q(z); };
    p = 1.0L - (mean_tail(near) + mean_tail(far));
  }
  return p < kProbFloor ? static_cast<long double>(LogFloor()) : std::log(p);
}

double Ulp(double x) {
  x = std::fabs(x);
  return std::nextafter(x, std::numeric_limits<double>::infinity()) - x;
}

// DESIGN.md 4g's error bound: for a box at least 1 sigma wide, the kernel
// is within 2 ulp(log p) + 4 x 2^-53 of the same form evaluated with
// long double erfcl and logl, on random boxes across +-40 sigma and on
// the ZebraNet and bus box shapes.
TEST(LogNormalIntervalProbTest, WithinTheStatedBoundOfALongDoubleReference) {
  double worst = 0.0;
  const auto check = [&](double mean, double sigma, double a, double b) {
    const double got = LogNormalIntervalProb(mean, sigma, a, b);
    const long double want = ReferenceLogNormalIntervalProb(mean, sigma, a, b);
    const double err = static_cast<double>(std::fabs(got - want));
    const double bound = 2.0 * Ulp(got) + 4.0 * 0x1p-53;
    worst = std::max(worst, err / bound);
    EXPECT_LE(err, bound) << std::hexfloat << "mean=" << mean
                          << " sigma=" << sigma << " [" << a << ", " << b
                          << "]: got " << got << ", want "
                          << static_cast<double>(want);
  };
  Rng rng(41);
  for (int i = 0; i < 100000; ++i) {
    const double lo = rng.Uniform(-40.0, 40.0);
    check(0.0, 1.0, lo, lo + rng.Uniform(1.0, 40.0));
  }
  // ZebraNet: sigma 0.006, a 10 x 10 grid on the unit square and delta
  // 0.1, so boxes 33 sigma wide.  Bus: velocity sigma 0.00707, a 24 x 24
  // grid with 0.0079-wide cells and delta half a cell, boxes 1.3 sigma
  // wide.
  for (int i = 0; i < 50000; ++i) {
    const double cx = 0.05 + 0.1 * rng.UniformInt(0, 9);
    check(rng.Uniform(0.0, 1.0), 0.006, cx - 0.1, cx + 0.1);
    const double bx = -0.0936 + 0.0079 * (rng.UniformInt(0, 23) + 0.5);
    check(rng.Uniform(-0.094, 0.086), 0.00707, bx - 0.00456, bx + 0.00456);
  }
  RecordProperty("worst_fraction_of_bound", std::to_string(worst));
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
