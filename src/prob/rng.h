#ifndef TRAJPATTERN_PROB_RNG_H_
#define TRAJPATTERN_PROB_RNG_H_

#include <cassert>
#include <cstdint>
#include <random>
#include <vector>

namespace trajpattern {

/// Deterministic random source for the data generators and tests.
///
/// Everything stochastic in the library flows through one of these so that
/// a (seed, parameters) pair reproduces a data set bit-for-bit; the bench
/// harness relies on this to make the paper's figures re-runnable.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int UniformInt(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Normal sample with the given mean and standard deviation (>= 0).
  /// Scales a standard normal draw, as libstdc++'s
  /// `normal_distribution` does internally (`z * stddev + mean`), so
  /// sigma > 0 samples are unchanged and sigma == 0, outside that
  /// distribution's precondition, returns `mean` after the same draws.
  double Normal(double mean, double sigma) {
    const double z = std::normal_distribution<double>(0.0, 1.0)(engine_);
    return z * sigma + mean;
  }

  /// Lognormal sample (of the underlying normal's mu/sigma).
  double Lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// True with probability p.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Index sampled proportionally to `weights` (all non-negative, not all
  /// zero).
  int PickWeighted(const std::vector<double>& weights) {
    assert(!weights.empty());
    return std::discrete_distribution<int>(weights.begin(), weights.end())(
        engine_);
  }

  /// Derives an independent child stream; lets per-object generators stay
  /// reproducible regardless of iteration order.
  Rng Fork() { return Rng(engine_()); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace trajpattern

#endif  // TRAJPATTERN_PROB_RNG_H_
