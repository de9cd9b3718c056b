#ifndef SWIM_COMMON_RANDOM_H_
#define SWIM_COMMON_RANDOM_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

namespace swim {

/// PCG32 (Permuted Congruential Generator, O'Neill 2014): a small, fast,
/// statistically strong 32-bit generator with a 64-bit state. swimcpp uses
/// its own engine (rather than std::mt19937) so that synthesized workloads
/// are bit-identical across platforms and standard library versions.
///
/// Satisfies the UniformRandomBitGenerator concept.
class Pcg32 {
 public:
  using result_type = uint32_t;

  /// Seeds the generator. Distinct (seed, stream) pairs yield independent
  /// sequences; the stream selector lets subsystems derive non-overlapping
  /// generators from one user-level seed.
  explicit Pcg32(uint64_t seed = 0x853c49e6748fea9bULL, uint64_t stream = 1);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Returns the next 32 random bits.
  result_type operator()() {
    uint64_t oldstate = state_;
    state_ = oldstate * 6364136223846793005ULL + inc_;
    uint32_t xorshifted =
        static_cast<uint32_t>(((oldstate >> 18u) ^ oldstate) >> 27u);
    uint32_t rot = static_cast<uint32_t>(oldstate >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((~rot + 1u) & 31u));
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    // 53 random bits into [0, 1).
    uint64_t hi = operator()();
    uint64_t lo = operator()();
    uint64_t bits = (hi << 21u) ^ (lo >> 11u);
    return static_cast<double>(bits & ((1ULL << 53u) - 1u)) /
           static_cast<double>(1ULL << 53u);
  }

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Uniform integer in [0, bound). `bound` must be positive. Uses
  /// debiased modulo (Lemire-style rejection) so all values are
  /// equally likely.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// The two uniforms one Box-Muller deviate consumes.
  struct GaussianDraw {
    double u1;  // in (1e-300, 1)
    double u2;  // in [0, 1)
  };

  /// Draws the uniforms of one standard normal deviate and no more: the
  /// generator state afterwards is the one NextGaussian leaves. Lets a
  /// caller make its draws in a serial pass and run the transform
  /// anywhere (see GaussianFromDraw).
  GaussianDraw NextGaussianDraw() {
    double u1 = NextDouble();
    double u2 = NextDouble();
    while (u1 <= 1e-300) u1 = NextDouble();
    return {u1, u2};
  }

  /// The Box-Muller transform of one draw.
  static double GaussianFromDraw(GaussianDraw draw) {
    return std::sqrt(-2.0 * std::log(draw.u1)) *
           std::cos(2.0 * std::numbers::pi * draw.u2);
  }

  /// Standard normal deviate (Box-Muller without the cached second
  /// deviate, so the generator state is a pure function of the call
  /// count).
  double NextGaussian() { return GaussianFromDraw(NextGaussianDraw()); }

  /// Lognormal deviate: exp(N(mu, sigma)). `sigma` must be >= 0.
  double NextLognormal(double mu, double sigma);

  /// Exponential deviate with the given rate (mean 1/rate). `rate` > 0.
  double NextExponential(double rate);

  /// Pareto deviate with scale x_m > 0 and shape alpha > 0.
  double NextPareto(double x_min, double alpha);

  /// True with probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Weights must be non-negative with a positive sum.
  size_t NextDiscrete(const std::vector<double>& weights);

  /// Returns a new generator seeded deterministically from this one; use to
  /// hand independent streams to subcomponents.
  Pcg32 Fork();

 private:
  uint64_t state_;
  uint64_t inc_;
};

}  // namespace swim

#endif  // SWIM_COMMON_RANDOM_H_
