#include "common/random.h"

#include <cmath>

#include "common/logging.h"

namespace swim {

Pcg32::Pcg32(uint64_t seed, uint64_t stream) : state_(0), inc_((stream << 1u) | 1u) {
  operator()();
  state_ += seed;
  operator()();
}

double Pcg32::NextDouble(double lo, double hi) {
  SWIM_CHECK_LE(lo, hi);
  return lo + (hi - lo) * NextDouble();
}

uint64_t Pcg32::NextBounded(uint64_t bound) {
  SWIM_CHECK_GT(bound, 0u);
  if (bound == 1) return 0;
  // Rejection sampling over 64 random bits to remove modulo bias.
  uint64_t threshold = (~bound + 1u) % bound;  // == 2^64 mod bound
  for (;;) {
    uint64_t r = (static_cast<uint64_t>(operator()()) << 32u) | operator()();
    if (r >= threshold) return r % bound;
  }
}

int64_t Pcg32::NextInt(int64_t lo, int64_t hi) {
  SWIM_CHECK_LE(lo, hi);
  return lo + static_cast<int64_t>(
                  NextBounded(static_cast<uint64_t>(hi - lo) + 1u));
}

double Pcg32::NextLognormal(double mu, double sigma) {
  SWIM_CHECK_GE(sigma, 0.0);
  return std::exp(mu + sigma * NextGaussian());
}

double Pcg32::NextExponential(double rate) {
  SWIM_CHECK_GT(rate, 0.0);
  double u = NextDouble();
  while (u <= 1e-300) u = NextDouble();
  return -std::log(u) / rate;
}

double Pcg32::NextPareto(double x_min, double alpha) {
  SWIM_CHECK_GT(x_min, 0.0);
  SWIM_CHECK_GT(alpha, 0.0);
  double u = NextDouble();
  while (u <= 1e-300) u = NextDouble();
  return x_min / std::pow(u, 1.0 / alpha);
}

bool Pcg32::NextBernoulli(double p) { return NextDouble() < p; }

size_t Pcg32::NextDiscrete(const std::vector<double>& weights) {
  SWIM_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    SWIM_CHECK_GE(w, 0.0);
    total += w;
  }
  SWIM_CHECK_GT(total, 0.0);
  double target = NextDouble() * total;
  double cumulative = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    cumulative += weights[i];
    if (target < cumulative) return i;
  }
  return weights.size() - 1;
}

Pcg32 Pcg32::Fork() {
  uint64_t seed = (static_cast<uint64_t>(operator()()) << 32u) | operator()();
  uint64_t stream = (static_cast<uint64_t>(operator()()) << 32u) | operator()();
  return Pcg32(seed, stream);
}

}  // namespace swim
