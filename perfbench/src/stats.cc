#include "perfbench/src/stats.h"

#include <algorithm>
#include <cmath>

#include "src/support/check.h"

namespace perfbench {

double Percentile(std::vector<double> samples, double q) {
  PARTIR_CHECK(q >= 0.0 && q <= 1.0) << "percentile " << q;
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double position = q * static_cast<double>(samples.size() - 1);
  const size_t lower = static_cast<size_t>(std::floor(position));
  const size_t upper = std::min(lower + 1, samples.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return samples[lower] + fraction * (samples[upper] - samples[lower]);
}

double FailFraction(int64_t failed, int64_t attempted) {
  PARTIR_CHECK(attempted >= 1) << "no operations attempted";
  PARTIR_CHECK(failed >= 0 && failed <= attempted)
      << failed << " failed of " << attempted;
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  // 53 random bits -> [0, 1) exactly representable.
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

int64_t Rng::UniformInt(int64_t n) {
  PARTIR_CHECK(n >= 1);
  return static_cast<int64_t>(Uniform() * static_cast<double>(n));
}

double Rng::Exponential(double rate) {
  PARTIR_CHECK(rate > 0);
  // 1 - U is in (0, 1], so the log is finite.
  return -std::log(1.0 - Uniform()) / rate;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  Rng mix(seed ^ (stream * 0xD1B54A32D192ED03ull));
  return mix.Next();
}

std::vector<double> PoissonArrivals(uint64_t seed, double rate_per_s,
                                    double duration_s) {
  Rng rng(seed);
  std::vector<double> offsets;
  double t = rng.Exponential(rate_per_s);
  while (t < duration_s) {
    offsets.push_back(t);
    t += rng.Exponential(rate_per_s);
  }
  return offsets;
}

}  // namespace perfbench
