/**
 * @file
 * The benchmark's arithmetic: percentiles, failure fractions, the seeded
 * random stream every generated input comes from, and the open-loop arrival
 * schedule. Kept apart from the workloads so the self-tests can pin it.
 */
#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}
inline double MillisSince(Clock::time_point start) {
  return MillisBetween(start, Clock::now());
}

/**
 * The q-quantile (q in [0, 1]) of `samples` by linear interpolation between
 * closest ranks: position q * (n - 1) in sorted order. 0 for no samples.
 */
double Percentile(std::vector<double> samples, double q);

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/** failed / attempted; requires attempted >= 1 and 0 <= failed <= attempted. */
double FailFraction(int64_t failed, int64_t attempted);

/** splitmix64: a small, fast, fully specified generator, so a seed means the
 *  same inputs on every platform and standard library. */
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}

  uint64_t Next();
  /** Uniform in [0, 1). */
  double Uniform();
  /** Uniform integer in [0, n); n >= 1. */
  int64_t UniformInt(int64_t n);
  /** Exponentially distributed with the given rate (mean 1 / rate). */
  double Exponential(double rate);

 private:
  uint64_t state_;
};

/** An independent stream of `seed` for one purpose (weights, batches,
 *  arrivals, ...), so adding a consumer never shifts another's inputs. */
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/**
 * Send offsets, in seconds from the start of an open-loop phase, of a Poisson
 * process at `rate_per_s` over [0, duration_s). Same seed, same schedule.
 */
std::vector<double> PoissonArrivals(uint64_t seed, double rate_per_s,
                                    double duration_s);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
