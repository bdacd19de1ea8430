// Serving-batcher throughput/latency bench: closed-loop producer threads
// drive the quickstart matmul workload through serve::Batcher, sweeping
// (max_batch, producer threads). Emits one JSON line per configuration
// with throughput plus p50/p99 request latency. Compilations are warmed up
// out-of-band (the partition cache makes every shape class a one-time
// cost).
//
// Two interleaved comparisons follow, each alternating which arm runs
// first in every round and merging an arm's requests over all its rounds:
//  - batched (max_batch=8) against unbatched (max_batch=1) throughput at 8
//    producers over kBatchRounds rounds — the batching win the serving
//    layer exists for;
//  - serving tail latency with the executable's persistent worker pool
//    (RunOptions::use_pool, the default) against spawning one thread per
//    device per batch, over kPoolRounds rounds, compared round by round.
// With --enforce-floors, exits non-zero unless batched throughput is at
// least kBatchFloor x unbatched and, in the median round, the pooled p99
// beats the spawning p99 by kPoolP99Floor x.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "bench/bench_util.h"
#include "src/models/serving.h"
#include "src/serve/batcher.h"
#include "src/support/mpmc_queue.h"

using namespace partir;
using namespace partir::bench;

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Percentile(std::vector<double> sorted_ms, double q) {
  if (sorted_ms.empty()) return 0;
  size_t index = static_cast<size_t>(q * (sorted_ms.size() - 1));
  return sorted_ms[index];
}

/** Median of `values`: the mean of the middle two for an even count. */
double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

// CI floor for batching: batched throughput must be at least this
// multiple of unbatched at 8 producers.
constexpr double kBatchFloor = 2.0;
// Rounds of the batching comparison. An arm's throughput is its requests
// over its wall time summed across rounds, so one slow run cannot decide
// the ratio.
constexpr int kBatchRounds = 12;
// CI floor for the pool comparison: in the median round, pooled p99 must
// beat per-batch thread spawning by this factor on the quickstart workload.
constexpr double kPoolP99Floor = 1.3;
// Rounds of the pool comparison. Each round runs both arms back to back
// and yields one ratio, spawn p99 / pooled p99; the floor holds the median
// of the 80 ratios, so a host stall that slows both arms of a few rounds
// moves a few ratios, not the median.
constexpr int kPoolRounds = 80;

struct Config {
  int64_t max_batch;
  int producers;
  int requests_per_producer;
  RunOptions run;  // pool settings forwarded to the batcher
};

struct Result {
  double throughput_rps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  BatcherStats stats;
  std::vector<double> latencies_ms;  // every request, sorted
  double wall_ms = 0;
};

/** Sets the throughput and percentiles from latencies_ms and wall_ms. */
void Summarize(Result& result) {
  std::sort(result.latencies_ms.begin(), result.latencies_ms.end());
  result.throughput_rps =
      static_cast<double>(result.latencies_ms.size()) /
      (result.wall_ms / 1e3);
  result.p50_ms = Percentile(result.latencies_ms, 0.50);
  result.p99_ms = Percentile(result.latencies_ms, 0.99);
}

Result RunConfig(const serving::ServeWorkload& workload,
                 serving::WorkloadHarness& harness, const Config& config) {
  Program program = Program::Capture(workload.build, 1);
  BatchOptions options;
  options.max_batch = config.max_batch;
  options.max_delay_us = 1000;
  options.max_inflight = 2;
  options.run = config.run;
  std::unique_ptr<Batcher> batcher =
      program.Serve(workload.schedule, workload.mesh, options).value();

  // Warm the compile path for every batch size this run can form.
  for (int64_t k = 1; k <= config.max_batch; ++k) {
    std::vector<ServeFuture> warm;
    for (int64_t r = 0; r < k; ++r) {
      warm.push_back(batcher->Submit(harness.Request(r)));
    }
    for (ServeFuture& future : warm) (void)future.get();
  }

  // Closed-loop clients: each producer keeps one request in flight, so
  // coalescing happens across producers — the serving regime.
  std::vector<std::vector<double>> latencies(config.producers);
  Latch start(config.producers);
  std::vector<std::thread> producers;
  Clock::time_point wall_start;
  for (int p = 0; p < config.producers; ++p) {
    producers.emplace_back([&, p] {
      start.CountDown();
      start.Wait();
      for (int r = 0; r < config.requests_per_producer; ++r) {
        Clock::time_point t0 = Clock::now();
        ServeFuture future =
            batcher->Submit(harness.Request(1000 + p * 1000 + r));
        ServeResponse response = future.get();
        if (!response.ok()) PARTIR_FATAL() << response.status().ToString();
        latencies[p].push_back(MillisSince(t0));
      }
    });
  }
  wall_start = Clock::now();
  for (std::thread& producer : producers) producer.join();
  double wall_ms = MillisSince(wall_start);
  batcher->Shutdown();

  Result result;
  for (const std::vector<double>& from_producer : latencies) {
    result.latencies_ms.insert(result.latencies_ms.end(),
                               from_producer.begin(), from_producer.end());
  }
  result.wall_ms = wall_ms;
  Summarize(result);
  result.stats = batcher->stats();
  return result;
}

/** Both arms of an interleaved comparison. */
struct ArmPair {
  Result a, b;
};

/**
 * Runs `rounds` rounds of arms a and b, alternating which runs first, and
 * returns each arm's requests and wall time merged over all its rounds.
 * Each round's own pair of runs is appended to `per_round`.
 */
ArmPair RunInterleaved(const serving::ServeWorkload& workload,
                       serving::WorkloadHarness& harness, const Config& a,
                       const Config& b, int rounds,
                       std::vector<ArmPair>& per_round) {
  ArmPair merged;
  for (int round = 0; round < rounds; ++round) {
    ArmPair runs;
    for (int turn = 0; turn < 2; ++turn) {
      const bool a_turn = (round + turn) % 2 == 0;
      Result& run = a_turn ? runs.a : runs.b;
      run = RunConfig(workload, harness, a_turn ? a : b);
      Result& arm = a_turn ? merged.a : merged.b;
      arm.latencies_ms.insert(arm.latencies_ms.end(),
                              run.latencies_ms.begin(),
                              run.latencies_ms.end());
      arm.wall_ms += run.wall_ms;
    }
    per_round.push_back(std::move(runs));
  }
  Summarize(merged.a);
  Summarize(merged.b);
  return merged;
}

}  // namespace

int main(int argc, char** argv) {
  bool enforce_floors = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--enforce-floors") == 0) enforce_floors = true;
  }

  PrintHeader("Serving batcher: throughput and latency vs (max_batch, "
              "producer threads) [quickstart workload]");
  serving::ServeWorkload workload = serving::MatMulChainWorkload();
  serving::WorkloadHarness harness(workload);

  const int kRequests = 40;
  for (int producers : {1, 4, 8}) {
    for (int64_t max_batch : {int64_t{1}, int64_t{2}, int64_t{4},
                              int64_t{8}}) {
      Config config{max_batch, producers, kRequests, RunOptions{}};
      Result result = RunConfig(workload, harness, config);
      JsonWriter json;
      json.BeginObject()
          .Key("bench").Value("serve_throughput")
          .Key("workload").Value(workload.name)
          .Key("max_batch").Value(max_batch)
          .Key("producers").Value(producers)
          .Key("requests").Value(producers * kRequests)
          .Key("throughput_rps").Value(result.throughput_rps)
          .Key("p50_ms").Value(result.p50_ms)
          .Key("p99_ms").Value(result.p99_ms)
          .Key("mean_batch").Value(result.stats.MeanBatchSize())
          .Key("batches").Value(result.stats.batches)
          .Key("compiles").Value(result.stats.compiles)
          .Key("cache_hits").Value(result.stats.cache.hits)
          .Key("cache_misses").Value(result.stats.cache.misses);
      json.EndObject();
      std::printf("%s\n", json.str().c_str());
    }
  }

  // ---- Batched vs unbatched throughput ----
  Config unbatched_config{/*max_batch=*/1, /*producers=*/8, kRequests,
                          RunOptions{}};
  Config batched_config = unbatched_config;
  batched_config.max_batch = 8;
  std::vector<ArmPair> batch_rounds;
  ArmPair batch = RunInterleaved(workload, harness, batched_config,
                                 unbatched_config, kBatchRounds,
                                 batch_rounds);
  double speedup = batch.a.throughput_rps / batch.b.throughput_rps;
  JsonWriter json;
  json.BeginObject()
      .Key("bench").Value("serve_throughput_summary")
      .Key("workload").Value(workload.name)
      .Key("producers").Value(unbatched_config.producers)
      .Key("rounds").Value(kBatchRounds)
      .Key("requests_per_arm")
      .Value(static_cast<int64_t>(batch.a.latencies_ms.size()))
      .Key("unbatched_rps").Value(batch.b.throughput_rps)
      .Key("batched_rps_max_batch_8").Value(batch.a.throughput_rps)
      .Key("speedup").Value(speedup)
      .Key("batch_floor").Value(kBatchFloor)
      .Key("batch_floor_ok").Value(speedup >= kBatchFloor)
      .Key("round_speedups").BeginArray();
  for (const ArmPair& round : batch_rounds) {
    json.Value(round.a.throughput_rps / round.b.throughput_rps);
  }
  json.EndArray();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  std::printf("batched throughput %.2fx unbatched at max_batch=8 "
              "(floor %.1fx)\n", speedup, kBatchFloor);

  // ---- Persistent worker pool vs per-batch thread spawning ----
  // Same serving regime; the only difference between the arms is
  // RunOptions::use_pool.
  Config pooled_config{/*max_batch=*/4, /*producers=*/4,
                       /*requests_per_producer=*/40, RunOptions{}};
  Config spawn_config = pooled_config;
  spawn_config.run.use_pool = false;
  std::vector<ArmPair> pool_rounds;
  ArmPair pool = RunInterleaved(workload, harness, pooled_config,
                                spawn_config, kPoolRounds, pool_rounds);
  const Result& pooled = pool.a;
  const Result& spawn = pool.b;
  // Informational: the ratio of the p99s over every request of each arm.
  double pool_p99_speedup =
      pooled.p99_ms > 0 ? spawn.p99_ms / pooled.p99_ms : 0;
  // The gate: the median over rounds of each round's own p99 ratio.
  std::vector<double> round_ratios;
  for (const ArmPair& round : pool_rounds) {
    round_ratios.push_back(round.a.p99_ms > 0 ? round.b.p99_ms / round.a.p99_ms
                                              : 0);
  }
  const double pool_round_median = Median(round_ratios);
  JsonWriter pool_json;
  pool_json.BeginObject()
      .Key("bench").Value("serve_pool_vs_spawn")
      .Key("workload").Value(workload.name)
      .Key("backend").Value("compiled")
      .Key("max_batch").Value(pooled_config.max_batch)
      .Key("producers").Value(pooled_config.producers)
      .Key("rounds").Value(kPoolRounds)
      .Key("requests_per_arm")
      .Value(static_cast<int64_t>(pooled.latencies_ms.size()))
      .Key("pooled_p50_ms").Value(pooled.p50_ms)
      .Key("pooled_p99_ms").Value(pooled.p99_ms)
      .Key("pooled_rps").Value(pooled.throughput_rps)
      .Key("spawn_p50_ms").Value(spawn.p50_ms)
      .Key("spawn_p99_ms").Value(spawn.p99_ms)
      .Key("spawn_rps").Value(spawn.throughput_rps)
      .Key("pool_p99_speedup").Value(pool_p99_speedup)
      .Key("pool_round_p99_ratio_median").Value(pool_round_median)
      .Key("pool_floor").Value(kPoolP99Floor)
      .Key("pool_floor_ok").Value(pool_round_median >= kPoolP99Floor);
  auto write_rounds = [&](const char* key, bool pooled_arm) {
    pool_json.Key(key).BeginArray();
    for (const ArmPair& round : pool_rounds) {
      pool_json.Value(pooled_arm ? round.a.p99_ms : round.b.p99_ms);
    }
    pool_json.EndArray();
  };
  write_rounds("pooled_round_p99_ms", true);
  write_rounds("spawn_round_p99_ms", false);
  pool_json.EndObject();
  std::printf("%s\n", pool_json.str().c_str());
  std::printf("pooled p99 %.3fms vs spawn p99 %.3fms: %.2fx over all "
              "requests, %.2fx in the median round (floor %.1fx)\n",
              pooled.p99_ms, spawn.p99_ms, pool_p99_speedup,
              pool_round_median, kPoolP99Floor);

  if (!enforce_floors) return 0;
  bool ok = true;
  if (speedup < kBatchFloor) {
    std::fprintf(stderr,
                 "FAIL: batched serving throughput only %.2fx unbatched "
                 "(floor %.2fx)\n",
                 speedup, kBatchFloor);
    ok = false;
  }
  if (pool_round_median < kPoolP99Floor) {
    std::fprintf(stderr,
                 "FAIL: pooled serving p99 only %.2fx better than per-batch "
                 "spawning in the median round (floor %.2fx)\n",
                 pool_round_median, kPoolP99Floor);
    ok = false;
  }
  return ok ? 0 : 1;
}
