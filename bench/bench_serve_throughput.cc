// Serving-batcher throughput/latency bench: closed-loop producer threads
// drive the quickstart matmul workload through serve::Batcher, sweeping
// (max_batch, producer threads). Emits one JSON line per configuration
// with throughput plus p50/p99 request latency, and a final line comparing
// batched (max_batch=8) against unbatched (max_batch=1) throughput at the
// same offered concurrency — the batching win the serving layer exists
// for. Compilations are warmed up out-of-band (the partition cache makes
// every shape class a one-time cost).
//
// A second summary compares serving tail latency with the executable's
// persistent worker pool (RunOptions::use_pool, the default) against the
// pre-pool behavior of spawning one thread per device per batch. With
// --enforce-pool-floor, exits non-zero unless the pooled p99 beats the
// spawning p99 by kPoolP99Floor x.
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

// CI floor for the pool comparison: pooled p99 must beat per-batch thread
// spawning by this factor on the quickstart workload.
constexpr double kPoolP99Floor = 1.3;

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
};

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

  std::vector<double> all;
  for (const std::vector<double>& from_producer : latencies) {
    all.insert(all.end(), from_producer.begin(), from_producer.end());
  }
  std::sort(all.begin(), all.end());
  Result result;
  int64_t total = static_cast<int64_t>(all.size());
  result.throughput_rps = total / (wall_ms / 1e3);
  result.p50_ms = Percentile(all, 0.50);
  result.p99_ms = Percentile(all, 0.99);
  result.stats = batcher->stats();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool enforce_pool_floor = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--enforce-pool-floor") == 0) {
      enforce_pool_floor = true;
    }
  }

  PrintHeader("Serving batcher: throughput and latency vs (max_batch, "
              "producer threads) [quickstart workload]");
  serving::ServeWorkload workload = serving::MatMulChainWorkload();
  serving::WorkloadHarness harness(workload);

  const int kRequests = 40;
  double unbatched_rps = 0, batched_rps = 0;
  for (int producers : {1, 4, 8}) {
    for (int64_t max_batch : {int64_t{1}, int64_t{2}, int64_t{4},
                              int64_t{8}}) {
      Config config{max_batch, producers, kRequests};
      Result result = RunConfig(workload, harness, config);
      if (producers == 8 && max_batch == 1) unbatched_rps =
          result.throughput_rps;
      if (producers == 8 && max_batch == 8) batched_rps =
          result.throughput_rps;
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

  double speedup = unbatched_rps > 0 ? batched_rps / unbatched_rps : 0;
  JsonWriter json;
  json.BeginObject()
      .Key("bench").Value("serve_throughput_summary")
      .Key("workload").Value(workload.name)
      .Key("producers").Value(8)
      .Key("unbatched_rps").Value(unbatched_rps)
      .Key("batched_rps_max_batch_8").Value(batched_rps)
      .Key("speedup").Value(speedup);
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  std::printf("batched throughput %.2fx unbatched at max_batch=8 "
              "(target: >= 2x)\n", speedup);

  // ---- Persistent worker pool vs per-batch thread spawning ----
  // Same serving regime; the only difference between the arms is
  // RunOptions::use_pool. Best-of-3 per arm, arms interleaved, so a
  // background hiccup cannot land entirely on one side.
  Config pooled_config{/*max_batch=*/4, /*producers=*/4,
                       /*requests_per_producer=*/40, RunOptions{}};
  Config spawn_config = pooled_config;
  spawn_config.run.use_pool = false;
  Result pooled, spawn;
  for (int round = 0; round < 3; ++round) {
    Result p = RunConfig(workload, harness, pooled_config);
    Result s = RunConfig(workload, harness, spawn_config);
    if (round == 0 || p.p99_ms < pooled.p99_ms) pooled = p;
    if (round == 0 || s.p99_ms < spawn.p99_ms) spawn = s;
  }
  double pool_p99_speedup =
      pooled.p99_ms > 0 ? spawn.p99_ms / pooled.p99_ms : 0;
  JsonWriter pool_json;
  pool_json.BeginObject()
      .Key("bench").Value("serve_pool_vs_spawn")
      .Key("workload").Value(workload.name)
      .Key("backend").Value("compiled")
      .Key("max_batch").Value(pooled_config.max_batch)
      .Key("producers").Value(pooled_config.producers)
      .Key("pooled_p50_ms").Value(pooled.p50_ms)
      .Key("pooled_p99_ms").Value(pooled.p99_ms)
      .Key("pooled_rps").Value(pooled.throughput_rps)
      .Key("spawn_p50_ms").Value(spawn.p50_ms)
      .Key("spawn_p99_ms").Value(spawn.p99_ms)
      .Key("spawn_rps").Value(spawn.throughput_rps)
      .Key("pool_p99_speedup").Value(pool_p99_speedup)
      .Key("pool_floor").Value(kPoolP99Floor)
      .Key("pool_floor_ok").Value(pool_p99_speedup >= kPoolP99Floor);
  pool_json.EndObject();
  std::printf("%s\n", pool_json.str().c_str());
  std::printf("pooled p99 %.3fms vs spawn p99 %.3fms: %.2fx (floor %.1fx)\n",
              pooled.p99_ms, spawn.p99_ms, pool_p99_speedup, kPoolP99Floor);

  if (enforce_pool_floor && pool_p99_speedup < kPoolP99Floor) {
    std::fprintf(stderr,
                 "FAIL: pooled serving p99 only %.2fx better than per-batch "
                 "spawning (floor %.2fx)\n",
                 pool_p99_speedup, kPoolP99Floor);
    return 1;
  }
  return speedup >= 2.0 ? 0 : 1;
}
