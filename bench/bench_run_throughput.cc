// Throughput of the SPMD runtime and the partition cache.
//
// Part 1: Executable::Run wall-clock vs thread count on an 8-device mesh
// (1 = the devices one after another on the calling thread; 8 = one thread
// per device). The workload is a compute-heavy batch-parallel matmul
// chain, so the threaded runtime's speedup tracks available host cores
// (reported as host_threads).
//
// Part 2: Program::Partition latency cold (cache miss, full pipeline) vs
// warm (cache hit, clone of the memoized module) on a transformer
// training step, plus the cache counters.
//
// Output is one JSON object on stdout (JsonWriter, bench_util.h).
#include <chrono>
#include <thread>

#include "bench/bench_util.h"
#include "src/spmd/spmd_interpreter.h"

namespace partir {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

Program BuildMatmulChain(int64_t layers, int64_t batch, int64_t width) {
  Program program("chain");
  Value* h = program.AddInput(TensorType({batch, width}), "x");
  std::vector<Value*> weights;
  for (int64_t i = 0; i < layers; ++i) {
    weights.push_back(
        program.AddInput(TensorType({width, width}), StrCat("w", i)));
  }
  OpBuilder& builder = program.builder();
  for (Value* w : weights) h = builder.Tanh(builder.MatMul(h, w));
  program.Return({h});
  return program;
}

double TimeRun(const Executable& exe, const std::vector<Tensor>& inputs,
               const RunOptions& options, int repeats) {
  double best_ms = 0;
  for (int i = 0; i < repeats; ++i) {
    auto start = Clock::now();
    StatusOr<std::vector<Tensor>> out = exe.Run(inputs, options);
    double ms = MsSince(start);
    if (!out.ok()) PARTIR_FATAL() << out.status().ToString();
    if (i == 0 || ms < best_ms) best_ms = ms;
  }
  return best_ms;
}

}  // namespace
}  // namespace partir

int main() {
  using namespace partir;
  using bench::JsonWriter;

  JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("run_throughput");
  json.Key("host_threads")
      .Value(static_cast<int64_t>(std::thread::hardware_concurrency()));

  // ---- Part 1: Run wall-clock vs thread count, 8-device mesh. ----
  Mesh mesh({{"B", 8}});
  Program chain = BuildMatmulChain(/*layers=*/4, /*batch=*/64, /*width=*/128);
  Executable exe =
      bench::Run(chain, mesh, {ManualPartition{"BP", {{"x", 0}}, "B"}});
  std::vector<Tensor> inputs = chain.RandomInputs(7);

  json.Key("mesh").Value(mesh.ToString());
  json.Key("devices").Value(mesh.NumDevices());
  json.Key("runs").BeginArray();
  double sequential_ms = 0;
  double full_threads_ms = 0;
  for (int threads : {1, 2, 4, 8}) {
    RunOptions options;
    options.num_threads = threads;
    double ms = TimeRun(exe, inputs, options, /*repeats=*/3);
    if (threads == 1) sequential_ms = ms;
    if (threads == 8) full_threads_ms = ms;
    json.BeginObject();
    json.Key("threads").Value(threads);
    json.Key("ms").Value(ms);
    json.Key("speedup_vs_sequential").Value(sequential_ms / ms);
    json.EndObject();
  }
  json.EndArray();
  json.Key("threaded_speedup").Value(sequential_ms / full_threads_ms);

  // ---- Part 2: Partition latency, cache miss vs hit. ----
  TransformerConfig config;
  config.num_layers = 2;
  config.d_model = 32;
  config.num_heads = 4;
  config.head_dim = 8;
  config.ffw_size = 64;
  config.vocab = 64;
  config.batch = 8;
  config.seq = 8;
  Program transformer = Program::Capture([&](Module& module) {
    return BuildTransformerTrainingStep(module, config);
  });
  Mesh tmesh({{"batch", 4}, {"model", 2}});
  std::vector<Tactic> schedule = schedules::TransformerBPMPZ3();

  auto cold_start = Clock::now();
  StatusOr<Executable> cold = transformer.Partition(schedule, tmesh);
  double cold_ms = MsSince(cold_start);
  if (!cold.ok()) PARTIR_FATAL() << cold.status().ToString();

  auto warm_start = Clock::now();
  StatusOr<Executable> warm = transformer.Partition(schedule, tmesh);
  double warm_ms = MsSince(warm_start);
  if (!warm.ok()) PARTIR_FATAL() << warm.status().ToString();

  PartitionCacheStats stats = transformer.cache_stats();
  json.Key("partition").BeginObject();
  json.Key("cold_ms").Value(cold_ms);
  json.Key("warm_ms").Value(warm_ms);
  json.Key("warm_speedup").Value(cold_ms / warm_ms);
  json.Key("cache_hits").Value(stats.hits);
  json.Key("cache_misses").Value(stats.misses);
  json.Key("cache_entries").Value(stats.entries);
  json.EndObject();

  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}
