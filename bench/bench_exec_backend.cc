// Reference walker vs compiled-executor comparison on the serving model zoo.
//
// For each of the five serving workloads (captured at batch 8, the serving
// bench's max_batch) this times Executable::Run under the sequential
// reference walker (ExecBackend::kInterpret, which ignores num_threads) and
// under the compiled executor at each thread count (best-of-repeats wall
// clock), counts fresh tensor allocations per Run (RunStats — exact even
// under concurrency, unlike deltas of the process-wide counter), and
// reports the memory planner's per-device peak arena bytes next to the
// fresh-tensor-per-op baseline. Threaded rows also time the compiled
// executor with the persistent worker pool disabled (use_pool = false, one
// spawned thread per device per Run) so the pool's contribution is its own
// column. Output is one JSON object on stdout.
//
// With --enforce-floor, exits non-zero unless the compiled executor run
// sequentially beats the walker by at least kChainFloor x on matmul_chain
// and kTransformerFloor x on transformer_infer — the CI regression gates
// for the compiled executor. transformer_infer is the representative one:
// 57 dots of every layout plus reduces, transposes and broadcasts, all on
// the strided kernels.
#include <chrono>
#include <cstring>
#include <thread>

#include "bench/bench_util.h"
#include "src/models/serving.h"
#include "src/spmd/spmd_interpreter.h"

namespace partir {
namespace {

using bench::JsonWriter;
using serving::AllServeWorkloads;
using serving::ServeWorkload;
using Clock = std::chrono::steady_clock;

// CI floors: compiled must beat the walker by these factors, run
// sequentially (noise-free in CI). Both sit well below what a 4-vCPU host
// measures (11-13x and 31-33x), leaving room for slower CI runners.
constexpr double kChainFloor = 2.5;
constexpr double kTransformerFloor = 5.0;
constexpr int64_t kBenchBatch = 8;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Sample {
  double ms = 0;          // best-of-repeats wall clock
  int64_t allocations = 0;  // fresh tensor buffers over one Run
};

Sample Measure(const Executable& exe, const std::vector<Tensor>& inputs,
               const RunOptions& options, int repeats) {
  Sample sample;
  RunStats stats;
  RunOptions run_options = options;
  run_options.stats = &stats;
  for (int i = 0; i < repeats; ++i) {
    auto start = Clock::now();
    StatusOr<std::vector<Tensor>> out = exe.Run(inputs, run_options);
    double ms = MsSince(start);
    if (!out.ok()) PARTIR_FATAL() << out.status().ToString();
    if (i == 0 || ms < sample.ms) sample.ms = ms;
    sample.allocations = stats.allocations;
  }
  return sample;
}

Executable PartitionOrFallback(Program& program, const ServeWorkload& w) {
  StatusOr<Executable> exe = program.Partition(w.schedule, w.mesh);
  if (!exe.ok()) exe = program.Partition({}, w.mesh);
  if (!exe.ok()) PARTIR_FATAL() << exe.status().ToString();
  return std::move(exe).value();
}

}  // namespace
}  // namespace partir

int main(int argc, char** argv) {
  using namespace partir;
  using bench::JsonWriter;

  bool enforce_floor = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--enforce-floor") == 0) enforce_floor = true;
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("exec_backend");
  json.Key("batch").Value(kBenchBatch);
  json.Key("host_threads")
      .Value(static_cast<int64_t>(std::thread::hardware_concurrency()));
  json.Key("workloads").BeginArray();

  double chain_sequential_speedup = 0;
  double transformer_sequential_speedup = 0;
  for (const ServeWorkload& workload : AllServeWorkloads()) {
    Program program = Program::Capture(workload.build, kBenchBatch);
    Executable exe = PartitionOrFallback(program, workload);
    std::vector<Tensor> inputs =
        program.RandomInputs(2026, workload.index_modulus);
    exec::MemoryStats stats = exe.memory_stats().value();

    json.BeginObject();
    json.Key("name").Value(workload.name);
    json.Key("devices").Value(stats.num_devices);
    json.Key("values").Value(stats.values);
    json.Key("arena_slots").Value(stats.slots);
    json.Key("peak_arena_bytes_per_device").Value(stats.peak_arena_bytes);
    json.Key("peak_live_bytes_per_device").Value(stats.peak_live_bytes);
    json.Key("unplanned_bytes_per_device").Value(stats.unplanned_bytes);
    json.Key("slots_reused").Value(stats.slots_reused);
    json.Key("in_place_ops").Value(stats.in_place_ops);
    json.Key("fused_chains").Value(stats.fused_chains);
    json.Key("fused_instructions").Value(stats.fused_instructions);
    // The walker is sequential whatever num_threads says: time it once.
    RunOptions interpret;
    interpret.backend = ExecBackend::kInterpret;
    Measure(exe, inputs, interpret, 1);
    Sample i_sample = Measure(exe, inputs, interpret, /*repeats=*/5);
    json.Key("runs").BeginArray();
    for (int threads : {1, 2, 0}) {
      RunOptions compiled;
      compiled.num_threads = threads;
      // Warm up (the first compiled Run sizes the arenas).
      Measure(exe, inputs, compiled, 1);
      Sample c_sample = Measure(exe, inputs, compiled, /*repeats=*/5);
      double speedup = i_sample.ms / c_sample.ms;
      if (workload.name == "matmul_chain" && threads == 1) {
        chain_sequential_speedup = speedup;
      }
      if (workload.name == "transformer_infer" && threads == 1) {
        transformer_sequential_speedup = speedup;
      }
      json.BeginObject();
      json.Key("threads")
          .Value(threads == 0 ? stats.num_devices
                              : static_cast<int64_t>(threads));
      json.Key("interpret_ms").Value(i_sample.ms);
      json.Key("compiled_ms").Value(c_sample.ms);
      json.Key("compiled_speedup").Value(speedup);
      json.Key("interpret_allocations").Value(i_sample.allocations);
      json.Key("compiled_allocations").Value(c_sample.allocations);
      if (threads != 1) {
        // Pool off: every Run spawns one thread per device, the pre-pool
        // behavior. The pooled row above is the same executor reusing the
        // executable's resident workers.
        RunOptions spawn = compiled;
        spawn.use_pool = false;
        Measure(exe, inputs, spawn, 1);
        Sample s_sample = Measure(exe, inputs, spawn, /*repeats=*/5);
        json.Key("compiled_spawn_ms").Value(s_sample.ms);
        json.Key("pool_speedup").Value(s_sample.ms / c_sample.ms);
      }
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  struct Floor {
    const char* workload;
    double floor;
    double speedup;
  };
  const Floor floors[] = {
      {"matmul_chain", kChainFloor, chain_sequential_speedup},
      {"transformer_infer", kTransformerFloor, transformer_sequential_speedup},
  };
  bool floors_ok = true;
  json.Key("floors").BeginArray();
  for (const Floor& floor : floors) {
    json.BeginObject();
    json.Key("workload").Value(floor.workload);
    json.Key("floor").Value(floor.floor);
    json.Key("speedup").Value(floor.speedup);
    json.Key("ok").Value(floor.speedup >= floor.floor);
    json.EndObject();
    floors_ok &= floor.speedup >= floor.floor;
  }
  json.EndArray();
  json.EndObject();
  std::printf("%s\n", json.str().c_str());

  if (enforce_floor && !floors_ok) {
    for (const Floor& floor : floors) {
      if (floor.speedup >= floor.floor) continue;
      std::fprintf(stderr,
                   "FAIL: compiled executor %.2fx vs the walker on %s "
                   "(floor %.2fx)\n",
                   floor.speedup, floor.workload, floor.floor);
    }
    return 1;
  }
  return 0;
}
