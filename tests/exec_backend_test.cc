// Differential tests for the compiled executor, the default engine: every
// example and serving workload runs compiled at num_threads 1, 3 and 0 and
// must be bit-identical (memcmp) to the sequential reference walker
// (ExecBackend::kInterpret). Single-op cases pin each strided kernel (dot,
// reduce, transpose, broadcast_in_dim) the same way, a count checks that no
// such instruction of a real workload falls back, and per-element loops
// check the block copies under slicing, concatenation and (un)sharding.
// Also covers memory_stats(), ad-hoc compilation after module mutation,
// cache-hit clones, the worker pool, per-Run allocation stats, typed
// replica mismatches, the refusal of loop-region modules, and a batcher
// smoke. This suite runs under the ThreadSanitizer CI job.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>

#include "src/analysis/analyze.h"
#include "src/api/partir.h"
#include "src/exec/device_program.h"
#include "src/exec/worker_pool.h"
#include "src/ir/builder.h"
#include "src/models/gns.h"
#include "src/models/schedules.h"
#include "src/models/serving.h"
#include "src/models/transformer.h"
#include "src/serve/batcher.h"

namespace partir {
namespace {

using serving::AllServeWorkloads;
using serving::ServeWorkload;
using serving::WorkloadHarness;

void ExpectBitIdentical(const std::vector<Tensor>& a,
                        const std::vector<Tensor>& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].dims(), b[i].dims()) << label << " output " << i;
    EXPECT_EQ(std::memcmp(a[i].data().data(), b[i].data().data(),
                          a[i].data().size() * sizeof(float)),
              0)
        << label << " output " << i << " is not bit-identical";
  }
}

RunOptions Walker() {
  RunOptions walker;
  walker.backend = ExecBackend::kInterpret;
  return walker;
}

// Runs the compiled executor sequentially, capped at 3 threads and fully
// threaded; asserts every mode is bit-identical to the reference walker.
void ExpectBackendsAgree(const Executable& exe,
                         const std::vector<Tensor>& inputs,
                         const std::string& label) {
  std::vector<Tensor> want = exe.Run(inputs, Walker()).value();
  for (int num_threads : {1, 3, 0}) {
    RunOptions compiled;
    compiled.num_threads = num_threads;
    ExpectBitIdentical(want, exe.Run(inputs, compiled).value(),
                       label + " (threads=" + std::to_string(num_threads) +
                           ")");
  }
}

Program BuildChainProgram(int64_t rows, int64_t inner, int64_t hidden) {
  Program program("chain");
  Value* x = program.AddInput(TensorType({rows, inner}), "x");
  Value* w1 = program.AddInput(TensorType({inner, hidden}), "w1");
  Value* w2 = program.AddInput(TensorType({hidden, inner}), "w2");
  OpBuilder& builder = program.builder();
  program.Return({builder.MatMul(builder.MatMul(x, w1), w2)});
  return program;
}

// ---- The example workloads, compiled vs walker bit-for-bit ----

TEST(ExecBackendTest, QuickstartChainBpMpZ3) {
  Program program("main");
  Value* x = program.AddInput(TensorType({256, 8}), "x");
  Value* w1 = program.AddInput(TensorType({8, 16}), "w1");
  Value* w2 = program.AddInput(TensorType({16, 8}), "w2");
  OpBuilder& builder = program.builder();
  program.Return({builder.MatMul(builder.MatMul(x, w1), w2)});
  Mesh mesh({{"B", 4}, {"M", 2}});
  Executable exe =
      program
          .Partition({ManualPartition{"BP", {{"x", 0}}, "B"},
                      ManualPartition{"MP", {{"w1", 1}}, "M"},
                      ManualPartition{"Z3", {{"w1", 0}, {"w2", 1}}, "B"}},
                     mesh)
          .value();
  ExpectBackendsAgree(exe, program.RandomInputs(1), "quickstart");
}

TransformerConfig SmallTransformer() {
  TransformerConfig config;
  config.num_layers = 1;
  config.d_model = 16;
  config.num_heads = 2;
  config.head_dim = 8;
  config.ffw_size = 32;
  config.vocab = 32;
  config.batch = 4;
  config.seq = 4;
  return config;
}

TEST(ExecBackendTest, TransformerTrainingBpMp) {
  TransformerConfig config = SmallTransformer();
  Program program = Program::Capture([&](Module& module) {
    return BuildTransformerTrainingStep(module, config);
  });
  Mesh mesh({{"batch", 2}, {"model", 2}});
  Executable exe =
      program
          .Partition({schedules::TransformerBP(), schedules::TransformerMP()},
                     mesh)
          .value();
  ExpectBackendsAgree(
      exe, program.RandomInputs(21, static_cast<float>(config.vocab)),
      "transformer training");
}

// Differential coverage for the boundary-aware realization of the
// standalone-EMB schedule (PartitionOptions::boundary_realization): the
// new lowering must be bit-identical between the walker and the compiled
// executor in sequential, fully-threaded and capped-thread modes,
// and both the boundary-realized and the historical all-all_reduce
// lowerings must agree with the unpartitioned reference evaluation.
// Collective reductions re-associate float sums, so the reference
// comparison uses a tolerance; the backend/threading comparisons stay
// memcmp-strict.
TEST(ExecBackendTest, TransformerEmbBoundaryRealizationDifferential) {
  TransformerConfig config = SmallTransformer();
  Program program = Program::Capture([&](Module& module) {
    return BuildTransformerTrainingStep(module, config);
  });
  Mesh mesh({{"batch", 2}, {"model", 2}});
  std::vector<Tensor> inputs =
      program.RandomInputs(25, static_cast<float>(config.vocab));
  std::vector<Tensor> reference = program.Evaluate(inputs).value();

  PartitionOptions historical_options;
  historical_options.boundary_realization = false;
  struct Variant {
    const char* label;
    Executable exe;
  };
  Variant variants[] = {
      {"EMB boundary",
       program.Partition({schedules::TransformerEMB()}, mesh).value()},
      {"EMB historical",
       program
           .Partition({schedules::TransformerEMB()}, mesh,
                      historical_options)
           .value()},
      {"BP+MP+Z3+EMB boundary",
       program
           .Partition({schedules::TransformerBP(), schedules::TransformerMP(),
                       schedules::TransformerZ3(),
                       schedules::TransformerEMB()},
                      mesh)
           .value()},
  };
  constexpr float kTol = 5e-3f;
  for (Variant& variant : variants) {
    ExpectBackendsAgree(variant.exe, inputs, variant.label);
    for (int num_threads : {1, 0, 3}) {
      RunOptions options;
      options.num_threads = num_threads;
      std::vector<Tensor> got = variant.exe.Run(inputs, options).value();
      ASSERT_EQ(got.size(), reference.size()) << variant.label;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_LT(Tensor::MaxAbsDiff(reference[i], got[i]), kTol)
            << variant.label << " output " << i << " vs reference (threads="
            << num_threads << ")";
      }
    }
  }
}

TEST(ExecBackendTest, TransformerInferenceBp) {
  TransformerConfig config = SmallTransformer();
  Program program = Program::Capture([&](Module& module) {
    return BuildTransformerInference(module, config, /*decode_steps=*/2);
  });
  Mesh mesh({{"batch", 4}});
  Executable exe =
      program.Partition({schedules::InferenceBP()}, mesh).value();
  ExpectBackendsAgree(
      exe, program.RandomInputs(22, static_cast<float>(config.vocab)),
      "transformer inference");
}

TEST(ExecBackendTest, GnsEdgeSharding) {
  GnsConfig config;
  config.message_steps = 2;
  config.num_edges = 16;
  config.num_nodes = 8;
  Program program = Program::Capture(
      [&](Module& module) { return BuildGnsLoss(module, config); });
  Mesh mesh({{"batch", 4}});
  Executable exe = program.Partition({schedules::GnsES()}, mesh).value();
  ExpectBackendsAgree(
      exe, program.RandomInputs(23, static_cast<float>(config.num_nodes)),
      "gns edge sharding");
}

TEST(ExecBackendTest, AutomaticPartitioning) {
  Program program = BuildChainProgram(16, 8, 8);
  Mesh mesh({{"B", 4}});
  AutomaticPartition automatic;
  automatic.name = "auto";
  automatic.axes = {"B"};
  automatic.options.simulations = 16;
  Executable exe = program.Partition({automatic}, mesh).value();
  ExpectBackendsAgree(exe, program.RandomInputs(24), "automatic");
}

// ---- All five serving workloads ----

TEST(ExecBackendTest, ServingWorkloadsAgreeOnBothBackends) {
  for (const ServeWorkload& workload : AllServeWorkloads()) {
    SCOPED_TRACE(workload.name);
    for (int64_t batch : {1, 4}) {
      Program program = Program::Capture(workload.build, batch);
      StatusOr<Executable> exe =
          program.Partition(workload.schedule, workload.mesh);
      if (!exe.ok()) {
        // Batch sizes the schedule cannot shard serve unpartitioned (the
        // batcher's fallback); the compiled executor must cover that too.
        exe = program.Partition({}, workload.mesh);
      }
      ASSERT_TRUE(exe.ok()) << exe.status().ToString();
      std::vector<Tensor> inputs =
          program.RandomInputs(31 + batch, workload.index_modulus);
      ExpectBackendsAgree(*exe, inputs,
                          workload.name + "@" + std::to_string(batch));
    }
  }
}

// ---- Memory stats ----

TEST(ExecBackendTest, MemoryStatsReportPlannedArena) {
  Program program = BuildChainProgram(16, 8, 8);
  Mesh mesh({{"B", 4}});
  Executable exe =
      program.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  exec::MemoryStats stats = exe.memory_stats().value();
  EXPECT_EQ(stats.num_devices, 4);
  EXPECT_GT(stats.values, 0);
  EXPECT_GT(stats.slots, 0);
  EXPECT_LE(stats.slots, stats.values);
  EXPECT_GT(stats.peak_arena_bytes, 0);
  EXPECT_LE(stats.peak_live_bytes, stats.peak_arena_bytes);
  // The arena never exceeds what per-op allocation would have used.
  EXPECT_LE(stats.peak_arena_bytes, stats.unplanned_bytes);
  EXPECT_EQ(stats.total_arena_bytes, stats.peak_arena_bytes * 4);
}

// ---- Invalidation, ad-hoc compilation, cache clones ----

TEST(ExecBackendTest, MutableAccessDropsProgramAndAdHocCompileStillAgrees) {
  Program program = BuildChainProgram(8, 8, 8);
  Mesh mesh({{"B", 4}});
  Executable exe =
      program.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  ASSERT_NE(exe.spmd().exec_program, nullptr)
      << "pipeline did not compile a device program";
  // A backend stand-in touches the module: the compiled program must drop
  // with the collective plan...
  exe.mutable_spmd();
  EXPECT_EQ(exe.spmd().exec_program, nullptr);
  // ...and a compiled Run recompiles ad hoc, still bit-identical.
  ExpectBackendsAgree(exe, program.RandomInputs(3), "after invalidation");
}

TEST(ExecBackendTest, CacheHitClonesShareTheCompiledProgram) {
  Program program = BuildChainProgram(8, 8, 8);
  Mesh mesh({{"B", 4}});
  std::vector<Tactic> schedule = {ManualPartition{"BP", {{"x", 0}}, "B"}};
  Executable first = program.Partition(schedule, mesh).value();
  // Same schedule again: a cache hit, deep-cloned. The compiled program is
  // immutable, so the clone shares it — present, identical to the
  // original's, and produced with ZERO additional compilations.
  int64_t compiles_before = exec::CompiledProgramCount();
  Executable second = first.Respecialize(schedule).value();
  EXPECT_EQ(exec::CompiledProgramCount(), compiles_before)
      << "a cache hit recompiled the device program";
  ASSERT_NE(second.spmd().exec_program, nullptr);
  EXPECT_EQ(second.spmd().exec_program.get(), first.spmd().exec_program.get())
      << "cache-hit clones should share one immutable program";
  std::vector<Tensor> inputs = program.RandomInputs(4);
  ExpectBackendsAgree(second, inputs, "cache-hit clone");
  ExpectBitIdentical(first.Run(inputs).value(), second.Run(inputs).value(),
                     "clone vs original");
  // Mutable access drops the shared program without touching the
  // original's, and the next compiled Run still agrees bit-for-bit.
  second.mutable_spmd();
  EXPECT_EQ(second.spmd().exec_program, nullptr);
  ASSERT_NE(first.spmd().exec_program, nullptr);
  ExpectBackendsAgree(second, inputs, "mutated clone");
}

// ---- Kernel tier: fused elementwise chains ----

TEST(ExecBackendTest, ElementwiseChainsFuseAndStayBitIdentical) {
  Program program("elementwise");
  Value* x = program.AddInput(TensorType({32, 16}), "x");
  Value* y = program.AddInput(TensorType({32, 16}), "y");
  OpBuilder& builder = program.builder();
  // A long run of elementwise ops whose intermediates all die immediately:
  // unary, carried-lhs binary, carried-rhs binary, and both-carried forms.
  Value* a = builder.Add(x, y);
  Value* b = builder.Mul(a, a);
  Value* c = builder.Tanh(b);
  Value* d = builder.Sub(y, c);
  Value* e = builder.Max(d, x);
  program.Return({builder.Exp(e)});
  Mesh mesh({{"B", 4}});
  Executable exe =
      program.Partition({ManualPartition{"BP", {{"x", 0}, {"y", 0}}, "B"}},
                        mesh)
          .value();
  exec::MemoryStats stats = exe.memory_stats().value();
  EXPECT_GE(stats.fused_chains, 1) << "no elementwise chain was fused";
  EXPECT_GE(stats.fused_instructions, 2 * stats.fused_chains);
  ExpectBackendsAgree(exe, program.RandomInputs(41), "fused chain");
}

// ---- Device-local programs are flat ----

// The compiler, the walker and compiled Runs at 1 and 0 threads all refuse
// `spmd` with a kInvalidArgument naming `named`; analysis reports an error.
void ExpectRefusedEverywhere(const SpmdModule& spmd,
                             const std::vector<Tensor>& inputs,
                             const std::string& named) {
  auto expect_refused = [&](const Status& status, const std::string& label) {
    ASSERT_FALSE(status.ok()) << label;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << label;
    EXPECT_NE(status.message().find(named), std::string::npos)
        << label << ": " << status.message();
  };
  expect_refused(exec::CompileDeviceProgram(spmd).status(), "compile");
  expect_refused(RunSpmd(spmd, inputs, Walker()).status(), "walker");
  for (int num_threads : {1, 0}) {
    RunOptions compiled;
    compiled.num_threads = num_threads;
    expect_refused(RunSpmd(spmd, inputs, compiled).status(),
                   "compiled (threads=" + std::to_string(num_threads) + ")");
  }
  EXPECT_GT(analysis::AnalyzeSpmd(spmd).errors(), 0);
}

// A device-local module still carrying loop regions (tile with slices, a
// nested tile inside a sum, and an any loop) is refused, naming the first
// loop.
TEST(ExecBackendTest, LoopRegionModulesAreRejected) {
  Mesh mesh({{"B", 2}});
  SpmdModule spmd;
  spmd.module = std::make_unique<Module>();
  spmd.mesh = mesh;
  Func* func = spmd.module->AddFunc("main");
  Value* xa = func->body().AddArg(TensorType({8, 4}), "x");
  Value* wa = func->body().AddArg(TensorType({4, 6}), "w");
  OpBuilder builder(&func->body());

  // tile loop: slice x along dim 0, matmul, elementwise tail in the body.
  Operation* tile = builder.Loop("T", 4, "tile", 0, TensorType({8, 6}));
  {
    Block& body = tile->region(0).block();
    OpBuilder inner(&body);
    Value* xs = inner.PSlice(xa, body.arg(0), 0);
    Value* h = inner.MatMul(xs, wa);
    inner.Yield(&body, {inner.Tanh(inner.Mul(h, h))});
  }

  // sum loop with a nested tile loop.
  Operation* sum = builder.Loop("S", 2, "sum", -1, TensorType({8, 6}));
  {
    Block& sbody = sum->region(0).block();
    OpBuilder sinner(&sbody);
    Operation* nested = sinner.Loop("N", 2, "tile", 1, TensorType({8, 6}));
    Block& nbody = nested->region(0).block();
    OpBuilder ninner(&nbody);
    Value* part = ninner.PSlice(tile->result(), nbody.arg(0), 1);
    ninner.Yield(&nbody, {ninner.Exp(part)});
    sinner.Yield(&sbody, {sinner.Mul(nested->result(), nested->result())});
  }

  // any loop: evaluates a single iteration.
  Operation* any = builder.Loop("A", 2, "any", -1, TensorType({8, 6}));
  {
    Block& abody = any->region(0).block();
    OpBuilder ainner(&abody);
    ainner.Yield(&abody, {sum->result()});
  }
  builder.Return({tile->result(), any->result()});
  ValueSharding replicated{AxesPerDim{{}, {}}};
  spmd.input_shardings = {replicated, replicated};
  spmd.output_shardings = {replicated, replicated};

  // The tile loop is op 0.
  ExpectRefusedEverywhere(spmd,
                          {Tensor::Random({8, 4}, 51),
                           Tensor::Random({4, 6}, 52)},
                          "op 0 ('loop')");
}

// A loop op without a region, as a lowering of a loop-carrying trace
// would emit, is refused by its kind before any kernel sees it.
TEST(ExecBackendTest, RegionlessLoopIsRejected) {
  SpmdModule spmd;
  spmd.module = std::make_unique<Module>();
  spmd.mesh = Mesh({{"B", 2}});
  Func* func = spmd.module->AddFunc("main");
  Value* x = func->body().AddArg(TensorType({8, 4}), "x");
  OpBuilder builder(&func->body());
  Value* y = builder.Tanh(x);
  Operation* loop = func->body().Append(std::make_unique<Operation>(
      OpKind::kLoop, std::vector<Value*>{},
      std::vector<Type>{Type(TensorType({8, 4}))}));
  builder.Return({builder.Add(y, loop->result())});
  ValueSharding replicated{AxesPerDim{{}, {}}};
  spmd.input_shardings = {replicated};
  spmd.output_shardings = {replicated};

  ExpectRefusedEverywhere(spmd, {Tensor::Random({8, 4}, 53)},
                          "op 1 ('loop') is a PartIR:Core loop op");
}

// ---- Persistent worker pool ----

TEST(ExecBackendTest, PersistentPoolStopsSpawningThreadsAcrossRuns) {
  Program program = BuildChainProgram(16, 8, 8);
  Mesh mesh({{"B", 4}});
  Executable exe =
      program.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  std::vector<Tensor> inputs = program.RandomInputs(61);
  std::vector<Tensor> want = exe.Run(inputs, Walker()).value();

  // The first threaded Run creates the executable's pool...
  ExpectBitIdentical(exe.Run(inputs).value(), want, "first run");
  int64_t created = exec::WorkerPool::threads_created();
  // ...and 1000 back-to-back Runs reuse its resident workers: the
  // process-wide thread-creation count must not move.
  for (int r = 0; r < 1000; ++r) {
    ASSERT_TRUE(exe.Run(inputs).ok());
  }
  EXPECT_EQ(exec::WorkerPool::threads_created(), created)
      << "pooled Runs spawned fresh pool threads";
  ExpectBitIdentical(exe.Run(inputs).value(), want, "last run");
}

TEST(ExecBackendTest, SequentialRunsNeverCreateThePool) {
  Program program = BuildChainProgram(16, 8, 8);
  Mesh mesh({{"B", 4}});
  Executable exe =
      program.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  std::vector<Tensor> inputs = program.RandomInputs(67);
  RunOptions sequential;
  sequential.num_threads = 1;
  // Neither a sequential compiled Run nor the walker threads, so on a
  // fresh executable they must not start the pool's resident workers.
  int64_t created = exec::WorkerPool::threads_created();
  ExpectBitIdentical(exe.Run(inputs, sequential).value(),
                     exe.Run(inputs, Walker()).value(), "sequential");
  EXPECT_EQ(exec::WorkerPool::threads_created(), created)
      << "a Run that never threads created the worker pool";
  // The first threaded Run is what creates it: one thread per device.
  ASSERT_TRUE(exe.Run(inputs).ok());
  EXPECT_EQ(exec::WorkerPool::threads_created(), created + 4);
}

TEST(ExecBackendTest, TwoExecutablesDriveIndependentPools) {
  Program program_a = BuildChainProgram(16, 8, 8);
  Program program_b = BuildChainProgram(8, 4, 4);
  Mesh mesh({{"B", 4}});
  Executable a =
      program_a.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  Executable b =
      program_b.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  std::vector<Tensor> inputs_a = program_a.RandomInputs(62);
  std::vector<Tensor> inputs_b = program_b.RandomInputs(63);
  std::vector<Tensor> want_a = a.Run(inputs_a, Walker()).value();
  std::vector<Tensor> want_b = b.Run(inputs_b, Walker()).value();
  // Warm both pools, then interleave: neither executable's Runs may spawn.
  ASSERT_TRUE(a.Run(inputs_a).ok());
  ASSERT_TRUE(b.Run(inputs_b).ok());
  int64_t created = exec::WorkerPool::threads_created();
  for (int r = 0; r < 50; ++r) {
    ExpectBitIdentical(a.Run(inputs_a).value(), want_a, "a");
    ExpectBitIdentical(b.Run(inputs_b).value(), want_b, "b");
  }
  EXPECT_EQ(exec::WorkerPool::threads_created(), created);
}

TEST(ExecBackendTest, RespecializeWhilePoolIsLive) {
  Program program = BuildChainProgram(16, 8, 8);
  Mesh mesh({{"B", 4}, {"M", 2}});
  Executable first =
      program.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  std::vector<Tensor> inputs = program.RandomInputs(64);
  // Warm the first executable's pool, then respecialize while it is live:
  // the new executable gets its own pool and both keep running.
  ASSERT_TRUE(first.Run(inputs).ok());
  Executable second =
      first.Respecialize({ManualPartition{"MP", {{"w1", 1}}, "M"}}).value();
  ExpectBitIdentical(second.Run(inputs).value(),
                     second.Run(inputs, Walker()).value(),
                     "respecialized while pool live");
  ExpectBitIdentical(first.Run(inputs).value(),
                     first.Run(inputs, Walker()).value(),
                     "original after respecialize");
}

TEST(ExecBackendTest, UsePoolFalseStillAgrees) {
  Program program = BuildChainProgram(16, 8, 8);
  Mesh mesh({{"B", 4}});
  Executable exe =
      program.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  std::vector<Tensor> inputs = program.RandomInputs(65);
  RunOptions spawning;
  spawning.use_pool = false;
  ExpectBitIdentical(exe.Run(inputs).value(),
                     exe.Run(inputs, spawning).value(),
                     "pool vs spawn");
}

// ---- Per-run allocation statistics ----

TEST(ExecBackendTest, RunStatsCountAllocationsPerRun) {
  Program program = BuildChainProgram(16, 8, 8);
  Mesh mesh({{"B", 4}});
  Executable exe =
      program.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  std::vector<Tensor> inputs = program.RandomInputs(66);

  RunStats stats;
  RunOptions defaults;
  defaults.stats = &stats;
  ASSERT_TRUE(exe.Run(inputs, defaults).ok());
  EXPECT_GT(stats.allocations, 0);
  int64_t first_run = stats.allocations;
  // Identical Runs allocate identically: per-run counting is deterministic,
  // unlike deltas of the process-wide counter under concurrency.
  ASSERT_TRUE(exe.Run(inputs, defaults).ok());
  EXPECT_EQ(stats.allocations, first_run);
  // The executable reports its latest Run's count through memory_stats().
  exec::MemoryStats mem = exe.memory_stats().value();
  EXPECT_EQ(mem.last_run_allocations, first_run);

  // A default Run is a compiled Run: it allocates exactly what an explicit
  // kCompiled Run does...
  RunOptions compiled = defaults;
  compiled.backend = ExecBackend::kCompiled;
  ASSERT_TRUE(exe.Run(inputs, compiled).ok());
  EXPECT_EQ(stats.allocations, first_run);

  // ...and fewer than the walker, which fills the same stats with a fresh
  // tensor per op per device.
  RunOptions walker = Walker();
  walker.stats = &stats;
  ASSERT_TRUE(exe.Run(inputs, walker).ok());
  EXPECT_GT(stats.allocations, first_run);
}

// ---- Strided kernels, op by op ----

// How a single-op case fills its inputs.
enum class Fill {
  kRandom,
  // A row of -0.0 at the start, then NaN, +inf and -inf spread through.
  kSpecialValues,
  // Operand 0 holds +-1e18 pairs that cancel exactly in a sum, so which
  // small terms survive depends on the summation order; operand 1 is ones.
  kCancelling,
};

// One op of a single-op program, with its operand shapes and input fill.
struct SingleOpCase {
  std::string label;
  std::vector<std::vector<int64_t>> operands;
  std::function<Value*(OpBuilder&, const std::vector<Value*>&)> build;
  Fill fill = Fill::kRandom;
};

Tensor CaseInput(const std::vector<int64_t>& dims, size_t operand,
                 Fill fill) {
  Tensor t = Tensor::Random(dims, 80 + operand);
  if (fill == Fill::kSpecialValues) {
    const int64_t row = dims.empty() ? 1 : dims.back();
    for (int64_t k = 0; k < row && k < t.size(); ++k) t.at(k) = -0.0f;
    const float specials[] = {std::nanf(""), INFINITY, -INFINITY};
    for (int64_t k = row, s = 0; k < t.size(); k += 7, ++s) {
      t.at(k) = specials[s % 3];
    }
  } else if (fill == Fill::kCancelling) {
    for (int64_t k = 0; k < t.size(); ++k) {
      if (operand == 1) {
        t.at(k) = 1.0f;
      } else if (k % 6 == 1 || k % 6 == 4) {
        t.at(k) = k % 6 == 1 ? 1e18f : -1e18f;
      }
    }
  }
  return t;
}

// A hand-built device-local module replicated on two devices, so no pass
// folds or reorders its ops: one argument per shape, returning `build`'s
// results.
SpmdModule ReplicatedModule(
    const std::vector<std::vector<int64_t>>& operands,
    const std::function<std::vector<Value*>(
        OpBuilder&, const std::vector<Value*>&)>& build) {
  SpmdModule spmd;
  spmd.module = std::make_unique<Module>();
  spmd.mesh = Mesh({{"B", 2}});
  Func* func = spmd.module->AddFunc("main");
  std::vector<Value*> args;
  for (size_t i = 0; i < operands.size(); ++i) {
    args.push_back(func->body().AddArg(TensorType(operands[i]),
                                       "x" + std::to_string(i)));
    spmd.input_shardings.push_back(
        ValueSharding{AxesPerDim(operands[i].size())});
  }
  OpBuilder builder(&func->body());
  std::vector<Value*> results = build(builder, args);
  builder.Return(results);
  for (const Value* result : results) {
    spmd.output_shardings.push_back(
        ValueSharding{AxesPerDim(result->tensor_type().rank())});
  }
  return spmd;
}

// Compiled Runs of `spmd` at num_threads 1 and 0 equal the walker's bit for
// bit.
void ExpectCompiledMatchesWalker(const SpmdModule& spmd,
                                 const std::vector<Tensor>& inputs,
                                 const std::string& label) {
  std::vector<Tensor> want = RunSpmd(spmd, inputs, Walker()).value();
  for (int num_threads : {1, 0}) {
    RunOptions compiled;
    compiled.num_threads = num_threads;
    ExpectBitIdentical(want, RunSpmd(spmd, inputs, compiled).value(),
                       label + " (threads=" + std::to_string(num_threads) +
                           ")");
  }
}

// Runs each case as a replicated module, compiled at num_threads 1 and 0
// and memcmp'd against the walker; the op must have taken a strided kernel.
void ExpectSingleOpsAgree(const std::vector<SingleOpCase>& cases) {
  for (const SingleOpCase& c : cases) {
    SCOPED_TRACE(c.label);
    SpmdModule spmd = ReplicatedModule(
        c.operands, [&](OpBuilder& b, const std::vector<Value*>& x) {
          return std::vector<Value*>{c.build(b, x)};
        });
    std::shared_ptr<const exec::DeviceProgram> program =
        exec::CompileDeviceProgram(spmd).value();
    int strided = 0;
    for (const exec::Instruction& inst : program->instructions) {
      if (inst.strided != nullptr) ++strided;
    }
    EXPECT_EQ(strided, 1) << "the op did not run a strided kernel";
    std::vector<Tensor> inputs;
    for (size_t i = 0; i < c.operands.size(); ++i) {
      inputs.push_back(CaseInput(c.operands[i], i, c.fill));
    }
    ExpectCompiledMatchesWalker(spmd, inputs, c.label);
  }
}

SingleOpCase DotCase(std::string label, std::vector<int64_t> lhs,
                     std::vector<int64_t> rhs, std::vector<int64_t> lc,
                     std::vector<int64_t> rc, std::vector<int64_t> lb = {},
                     std::vector<int64_t> rb = {}) {
  return {std::move(label),
          {std::move(lhs), std::move(rhs)},
          [=](OpBuilder& b, const std::vector<Value*>& x) {
            return b.Dot(x[0], x[1], lc, rc, lb, rb);
          }};
}

SingleOpCase Cancelling(SingleOpCase c) {
  c.label += ", cancelling";
  c.fill = Fill::kCancelling;
  return c;
}

TEST(ExecBackendTest, StridedDotsMatchTheWalker) {
  const SingleOpCase out_of_order = DotCase(
      "contract out of order", {3, 4, 5}, {5, 3, 6}, {2, 0}, {0, 1});
  const SingleOpCase two_batch = DotCase(
      "two batch dims", {2, 3, 4, 5}, {2, 3, 5, 6}, {3}, {2}, {0, 1},
      {0, 1});
  const SingleOpCase matmul = DotCase("matmul", {9, 13}, {13, 70}, {1}, {0});
  ExpectSingleOpsAgree({
      matmul,
      two_batch,
      out_of_order,
      Cancelling(matmul),
      Cancelling(two_batch),
      Cancelling(out_of_order),
      DotCase("inner batch dim", {3, 2, 4}, {4, 2, 5}, {2}, {0}, {1}, {1}),
      DotCase("rhs free dim outermost", {4, 5}, {6, 5}, {1}, {1}),
      DotCase("rhs free dims split", {4, 5}, {2, 5, 3}, {1}, {1}),
      DotCase("batched transposed rhs", {2, 8, 4}, {2, 9, 4}, {2}, {2}, {0},
              {0}),
      DotCase("size-1 result", {1, 7}, {7, 1}, {1}, {0}),
      DotCase("rank-0 result", {7}, {7}, {0}, {0}),
      DotCase("k = 1", {4, 1}, {1, 5}, {1}, {0}),
  });
}

TEST(ExecBackendTest, StridedReducesMatchTheWalker) {
  std::vector<SingleOpCase> cases;
  for (const char* reduction : {"sum", "max"}) {
    for (const std::vector<int64_t>& dims :
         std::vector<std::vector<int64_t>>{{0}, {1}, {2}, {0, 2}, {0, 1, 2}}) {
      SingleOpCase c{std::string(reduction) + " over [" +
                         StrJoin(dims, ",") + "]",
                     {{3, 4, 5}},
                     [=](OpBuilder& b, const std::vector<Value*>& x) {
                       return b.Reduce(x[0], dims, reduction);
                     },
                     Fill::kSpecialValues};
      cases.push_back(c);
      cases.push_back(Cancelling(c));
    }
  }
  ExpectSingleOpsAgree(cases);
}

TEST(ExecBackendTest, StridedTransposesMatchTheWalker) {
  std::vector<SingleOpCase> cases;
  for (const std::vector<int64_t>& perm : std::vector<std::vector<int64_t>>{
           {0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {0, 2, 1}, {2, 0, 1}}) {
    cases.push_back({"perm [" + StrJoin(perm, ",") + "]",
                     {{2, 3, 4}},
                     [=](OpBuilder& b, const std::vector<Value*>& x) {
                       return b.Transpose(x[0], perm);
                     }});
  }
  cases.push_back({"2-D", {{5, 7}},
                   [](OpBuilder& b, const std::vector<Value*>& x) {
                     return b.Transpose(x[0], {1, 0});
                   }});
  ExpectSingleOpsAgree(cases);
}

TEST(ExecBackendTest, StridedBroadcastsMatchTheWalker) {
  struct Broadcast {
    std::string label;
    std::vector<int64_t> in, out, dims;
  };
  std::vector<SingleOpCase> cases;
  for (const Broadcast& bc : std::vector<Broadcast>{
           {"leading", {3, 4}, {2, 3, 4}, {1, 2}},
           {"middle", {3, 4}, {3, 2, 4}, {0, 2}},
           {"trailing", {3, 4}, {3, 4, 2}, {0, 1}},
           {"scalar", {}, {2, 3}, {}},
           {"both sides", {4}, {3, 4, 5}, {1}}}) {
    cases.push_back({bc.label,
                     {bc.in},
                     [=](OpBuilder& b, const std::vector<Value*>& x) {
                       return b.BroadcastInDim(x[0], bc.out, bc.dims);
                     }});
  }
  ExpectSingleOpsAgree(cases);
}

// ---- Fused chains, a block at a time ----

// The one fused chain of `program`, or null when it has none or several.
const exec::Instruction* OnlyChain(const exec::DeviceProgram& program) {
  const exec::Instruction* chain = nullptr;
  for (const exec::Instruction& inst : program.instructions) {
    if (inst.chain == nullptr) continue;
    if (chain != nullptr) return nullptr;
    chain = &inst;
  }
  return chain;
}

TEST(ExecBackendTest, BlockedChainsMatchTheWalker) {
  using Args = std::vector<Value*>;
  // 20 steps, past the old 16-entry externals array: every unary and
  // binary kind, with carried-lhs, carried-rhs and carried-only operands.
  // x0 is read again after the head, so the result lands in a fresh slot.
  auto every_kind = [](OpBuilder& b, const Args& x) {
    Value* two = b.Constant(2.0, x[0]->tensor_type().dims());
    Value* v = b.Add(x[0], x[1]);
    v = b.Tanh(v);
    v = b.Mul(v, v);
    v = b.Exp(v);
    v = b.Log(v);
    v = b.Sqrt(v);
    v = b.Sub(x[1], v);
    v = b.Logistic(v);
    v = b.Rsqrt(v);
    v = b.Div(x[2], v);
    v = b.Neg(v);
    v = b.Max(v, x[1]);
    v = b.Min(x[2], v);
    v = b.Pow(v, two);
    v = b.Add(v, x[0]);
    v = b.Mul(x[1], v);
    v = b.Sub(v, x[2]);
    v = b.Div(v, two);
    v = b.Tanh(v);
    v = b.Max(v, v);
    return Args{v};
  };
  // The input dies at the head, so every step inherits its slot in place.
  auto into_input = [](OpBuilder& b, const Args& x) {
    Value* v = b.Exp(x[0]);
    v = b.Mul(v, x[1]);
    return Args{b.Tanh(v)};
  };
  // x1 dies at the second step, whose result inherits its slot in place;
  // x0 is also returned, so the head cannot take the input's slot.
  auto into_external = [](OpBuilder& b, const Args& x) {
    Value* v = b.Exp(x[0]);
    v = b.Sub(x[1], v);
    return Args{b.Logistic(v), x[0]};
  };
  constexpr int64_t kBlock = exec::kChainBlock;
  for (int64_t numel : {int64_t{1}, kBlock - 1, kBlock, kBlock + 1,
                        3 * kBlock + 7}) {
    // One element per row, so the special-value fill spreads -0.0, NaN and
    // +-inf through the data rather than zeroing its only row.
    const std::vector<int64_t> dims = {numel, 1};
    for (Fill fill : {Fill::kRandom, Fill::kSpecialValues}) {
      const std::string label =
          std::to_string(numel) +
          (fill == Fill::kRandom ? " random" : " special values");
      SCOPED_TRACE(label);
      std::vector<Tensor> inputs;
      for (size_t i = 0; i < 3; ++i) inputs.push_back(CaseInput(dims, i, fill));

      SpmdModule spmd = ReplicatedModule({dims, dims, dims}, every_kind);
      auto program = exec::CompileDeviceProgram(spmd).value();
      const exec::Instruction* chain = OnlyChain(*program);
      ASSERT_NE(chain, nullptr);
      EXPECT_EQ(chain->chain->steps.size(), 20u);
      ExpectCompiledMatchesWalker(spmd, inputs, "every kind, " + label);

      spmd = ReplicatedModule({dims, dims}, into_input);
      program = exec::CompileDeviceProgram(spmd).value();
      chain = OnlyChain(*program);
      ASSERT_NE(chain, nullptr);
      EXPECT_EQ(chain->chain->steps.size(), 3u);
      EXPECT_EQ(chain->result_slots[0], chain->chain->input_slot);
      inputs.resize(2);
      ExpectCompiledMatchesWalker(spmd, inputs, "into its input, " + label);

      spmd = ReplicatedModule({dims, dims}, into_external);
      program = exec::CompileDeviceProgram(spmd).value();
      chain = OnlyChain(*program);
      ASSERT_NE(chain, nullptr);
      EXPECT_EQ(chain->chain->steps.size(), 3u);
      EXPECT_EQ(chain->result_slots[0], chain->chain->steps[1].external_slot);
      ExpectCompiledMatchesWalker(spmd, inputs,
                                  "into an external, " + label);
    }
  }
}

// ---- Block-copy data movement against per-element loops ----

// Where `device`'s shard starts: each sharded dim's chunk index, first
// listed axis outermost.
std::vector<int64_t> OracleShardStart(const ValueSharding& sharding,
                                      const Mesh& mesh, int64_t device,
                                      const std::vector<int64_t>& local) {
  std::vector<int64_t> coords = mesh.Coordinates(device);
  std::vector<int64_t> start(local.size(), 0);
  for (size_t dim = 0; dim < sharding.axes.size(); ++dim) {
    int64_t chunk = 0;
    for (const std::string& axis : sharding.axes[dim]) {
      chunk = chunk * mesh.AxisSize(axis) + coords[mesh.AxisIndex(axis)];
    }
    start[dim] = chunk * local[dim];
  }
  return start;
}

// Every multi-index of `dims`, row-major.
std::vector<std::vector<int64_t>> AllIndices(const std::vector<int64_t>& dims) {
  std::vector<std::vector<int64_t>> all;
  ForEachIndex(dims, [&](const std::vector<int64_t>& i) { all.push_back(i); });
  return all;
}

std::vector<int64_t> Plus(std::vector<int64_t> a,
                          const std::vector<int64_t>& b) {
  for (size_t i = 0; i < a.size(); ++i) a[i] += b[i];
  return a;
}

TEST(BoxCopyTest, SliceChunkAndConcatMatchPerElementLoops) {
  const Tensor x = Tensor::Random({3, 10, 7}, 90);
  for (int64_t dim = 0; dim < 3; ++dim) {
    const int64_t count = x.dim(dim) == 10 ? 5 : x.dim(dim);
    std::vector<Tensor> chunks;
    for (int64_t c = 0; c < count; ++c) {
      Tensor chunk = x.SliceChunk(dim, c, count);
      std::vector<int64_t> offset(3, 0);
      offset[dim] = c * chunk.dim(dim);
      for (const auto& i : AllIndices(chunk.dims())) {
        ASSERT_EQ(chunk.Get(i), x.Get(Plus(i, offset)))
            << "dim " << dim << " chunk " << c;
      }
      chunks.push_back(std::move(chunk));
    }
    // Uneven parts: the first chunk twice, then the rest.
    chunks.insert(chunks.begin(), chunks.front());
    Tensor joined = Tensor::Concat(chunks, dim);
    std::vector<int64_t> offset(3, 0);
    for (const Tensor& part : chunks) {
      for (const auto& i : AllIndices(part.dims())) {
        ASSERT_EQ(joined.Get(Plus(i, offset)), part.Get(i)) << "dim " << dim;
      }
      offset[dim] += part.dim(dim);
    }
    EXPECT_EQ(offset[dim], joined.dim(dim));
  }
}

TEST(BoxCopyTest, ConcatRejectsPartsThatDisagreeOffTheConcatDim) {
  EXPECT_DEATH(Tensor::Concat({Tensor({2, 3}), Tensor({2, 4})}, 0),
               "disagree on dim 1");
}

TEST(BoxCopyTest, ShardAndUnshardMatchPerElementLoops) {
  const Mesh mesh({{"x", 2}, {"y", 3}, {"z", 2}});
  struct Case {
    std::vector<int64_t> dims;
    AxesPerDim axes;
  };
  for (const Case& c : std::vector<Case>{
           {{12, 5, 6}, {{"x", "y"}, {}, {"z"}}},
           {{12, 5, 6}, {{"y", "x"}, {}, {"z"}}},
           {{3, 6, 7}, {{}, {"x", "y"}, {}}},
           {{3, 6, 7}, {{}, {"y", "x"}, {}}},
           {{5, 4, 9}, {{}, {"z", "x"}, {"y"}}},
           {{7, 3}, {{}, {}}},
       }) {
    ValueSharding sharding{c.axes};
    SCOPED_TRACE(sharding.ToString());
    const Tensor global = Tensor::Random(c.dims, 91);
    PerDevice shards = ShardTensor(global, sharding, mesh);
    ASSERT_EQ(static_cast<int64_t>(shards.size()), mesh.NumDevices());
    std::vector<int64_t> local = c.dims;
    for (size_t dim = 0; dim < c.axes.size(); ++dim) {
      for (const std::string& axis : c.axes[dim]) {
        local[dim] /= mesh.AxisSize(axis);
      }
    }
    for (int64_t d = 0; d < mesh.NumDevices(); ++d) {
      ASSERT_EQ(shards[d].dims(), local);
      std::vector<int64_t> start = OracleShardStart(sharding, mesh, d, local);
      for (const auto& i : AllIndices(local)) {
        ASSERT_EQ(shards[d].Get(i), global.Get(Plus(i, start)))
            << "device " << d;
      }
    }
    // Reassembly: every element comes from a device holding its block.
    Tensor back = UnshardTensor(shards, sharding, mesh);
    ASSERT_EQ(back.dims(), global.dims());
    for (int64_t d = 0; d < mesh.NumDevices(); ++d) {
      std::vector<int64_t> start = OracleShardStart(sharding, mesh, d, local);
      for (const auto& i : AllIndices(local)) {
        ASSERT_EQ(back.Get(Plus(i, start)), shards[d].Get(i))
            << "device " << d;
      }
    }
  }
}

TEST(BoxCopyTest, UnshardKeepsTheLastOfAgreeingReplicas) {
  // Replicas within the 1e-3 tolerance agree; the last device's block is
  // the one kept.
  const Mesh mesh({{"a", 3}});
  const ValueSharding replicated{AxesPerDim{{}, {}}};
  PerDevice shards = {Tensor({1, 2}, {1.0f, 2.0f}),
                      Tensor({1, 2}, {1.0001f, 2.0f}),
                      Tensor({1, 2}, {1.0002f, 2.0001f})};
  Tensor global = UnshardTensor(shards, replicated, mesh);
  EXPECT_EQ(global.data(), shards[2].data());
}

// ---- Every contraction, reduction and layout op on a strided kernel ----

// (instructions of the strided kinds, those carrying a strided kernel).
std::pair<int, int> CountStrided(
    const std::vector<exec::Instruction>& instructions) {
  std::pair<int, int> counts{0, 0};
  for (const exec::Instruction& inst : instructions) {
    if (inst.kind == OpKind::kDot || inst.kind == OpKind::kReduce ||
        inst.kind == OpKind::kTranspose ||
        inst.kind == OpKind::kBroadcastInDim) {
      ++counts.first;
      if (inst.strided != nullptr) ++counts.second;
    }
  }
  return counts;
}

TEST(ExecBackendTest, EveryDotReduceTransposeAndBroadcastIsStrided) {
  // The benchmark's training step: 2-layer BP+MP+Z3 on {batch:2, model:2}.
  TransformerConfig config;
  config.num_layers = 2;
  config.d_model = 64;
  config.num_heads = 8;
  config.head_dim = 8;
  config.ffw_size = 128;
  config.vocab = 128;
  config.batch = 4;
  config.seq = 8;
  Program train = Program::Capture([&](Module& module) {
    return BuildTransformerTrainingStep(module, config);
  });
  std::vector<std::pair<std::string, Executable>> programs;
  programs.emplace_back(
      "train_step", train
                        .Partition(schedules::TransformerBPMPZ3(),
                                   Mesh({{"batch", 2}, {"model", 2}}))
                        .value());
  for (const ServeWorkload& workload : AllServeWorkloads()) {
    if (workload.name != "transformer_infer" && workload.name != "attention") {
      continue;
    }
    Program program = Program::Capture(workload.build, 8);
    programs.emplace_back(
        workload.name,
        program.Partition(workload.schedule, workload.mesh).value());
  }
  ASSERT_EQ(programs.size(), 3u);
  for (const auto& [name, exe] : programs) {
    ASSERT_NE(exe.spmd().exec_program, nullptr) << name;
    auto [ops, strided] =
        CountStrided(exe.spmd().exec_program->instructions);
    EXPECT_GT(ops, 0) << name;
    EXPECT_EQ(strided, ops) << name << ": " << ops - strided
                            << " instruction(s) on the generic fallback";
  }
}

// ---- Replica mismatch is a typed error ----

TEST(ExecBackendTest, ReplicaMismatchIsAStatusOnBothBackends) {
  Program program = BuildChainProgram(16, 8, 8);
  Mesh mesh({{"B", 4}});
  Executable exe =
      program.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  // The output is sharded over B; claiming it is replicated makes the
  // four devices' different rows replicas that disagree.
  exe.mutable_spmd().output_shardings[0] = ValueSharding{AxesPerDim{{}, {}}};
  std::vector<Tensor> inputs = program.RandomInputs(68);
  RunOptions sequential;
  sequential.num_threads = 1;
  for (const RunOptions& options : {Walker(), sequential, RunOptions{}}) {
    StatusOr<std::vector<Tensor>> outputs = exe.Run(inputs, options);
    ASSERT_FALSE(outputs.ok());
    EXPECT_EQ(outputs.status().code(), StatusCode::kInternal);
    EXPECT_NE(outputs.status().message().find(
                  "output 0: replica mismatch at device 1: "),
              std::string::npos)
        << outputs.status().ToString();
  }
}

// ---- Batcher smoke on the compiled executor ----

TEST(ExecBackendTest, BatcherServesCompiledBackendBitIdentically) {
  ServeWorkload workload = serving::MatMulChainWorkload();
  WorkloadHarness harness(workload);
  Executable reference =
      harness.unit().Partition(workload.schedule, workload.mesh).value();

  Program program = Program::Capture(workload.build, 1);
  BatchOptions options;
  options.max_batch = 4;
  options.max_delay_us = 10000;
  std::unique_ptr<Batcher> batcher =
      program.Serve(workload.schedule, workload.mesh, options).value();

  std::vector<ServeFuture> futures;
  std::vector<std::vector<Tensor>> want;
  for (int r = 0; r < 12; ++r) {
    std::vector<Tensor> inputs = harness.Request(700 + r);
    want.push_back(reference.Run(inputs, Walker()).value());
    futures.push_back(batcher->Submit(std::move(inputs)));
  }
  for (int r = 0; r < 12; ++r) {
    ServeResponse response = futures[r].get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ExpectBitIdentical(response.value(), want[r],
                       "compiled batch request " + std::to_string(r));
  }
  batcher->Shutdown();
  BatcherStats stats = batcher->stats();
  EXPECT_EQ(stats.completed, 12);
  EXPECT_EQ(stats.failed, 0);
}

}  // namespace
}  // namespace partir
