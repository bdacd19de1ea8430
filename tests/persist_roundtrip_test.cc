// Round-trip property tests for the persistent-cache serializer: every
// example and serving workload's PartitionResult must survive
// serialize -> deserialize with Run outputs bit-identical to the reference
// walker's, compiled at every thread count, and identical stage-snapshot
// prints; traced modules
// must round-trip through Program::Save / Program::Load with equal
// structural fingerprints. This suite runs under the ThreadSanitizer and
// debug-verify CI jobs.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>

#include "src/api/partir.h"
#include "src/ir/fingerprint.h"
#include "src/ir/printer.h"
#include "src/models/gns.h"
#include "src/models/schedules.h"
#include "src/models/serving.h"
#include "src/models/transformer.h"
#include "src/persist/serializer.h"
#include "src/persist/store.h"
#include "src/serve/batcher.h"

namespace partir {
namespace {

using serving::AllServeWorkloads;
using serving::ServeWorkload;

/** Unique temp directory removed on scope exit. */
struct ScopedDir {
  explicit ScopedDir(const std::string& tag) {
    static int counter = 0;
    path = (std::filesystem::temp_directory_path() /
            (tag + "." + std::to_string(::getpid()) + "." +
             std::to_string(counter++)))
               .string();
    std::filesystem::create_directories(path);
  }
  ~ScopedDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

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

/**
 * The round-trip property: serialize + deserialize the result, then check
 * the copy is observably identical — printed SPMD module, shardings,
 * metadata, every stage snapshot (including the aliasing structure), and
 * Run outputs of the original and the copy bit-identical to the original's
 * reference walk, on the walker and the compiled executor at every thread
 * count.
 */
void ExpectRoundTrips(const PartitionResult& original,
                      const std::vector<Tensor>& inputs,
                      const std::string& label) {
  std::string bytes = persist::SerializePartitionResult(original);
  StatusOr<PartitionResult> restored =
      persist::DeserializePartitionResult(bytes);
  ASSERT_TRUE(restored.ok()) << label << ": " << restored.status().ToString();

  EXPECT_EQ(Print(*original.spmd.module), Print(*restored->spmd.module))
      << label;
  EXPECT_EQ(original.spmd.mesh.ToString(), restored->spmd.mesh.ToString());
  ASSERT_EQ(original.spmd.input_shardings.size(),
            restored->spmd.input_shardings.size());
  for (size_t i = 0; i < original.spmd.input_shardings.size(); ++i) {
    EXPECT_EQ(original.spmd.input_shardings[i].axes,
              restored->spmd.input_shardings[i].axes);
  }
  ASSERT_EQ(original.spmd.output_shardings.size(),
            restored->spmd.output_shardings.size());
  for (size_t i = 0; i < original.spmd.output_shardings.size(); ++i) {
    EXPECT_EQ(original.spmd.output_shardings[i].axes,
              restored->spmd.output_shardings[i].axes);
  }

  // A compiled device program present before must be present after (and
  // the collective plan is always rebuilt).
  EXPECT_EQ(original.spmd.exec_program != nullptr,
            restored->spmd.exec_program != nullptr)
      << label;
  EXPECT_NE(restored->spmd.plan, nullptr) << label;

  // Metadata fidelity.
  EXPECT_EQ(original.collectives.ToString(), restored->collectives.ToString());
  EXPECT_EQ(original.estimate.ToString(), restored->estimate.ToString());
  EXPECT_EQ(original.partition_seconds, restored->partition_seconds);
  ASSERT_EQ(original.tactics.size(), restored->tactics.size());
  for (size_t i = 0; i < original.tactics.size(); ++i) {
    EXPECT_EQ(original.tactics[i].name, restored->tactics[i].name);
    EXPECT_EQ(original.tactics[i].actions_applied,
              restored->tactics[i].actions_applied);
    EXPECT_EQ(original.tactics[i].collectives.ToString(),
              restored->tactics[i].collectives.ToString());
    EXPECT_EQ(original.tactics[i].estimate.ToString(),
              restored->tactics[i].estimate.ToString());
  }
  ASSERT_EQ(original.conflicts.size(), restored->conflicts.size());
  for (size_t i = 0; i < original.conflicts.size(); ++i) {
    EXPECT_EQ(original.conflicts[i].axis, restored->conflicts[i].axis);
    EXPECT_EQ(original.conflicts[i].reason, restored->conflicts[i].reason);
  }
  ASSERT_EQ(original.pipeline.passes.size(), restored->pipeline.passes.size());
  EXPECT_EQ(original.pipeline.ToString(), restored->pipeline.ToString());

  // Stage snapshots: identical prints, and aliasing preserved — snapshots
  // sharing one module before the round trip share one after.
  ASSERT_EQ(original.snapshots.size(), restored->snapshots.size()) << label;
  for (size_t i = 0; i < original.snapshots.size(); ++i) {
    EXPECT_EQ(original.snapshots[i].pass, restored->snapshots[i].pass);
    EXPECT_EQ(original.snapshots[i].tactic_index,
              restored->snapshots[i].tactic_index);
    EXPECT_EQ(original.snapshots[i].final_loops,
              restored->snapshots[i].final_loops);
    EXPECT_EQ(original.snapshots[i].form, restored->snapshots[i].form);
    EXPECT_EQ(Print(*original.snapshots[i].module),
              Print(*restored->snapshots[i].module))
        << label << " snapshot " << i;
    for (size_t j = 0; j < i; ++j) {
      EXPECT_EQ(original.snapshots[i].module == original.snapshots[j].module,
                restored->snapshots[i].module == restored->snapshots[j].module)
          << label << " aliasing between snapshots " << j << " and " << i;
    }
  }

  // Execution fidelity: the walker over the original module is the
  // reference; the walker over the copy and the compiled executor over
  // both, sequential, capped and fully threaded, must match it bitwise.
  RunOptions walker;
  walker.backend = ExecBackend::kInterpret;
  StatusOr<std::vector<Tensor>> want = RunSpmd(original.spmd, inputs, walker);
  ASSERT_TRUE(want.ok()) << label << ": " << want.status().ToString();
  std::vector<RunOptions> runs = {walker};
  for (int num_threads : {1, 3, 0}) {
    runs.emplace_back();
    runs.back().num_threads = num_threads;
  }
  const SpmdModule* modules[] = {&original.spmd, &restored->spmd};
  for (const RunOptions& run : runs) {
    const std::string mode =
        run.backend == ExecBackend::kInterpret
            ? label + " walker"
            : label + " compiled threads=" + std::to_string(run.num_threads);
    for (const SpmdModule* spmd : modules) {
      StatusOr<std::vector<Tensor>> got = RunSpmd(*spmd, inputs, run);
      ASSERT_TRUE(got.ok()) << mode << ": " << got.status().ToString();
      ExpectBitIdentical(*want, *got, mode);
    }
  }
}

/** Runs the full pipeline with stage capture on and checks the property. */
void CheckWorkload(Program& program, const std::vector<Tactic>& schedule,
                   const Mesh& mesh, const std::vector<Tensor>& inputs,
                   const std::string& label) {
  PartitionOptions options;
  options.capture_stages = true;
  PartitionContext ctx(program.func(), mesh);
  StatusOr<PartitionResult> result = PartirJitOrError(ctx, schedule, options);
  ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
  ExpectRoundTrips(*result, inputs, label);
}

Program BuildChainProgram() {
  Program program("main");
  Value* x = program.AddInput(TensorType({256, 8}), "x");
  Value* w1 = program.AddInput(TensorType({8, 16}), "w1");
  Value* w2 = program.AddInput(TensorType({16, 8}), "w2");
  OpBuilder& builder = program.builder();
  program.Return({builder.MatMul(builder.MatMul(x, w1), w2)});
  return program;
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

// ---- The example workloads ----

TEST(PersistRoundTripTest, QuickstartChainBpMpZ3) {
  Program program = BuildChainProgram();
  CheckWorkload(program,
                {ManualPartition{"BP", {{"x", 0}}, "B"},
                 ManualPartition{"MP", {{"w1", 1}}, "M"},
                 ManualPartition{"Z3", {{"w1", 0}, {"w2", 1}}, "B"}},
                Mesh({{"B", 4}, {"M", 2}}), program.RandomInputs(1),
                "quickstart");
}

TEST(PersistRoundTripTest, TransformerTrainingBpMp) {
  TransformerConfig config = SmallTransformer();
  Program program = Program::Capture([&](Module& module) {
    return BuildTransformerTrainingStep(module, config);
  });
  CheckWorkload(
      program, {schedules::TransformerBP(), schedules::TransformerMP()},
      Mesh({{"batch", 2}, {"model", 2}}),
      program.RandomInputs(21, static_cast<float>(config.vocab)),
      "transformer training");
}

TEST(PersistRoundTripTest, TransformerInferenceBp) {
  TransformerConfig config = SmallTransformer();
  Program program = Program::Capture([&](Module& module) {
    return BuildTransformerInference(module, config, /*decode_steps=*/2);
  });
  CheckWorkload(program, {schedules::InferenceBP()}, Mesh({{"batch", 4}}),
                program.RandomInputs(22, static_cast<float>(config.vocab)),
                "transformer inference");
}

TEST(PersistRoundTripTest, GnsEdgeSharding) {
  GnsConfig config;
  config.message_steps = 2;
  config.num_edges = 16;
  config.num_nodes = 8;
  Program program = Program::Capture(
      [&](Module& module) { return BuildGnsLoss(module, config); });
  CheckWorkload(program, {schedules::GnsES()}, Mesh({{"batch", 4}}),
                program.RandomInputs(23, static_cast<float>(config.num_nodes)),
                "gns edge sharding");
}

TEST(PersistRoundTripTest, AutomaticPartitioning) {
  Program program = BuildChainProgram();
  AutomaticPartition automatic;
  automatic.name = "auto";
  automatic.axes = {"B"};
  automatic.options.simulations = 16;
  CheckWorkload(program, {automatic}, Mesh({{"B", 4}}),
                program.RandomInputs(24), "automatic");
}

// ---- All five serving workloads ----

TEST(PersistRoundTripTest, ServingWorkloadsRoundTrip) {
  for (const ServeWorkload& workload : AllServeWorkloads()) {
    SCOPED_TRACE(workload.name);
    Program program = Program::Capture(workload.build, /*batch=*/4);
    std::vector<Tensor> inputs =
        program.RandomInputs(31, workload.index_modulus);
    PartitionContext ctx(program.func(), workload.mesh);
    PartitionOptions options;
    options.capture_stages = true;
    StatusOr<PartitionResult> result =
        PartirJitOrError(ctx, workload.schedule, options);
    if (!result.ok()) {
      // Batch sizes the schedule cannot shard serve unpartitioned (the
      // batcher's fallback); the serializer must cover that shape too.
      PartitionContext fallback(program.func(), workload.mesh);
      result = PartirJitOrError(fallback, {}, options);
    }
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectRoundTrips(*result, inputs, workload.name);
  }
}

// ---- Module and Program facade round trips ----

TEST(PersistRoundTripTest, ModuleBytesRoundTripPrintAndFingerprint) {
  Program program = BuildChainProgram();
  std::string bytes = persist::SerializeModule(program.module());
  StatusOr<std::unique_ptr<Module>> restored =
      persist::DeserializeModule(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(Print(*program.func()), Print(*(*restored)->main()));
  EXPECT_EQ(FingerprintFunc(*program.func()),
            FingerprintFunc(*(*restored)->main()));
  // Deterministic bytes: re-serializing the restored module is identical.
  EXPECT_EQ(bytes, persist::SerializeModule(**restored));
}

TEST(PersistRoundTripTest, ProgramSaveLoadPartitionsIdentically) {
  ScopedDir dir("partir-saveload");
  std::string path = dir.path + "/chain.program";

  Program original = BuildChainProgram();
  ASSERT_TRUE(original.Save(path).ok());

  StatusOr<Program> loaded = Program::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(original.Print(), loaded->Print());
  EXPECT_EQ(original.TraceFingerprint(), loaded->TraceFingerprint());
  EXPECT_TRUE(loaded->sealed());
  EXPECT_EQ(original.num_inputs(), loaded->num_inputs());

  // The loaded program partitions and runs identically to the original.
  Mesh mesh({{"B", 4}, {"M", 2}});
  std::vector<Tactic> schedule = {ManualPartition{"BP", {{"x", 0}}, "B"},
                                  ManualPartition{"MP", {{"w1", 1}}, "M"}};
  Executable exe_a = original.Partition(schedule, mesh).value();
  Executable exe_b = loaded->Partition(schedule, mesh).value();
  std::vector<Tensor> inputs = original.RandomInputs(7);
  ExpectBitIdentical(exe_a.Run(inputs).value(), exe_b.Run(inputs).value(),
                     "save/load");
}

TEST(PersistRoundTripTest, ExecutableSaveResultRoundTrips) {
  ScopedDir dir("partir-saveresult");
  std::string path = dir.path + "/chain.result";

  Program program = BuildChainProgram();
  Mesh mesh({{"B", 4}});
  Executable exe =
      program.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  ASSERT_TRUE(exe.SaveResult(path).ok());

  StatusOr<std::string> bytes = persist::ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  StatusOr<std::string> payload = persist::DecodeEntry(
      *bytes, persist::PayloadKind::kPartitionResult,
      "partir-partition-result");
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  StatusOr<PartitionResult> restored =
      persist::DeserializePartitionResult(*payload);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  std::vector<Tensor> inputs = program.RandomInputs(9);
  ExpectBitIdentical(exe.Run(inputs).value(),
                     RunSpmd(restored->spmd, inputs, {}).value(),
                     "SaveResult");
}

// ---- The serving batcher warms from disk ----

TEST(PersistRoundTripTest, BatcherWarmsFromDiskCache) {
  ScopedDir dir("partir-batcher-cache");
  ServeWorkload workload = serving::MatMulChainWorkload();

  BatchOptions batch_options;
  batch_options.max_batch = 2;
  batch_options.max_delay_us = 0;
  PartitionOptions partition_options;
  partition_options.cache_dir = dir.path;

  auto factory = [&](const std::string&, int64_t batch) {
    return StatusOr<Program>(Program::Capture(workload.build, batch));
  };
  serving::WorkloadHarness harness(workload);
  std::vector<Tensor> outputs_cold;

  // Process-A stand-in: compile through an empty disk cache and persist.
  {
    auto cache = std::make_shared<PartitionCache>();
    Batcher batcher(factory, workload.schedule, workload.mesh, batch_options,
                    partition_options, cache);
    ServeFuture future = batcher.Submit(harness.Request(1));
    ServeResponse response = future.get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    outputs_cold = *response;
    PartitionCacheStats stats = cache->stats();
    EXPECT_EQ(stats.disk_hits, 0);
    EXPECT_GT(stats.disk_misses, 0);
    cache->FlushDiskWrites();
    EXPECT_GT(cache->stats().disk_writes, 0);
  }

  // Process-B stand-in: a fresh batcher + fresh cache over the same
  // directory must warm from disk instead of recompiling.
  {
    auto cache = std::make_shared<PartitionCache>();
    Batcher batcher(factory, workload.schedule, workload.mesh, batch_options,
                    partition_options, cache);
    ServeFuture future = batcher.Submit(harness.Request(1));
    ServeResponse response = future.get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ExpectBitIdentical(outputs_cold, *response, "disk-warm batcher");
    PartitionCacheStats stats = cache->stats();
    EXPECT_GT(stats.disk_hits, 0);
    EXPECT_EQ(stats.disk_corrupt, 0);
  }
}

}  // namespace
}  // namespace partir
