// Tests for the partitioning pipeline (src/pass/pipeline.cc): the stages a
// real partition runs and their order, stage errors and verifier failures
// surfacing as typed Status naming the stage (never an abort), the optimize
// fixpoint, per-stage statistics, stage printing, the collective-plan
// invalidation helper, and bit-identical Executable::Run outputs versus the
// same stage functions composed by hand on all five example workloads.
#include <gtest/gtest.h>

#include <cstring>

#include "src/api/partir.h"
#include "src/autopart/mcts.h"
#include "src/ir/builder.h"
#include "src/ir/passes.h"
#include "src/models/gns.h"
#include "src/models/schedules.h"
#include "src/models/transformer.h"
#include "src/spmd/collectives.h"
#include "src/spmd/spmd_interpreter.h"

namespace partir {
namespace {

// ---- The stages of a real partition ----

/** x @ w1 @ w2, the chain the stage tests partition. */
Program BuildStageChain(const std::string& name) {
  Program program(name);
  Value* x = program.AddInput(TensorType({16, 8}), "x");
  Value* w1 = program.AddInput(TensorType({8, 12}), "w1");
  Value* w2 = program.AddInput(TensorType({12, 8}), "w2");
  OpBuilder& builder = program.builder();
  program.Return({builder.MatMul(builder.MatMul(x, w1), w2)});
  return program;
}

std::vector<Tactic> BpMp() {
  return {ManualPartition{"BP", {{"x", 0}}, "B"},
          ManualPartition{"MP", {{"w1", 1}}, "M"}};
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

std::vector<std::string> StageNames(const Executable& exe) {
  std::vector<std::string> names;
  for (const PassStats& stage : exe.pipeline_stats().passes) {
    names.push_back(stage.name);
  }
  return names;
}

TEST(PipelineStagesTest, BpMpRunsTheStagesInOrder) {
  Program program = BuildStageChain("stage_order");
  Mesh mesh({{"B", 4}, {"M", 2}});
  std::vector<std::string> expected = {"tactic[0]:BP",
                                       "propagate",
                                       "tactic[1]:MP",
                                       "propagate",
                                       "lower-to-spmd",
                                       "fuse-gather-slice",
                                       "form-reduce-scatter",
                                       "dce",
                                       "plan-collectives",
                                       "compile-device-programs"};
  PartitionOptions options;
  options.analyze = false;
  Executable exe = program.Partition(BpMp(), mesh, options).value();
  EXPECT_EQ(StageNames(exe), expected);
  for (const PassStats& stage : exe.pipeline_stats().passes) {
    EXPECT_GE(stage.runs, 1) << stage.name;
  }

  options.analyze = true;
  expected.push_back("static-analysis");
  Executable analyzed = program.Partition(BpMp(), mesh, options).value();
  EXPECT_EQ(StageNames(analyzed), expected);
}

TEST(PipelineStagesTest, StageErrorIsPrefixedWithTheStageName) {
  Program program = BuildStageChain("stage_error");
  StatusOr<Executable> exe = program.Partition(
      {ManualPartition{"BP", {{"no_such_input", 0}}, "B"}}, Mesh({{"B", 4}}));
  ASSERT_FALSE(exe.ok());
  EXPECT_EQ(exe.status().code(), StatusCode::kNotFound);
  EXPECT_NE(exe.status().message().find("pass 'tactic[0]:BP'"),
            std::string::npos)
      << exe.status().ToString();
}

TEST(PipelineStagesTest, VerifierFailureNamesTheStageThatRanBeforeIt) {
  // An unused neg(16x8) declared 8x8, appended by hand past the builder's
  // typing rule: the traced function no longer verifies.
  Program program("mistyped");
  Value* x = program.AddInput(TensorType({16, 8}), "x");
  Value* w = program.AddInput(TensorType({8, 8}), "w");
  program.func()->body().Append(std::make_unique<Operation>(
      OpKind::kNeg, std::vector<Value*>{x},
      std::vector<Type>{TensorType({8, 8})}));
  program.Return({program.builder().MatMul(x, w)});
  std::vector<Tactic> bp = {ManualPartition{"BP", {{"x", 0}}, "B"}};
  Mesh mesh({{"B", 4}});

  PartitionOptions options;
  options.verify_passes = true;
  options.analyze = false;
  StatusOr<Executable> verified = program.Partition(bp, mesh, options);
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kInternal);
  EXPECT_NE(verified.status().message().find(
                "IR verification failed after pass 'tactic[0]:BP'"),
            std::string::npos)
      << verified.status().ToString();

  options.verify_passes = false;
  StatusOr<Executable> unverified = program.Partition(bp, mesh, options);
  ASSERT_TRUE(unverified.ok()) << unverified.status().ToString();
  EXPECT_EQ(unverified->pipeline_stats().verify_runs, 0);
}

TEST(PipelineStagesTest, OptimizeFixpointStopsAfterAQuietRound) {
  TransformerConfig config = SmallTransformer();
  Program program = Program::Capture([&](Module& module) {
    return BuildTransformerTrainingStep(module, config);
  });
  Executable exe =
      program
          .Partition(schedules::TransformerBPMPZ3(),
                     Mesh({{"batch", 2}, {"model", 2}}))
          .value();
  const PipelineStats& stats = exe.pipeline_stats();
  const PassStats* fuse = stats.Find("fuse-gather-slice");
  const PassStats* form = stats.Find("form-reduce-scatter");
  const PassStats* dce = stats.Find("dce");
  ASSERT_NE(fuse, nullptr);
  ASSERT_NE(form, nullptr);
  ASSERT_NE(dce, nullptr);
  // One run per round, every round running all three stages.
  EXPECT_EQ(form->runs, fuse->runs);
  EXPECT_EQ(dce->runs, fuse->runs);
  // At least one round rewrote, and the loop ended before its cap of 8
  // rounds, which only a round without changes does.
  EXPECT_GT(fuse->changes + form->changes + dce->changes, 0);
  EXPECT_GE(fuse->runs, 2);
  EXPECT_LT(fuse->runs, 8);
  // That last round left a fixpoint: sweeping the module once more changes
  // nothing.
  SpmdModule& spmd = exe.mutable_spmd();
  EXPECT_EQ(RunSpmdPeephole(spmd, kRewriteGatherSlice), 0);
  EXPECT_EQ(RunSpmdPeephole(spmd, kRewriteReduceScatter), 0);
  EXPECT_EQ(EliminateDeadCode(*spmd.mutable_main()), 0);
}

// ---- Pipeline statistics through the facade ----

TEST(PipelineStatsTest, PerPassTimingsAndOpDeltasAreRecorded) {
  TransformerConfig config;
  config.num_layers = 1;
  config.d_model = 16;
  config.num_heads = 2;
  config.head_dim = 8;
  config.ffw_size = 32;
  config.vocab = 32;
  config.batch = 4;
  config.seq = 4;
  Program program = Program::Capture([&](Module& module) {
    return BuildTransformerTrainingStep(module, config);
  });
  Mesh mesh({{"batch", 2}, {"model", 2}});
  Executable exe =
      program
          .Partition({schedules::TransformerBP(), schedules::TransformerMP()},
                     mesh)
          .value();

  const PipelineStats& stats = exe.pipeline_stats();
  ASSERT_FALSE(stats.passes.empty());
  EXPECT_GT(stats.total_seconds, 0.0);
  double pass_seconds = 0;
  for (const PassStats& pass : stats.passes) {
    EXPECT_GE(pass.runs, 1) << pass.name;
    // No per-tactic pass lowers a throwaway copy of the module.
    EXPECT_NE(pass.name.rfind("report[", 0), 0u) << pass.name;
    pass_seconds += pass.seconds;
  }
  EXPECT_GT(pass_seconds, 0.0);

  const PassStats* lower = stats.Find("lower-to-spmd");
  ASSERT_NE(lower, nullptr);
  EXPECT_EQ(lower->runs, 1);
  EXPECT_TRUE(lower->lowered);
  EXPECT_GT(lower->ops_after, 0);

  // The collective-optimization fixpoint ran to quiescence and its members
  // report per-stage collective counts matching the final module.
  const PassStats* form_rs = stats.Find("form-reduce-scatter");
  ASSERT_NE(form_rs, nullptr);
  EXPECT_GE(form_rs->runs, 2);  // at least one quiescent confirmation round
  EXPECT_TRUE(form_rs->lowered);
  // plan-collectives runs once after the fixpoint converged, so its counts
  // are the final Table 3 numbers.
  const PassStats* plan = stats.Find("plan-collectives");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->collectives.all_reduce, exe.Collectives().all_reduce);

  // Propagation ran once per tactic and applied nest entries.
  const PassStats* propagate = stats.Find("propagate");
  ASSERT_NE(propagate, nullptr);
  EXPECT_GT(propagate->changes, 0);
  EXPECT_EQ(stats.Find("tactic[0]:BP")->runs, 1);
  EXPECT_EQ(stats.Find("tactic[1]:MP")->runs, 1);

  // Per-tactic wall-clock was attributed from the per-pass timings.
  ASSERT_EQ(exe.tactics().size(), 2u);
  EXPECT_GT(exe.tactics()[0].tactic_seconds, 0.0);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(PipelineStatsTest, CacheHitCarriesTheMissRunStats) {
  Program program("cached");
  Value* x = program.AddInput(TensorType({16, 8}), "x");
  Value* w = program.AddInput(TensorType({8, 8}), "w");
  program.Return({program.builder().MatMul(x, w)});
  Mesh mesh({{"B", 4}});
  std::vector<Tactic> schedule = {ManualPartition{"BP", {{"x", 0}}, "B"}};
  Executable miss = program.Partition(schedule, mesh).value();
  Executable hit = program.Partition(schedule, mesh).value();
  EXPECT_EQ(program.cache_stats().hits, 1);
  ASSERT_FALSE(hit.pipeline_stats().passes.empty());
  EXPECT_EQ(hit.pipeline_stats().passes.size(),
            miss.pipeline_stats().passes.size());
}

// ---- Stage printing ----

TEST(StagePrintTest, RespecializedExecutablesPrintTheirOwnSchedule) {
  // Respecializing away prints the new schedule's stages; respecializing
  // back (a cache hit) prints the original partition's stages again.
  Program program = BuildStageChain("stage_respecialize");
  Mesh mesh({{"B", 4}, {"M", 2}});
  std::vector<Tactic> wp = {ManualPartition{"WP", {{"w2", 1}}, "M"}};

  Executable first = program.Partition(BpMp(), mesh).value();
  std::string after_bp = first.Print(Stage::AfterTactic(0)).value();
  std::string loops = first.Print(Stage::Loops()).value();

  Executable other = first.Respecialize(wp).value();
  EXPECT_NE(other.Print(Stage::AfterTactic(0)).value(), after_bp);
  EXPECT_EQ(other.Print(Stage::AfterTactic(1)).status().code(),
            StatusCode::kInvalidArgument);
  Executable back = other.Respecialize(BpMp()).value();
  EXPECT_EQ(program.cache_stats().hits, 1);
  EXPECT_EQ(back.Print(Stage::AfterTactic(0)).value(), after_bp);
  EXPECT_EQ(back.Print(Stage::Loops()).value(), loops);
}

TEST(StagePrintTest, StModeFinalLoopFormAddsTheDeferredPropagation) {
  // PartIR-st (incremental=false): a tactic's stage holds its bare actions,
  // and only the final loop form includes the single deferred propagation.
  Program program("st");
  Value* x = program.AddInput(TensorType({16, 8}), "x");
  Value* w = program.AddInput(TensorType({8, 8}), "w");
  program.Return({program.builder().MatMul(x, w)});
  std::vector<Tactic> bp = {ManualPartition{"BP", {{"x", 0}}, "B"}};
  Mesh mesh({{"B", 4}});
  PartitionOptions st;
  st.incremental = false;
  st.verify_passes = true;
  Executable exe = program.Partition(bp, mesh, st).value();
  EXPECT_GT(exe.pipeline_stats().verify_runs, 0);

  StatusOr<std::string> after_bp = exe.Print(Stage::AfterTactic(0));
  ASSERT_TRUE(after_bp.ok()) << after_bp.status().ToString();
  StatusOr<std::string> loops = exe.Print(Stage::Loops());
  ASSERT_TRUE(loops.ok()) << loops.status().ToString();
  EXPECT_NE(*loops, *after_bp);
  // One tactic propagated once: the incremental partition's final form.
  Executable incremental = program.Partition(bp, mesh).value();
  EXPECT_EQ(*loops, incremental.Print(Stage::Loops()).value());
  EXPECT_EQ(*loops, incremental.Print(Stage::AfterTactic(0)).value());
}

TEST(StagePrintTest, AutomaticTacticStageReplaysTheSeededSearch) {
  // An automatic tactic's stage re-runs its seeded search, so it prints
  // the same loop form on every call and on a cache hit.
  Program program = BuildStageChain("auto_stage");
  AutomaticPartition automatic;
  automatic.name = "auto";
  automatic.axes = {"B"};
  automatic.options.simulations = 16;
  Mesh mesh({{"B", 4}});
  Executable exe = program.Partition({automatic}, mesh).value();
  ASSERT_GT(exe.tactics()[0].actions_applied, 0);
  StatusOr<std::string> after_auto = exe.Print(Stage::AfterTactic(0));
  ASSERT_TRUE(after_auto.ok()) << after_auto.status().ToString();
  EXPECT_EQ(exe.Print(Stage::Loops()).value(), *after_auto);
  Executable hit = program.Partition({automatic}, mesh).value();
  EXPECT_EQ(program.cache_stats().hits, 1);
  EXPECT_EQ(hit.Print(Stage::AfterTactic(0)).value(), *after_auto);
  EXPECT_NE(after_auto->find("axis = \"B\""), std::string::npos);
}

// ---- Collective-plan invalidation ----

TEST(PlanInvalidationTest, MutableAccessDropsTheStalePlan) {
  Program program("plan");
  Value* x = program.AddInput(TensorType({16, 8}), "x");
  Value* w = program.AddInput(TensorType({8, 8}), "w");
  program.Return({program.builder().MatMul(x, w)});
  Mesh mesh({{"B", 4}});
  Executable exe =
      program.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  // The pipeline's plan-collectives pass left a plan behind.
  EXPECT_NE(exe.spmd().plan, nullptr);
  // Every mutable route drops it.
  SpmdModule& spmd = exe.mutable_spmd();
  EXPECT_EQ(spmd.plan, nullptr);
  spmd.plan = BuildCollectivePlan(spmd.mesh, *spmd.module);
  (void)spmd.mutable_main();
  EXPECT_EQ(spmd.plan, nullptr);
  spmd.plan = BuildCollectivePlan(spmd.mesh, *spmd.module);
  RunSpmdPeephole(spmd, kRewriteAllSpmd);  // every sweep drops the plan
  EXPECT_EQ(spmd.plan, nullptr);
  // Run replans ad hoc and still works.
  std::vector<Tensor> inputs = program.RandomInputs(3);
  EXPECT_TRUE(exe.Run(inputs).ok());
}

// ---- Bit-identical outputs vs. the pre-refactor pipeline ----

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
 * The pre-refactor pipeline, composed by hand from the same stage
 * functions the passes wrap: actions -> propagation -> lowering ->
 * combined collective optimization -> plan. The pass pipeline must produce
 * bit-identical Run outputs and identical collective counts.
 */
void ExpectMatchesPreRefactorPipeline(Program& program,
                                      const std::vector<Tactic>& schedule,
                                      const Mesh& mesh,
                                      const std::vector<Tensor>& inputs,
                                      const std::string& label) {
  PartitionOptions options;
  options.use_cache = false;
  Executable exe = program.Partition(schedule, mesh, options).value();
  std::vector<Tensor> via_passes =
      exe.Run(inputs, RunOptions{}).value();

  PartitionContext ctx(program.func(), mesh);
  for (const Tactic& tactic : schedule) {
    if (const auto* manual = std::get_if<ManualPartition>(&tactic)) {
      ASSERT_TRUE(ApplyManualTacticOrError(ctx, *manual).ok()) << label;
      ctx.Propagate();
    } else {
      const auto& automatic = std::get<AutomaticPartition>(tactic);
      AutomaticallyPartition(ctx, automatic.axes, automatic.options,
                             options.device);
    }
  }
  SpmdModule spmd = LowerToSpmdOrError(ctx).value();
  OptimizeSpmd(spmd);
  spmd.plan = BuildCollectivePlan(spmd.mesh, *spmd.module);
  std::vector<Tensor> via_legacy = RunSpmd(spmd, inputs, {}).value();

  ExpectBitIdentical(via_passes, via_legacy, label);
  CollectiveStats legacy = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(exe.Collectives().all_gather, legacy.all_gather) << label;
  EXPECT_EQ(exe.Collectives().all_reduce, legacy.all_reduce) << label;
  EXPECT_EQ(exe.Collectives().reduce_scatter, legacy.reduce_scatter) << label;
  EXPECT_EQ(exe.Collectives().all_to_all, legacy.all_to_all) << label;
}

TEST(PreRefactorEquivalenceTest, QuickstartChain) {
  Program program("main");
  Value* x = program.AddInput(TensorType({256, 8}), "x");
  Value* w1 = program.AddInput(TensorType({8, 16}), "w1");
  Value* w2 = program.AddInput(TensorType({16, 8}), "w2");
  OpBuilder& builder = program.builder();
  program.Return({builder.MatMul(builder.MatMul(x, w1), w2)});
  std::vector<Tactic> schedule = {
      ManualPartition{"BP", {{"x", 0}}, "B"},
      ManualPartition{"MP", {{"w1", 1}}, "M"},
      ManualPartition{"Z3", {{"w1", 0}, {"w2", 1}}, "B"},
  };
  ExpectMatchesPreRefactorPipeline(program, schedule,
                                   Mesh({{"B", 4}, {"M", 2}}),
                                   program.RandomInputs(1), "quickstart");
}

TEST(PreRefactorEquivalenceTest, TransformerTraining) {
  TransformerConfig config = SmallTransformer();
  Program program = Program::Capture([&](Module& module) {
    return BuildTransformerTrainingStep(module, config);
  });
  ExpectMatchesPreRefactorPipeline(
      program, {schedules::TransformerBP(), schedules::TransformerMP()},
      Mesh({{"batch", 2}, {"model", 2}}),
      program.RandomInputs(21, static_cast<float>(config.vocab)),
      "transformer training");
}

TEST(PreRefactorEquivalenceTest, TransformerInference) {
  TransformerConfig config = SmallTransformer();
  Program program = Program::Capture([&](Module& module) {
    return BuildTransformerInference(module, config, /*decode_steps=*/2);
  });
  ExpectMatchesPreRefactorPipeline(
      program, {schedules::InferenceBP()}, Mesh({{"batch", 4}}),
      program.RandomInputs(22, static_cast<float>(config.vocab)),
      "transformer inference");
}

TEST(PreRefactorEquivalenceTest, GnsEdgeSharding) {
  GnsConfig config;
  config.message_steps = 2;
  config.num_edges = 16;
  config.num_nodes = 8;
  Program program = Program::Capture(
      [&](Module& module) { return BuildGnsLoss(module, config); });
  ExpectMatchesPreRefactorPipeline(
      program, {schedules::GnsES()}, Mesh({{"batch", 4}}),
      program.RandomInputs(23, static_cast<float>(config.num_nodes)),
      "gns edge sharding");
}

TEST(PreRefactorEquivalenceTest, AutomaticPartitioning) {
  Program program("chain");
  Value* x = program.AddInput(TensorType({16, 8}), "x");
  Value* w1 = program.AddInput(TensorType({8, 8}), "w1");
  Value* w2 = program.AddInput(TensorType({8, 8}), "w2");
  OpBuilder& builder = program.builder();
  program.Return({builder.MatMul(builder.MatMul(x, w1), w2)});
  AutomaticPartition automatic;
  automatic.name = "auto";
  automatic.axes = {"B"};
  automatic.options.simulations = 16;
  ExpectMatchesPreRefactorPipeline(program, {automatic}, Mesh({{"B", 4}}),
                                   program.RandomInputs(24), "automatic");
}

}  // namespace
}  // namespace partir
