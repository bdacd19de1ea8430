// Tests for the pass-manager compilation pipeline: pass ordering, per-pass
// statistics accumulation (including fixpoint groups), verifier failures
// surfacing as typed Status (never an abort), stage printing,
// the collective-plan invalidation helper, the new reduce-scatter-formation
// cases, and bit-identical Executable::Run outputs versus the pre-refactor
// pipeline (the same stage functions composed by hand) on all five example
// workloads.
#include <gtest/gtest.h>

#include <cstring>

#include "src/api/partir.h"
#include "src/autopart/mcts.h"
#include "src/ir/builder.h"
#include "src/ir/passes.h"
#include "src/models/gns.h"
#include "src/models/schedules.h"
#include "src/models/transformer.h"
#include "src/pass/pass_manager.h"
#include "src/pass/passes.h"
#include "src/pass/pipeline.h"
#include "src/spmd/collectives.h"
#include "src/spmd/spmd_interpreter.h"

namespace partir {
namespace {

// ---- Framework scaffolding ----

/** A tiny sealed program to thread a PipelineState through. */
struct Fixture {
  Fixture() : program("fixture") {
    x = program.AddInput(TensorType({16, 8}), "x");
    w = program.AddInput(TensorType({8, 8}), "w");
    program.Return({program.builder().MatMul(x, w)});
  }
  Program program;
  Value* x;
  Value* w;
  std::vector<Tactic> schedule;
  PartitionOptions options;
  PartitionResult result;
};

/** Appends its label to a shared log; optionally reports fake changes. */
class RecordingPass : public Pass {
 public:
  RecordingPass(std::string label, std::vector<std::string>* log,
                int* changes_budget = nullptr)
      : label_(std::move(label)), log_(log),
        changes_budget_(changes_budget) {}
  std::string name() const override { return label_; }
  Status Run(PipelineState& state) override {
    log_->push_back(label_);
    if (changes_budget_ != nullptr && *changes_budget_ > 0) {
      --*changes_budget_;
      state.changes = 1;
    }
    return Status::Ok();
  }

 private:
  std::string label_;
  std::vector<std::string>* log_;
  int* changes_budget_;
};

TEST(PassManagerTest, RunsPassesInRegistrationOrder) {
  Fixture fixture;
  PartitionContext ctx(fixture.program.func(), Mesh({{"B", 4}}));
  PipelineState state(ctx, fixture.schedule, fixture.options, fixture.result);
  std::vector<std::string> log;
  PassManager manager;
  manager.AddPass(std::make_unique<RecordingPass>("first", &log))
      .AddPass(std::make_unique<RecordingPass>("second", &log))
      .AddPass(std::make_unique<RecordingPass>("third", &log));
  ASSERT_TRUE(manager.Run(state).ok());
  EXPECT_EQ(log, (std::vector<std::string>{"first", "second", "third"}));
  ASSERT_EQ(manager.stats().passes.size(), 3u);
  EXPECT_EQ(manager.stats().passes[0].name, "first");
  EXPECT_EQ(manager.stats().passes[2].name, "third");
  for (const PassStats& stats : manager.stats().passes) {
    EXPECT_EQ(stats.runs, 1);
  }
}

TEST(PassManagerTest, FixpointGroupRepeatsUntilNoChanges) {
  Fixture fixture;
  PartitionContext ctx(fixture.program.func(), Mesh({{"B", 4}}));
  PipelineState state(ctx, fixture.schedule, fixture.options, fixture.result);
  std::vector<std::string> log;
  int budget = 3;  // first three runs report a change, then quiescent
  std::vector<std::unique_ptr<Pass>> group;
  group.push_back(
      std::make_unique<RecordingPass>("rewrite", &log, &budget));
  group.push_back(std::make_unique<RecordingPass>("cleanup", &log));
  PassManager manager;
  manager.AddFixpoint(std::move(group), /*max_iterations=*/8);
  ASSERT_TRUE(manager.Run(state).ok());
  // Iterations 1..3 apply a change; iteration 4 is quiescent and stops.
  ASSERT_EQ(manager.stats().passes.size(), 2u);
  EXPECT_EQ(manager.stats().passes[0].runs, 4);
  EXPECT_EQ(manager.stats().passes[0].changes, 3);
  EXPECT_EQ(manager.stats().passes[1].runs, 4);
  EXPECT_EQ(log.size(), 8u);
}

TEST(PassManagerTest, FixpointGroupHonorsMaxIterations) {
  Fixture fixture;
  PartitionContext ctx(fixture.program.func(), Mesh({{"B", 4}}));
  PipelineState state(ctx, fixture.schedule, fixture.options, fixture.result);
  std::vector<std::string> log;
  int budget = 100;  // never quiescent
  std::vector<std::unique_ptr<Pass>> group;
  group.push_back(
      std::make_unique<RecordingPass>("rewrite", &log, &budget));
  PassManager manager;
  manager.AddFixpoint(std::move(group), /*max_iterations=*/3);
  ASSERT_TRUE(manager.Run(state).ok());
  EXPECT_EQ(manager.stats().passes[0].runs, 3);
}

// ---- Verifier failures surface as typed Status ----

/** Corrupts the traced function with a type-mismatched op. */
class CorruptingPass : public Pass {
 public:
  std::string name() const override { return "corrupt"; }
  Status Run(PipelineState& state) override {
    Block& body = state.ctx.func()->body();
    OpBuilder builder(&body);
    // neg(16x8) typed as 4x4: the unary-elementwise verifier rule fails.
    builder.Create(OpKind::kNeg, {body.arg(0)}, {TensorType({4, 4})});
    state.changes = 1;
    return Status::Ok();
  }
};

TEST(PassManagerTest, VerifierFailureIsTypedStatusNamingThePass) {
  Fixture fixture;
  PartitionContext ctx(fixture.program.func(), Mesh({{"B", 4}}));
  PipelineState state(ctx, fixture.schedule, fixture.options, fixture.result);
  PipelineOptions options;
  options.verify_after_each_pass = true;
  PassManager manager(options);
  std::vector<std::string> log;
  manager.AddPass(std::make_unique<CorruptingPass>())
      .AddPass(std::make_unique<RecordingPass>("after", &log));
  Status status = manager.Run(state);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("corrupt"), std::string::npos);
  // The pipeline stopped: the pass after the violation never ran.
  EXPECT_TRUE(log.empty());
}

TEST(PassManagerTest, VerificationOffSkipsTheCheck) {
  Fixture fixture;
  PartitionContext ctx(fixture.program.func(), Mesh({{"B", 4}}));
  PipelineState state(ctx, fixture.schedule, fixture.options, fixture.result);
  PipelineOptions options;
  options.verify_after_each_pass = false;
  PassManager manager(options);
  manager.AddPass(std::make_unique<CorruptingPass>());
  EXPECT_TRUE(manager.Run(state).ok());
  EXPECT_EQ(manager.stats().verify_runs, 0);
}

/** A pass whose Run itself fails. */
class FailingPass : public Pass {
 public:
  std::string name() const override { return "failing"; }
  Status Run(PipelineState&) override {
    return InvalidArgumentError("intentional failure");
  }
};

TEST(PassManagerTest, PassErrorIsPrefixedWithThePassName) {
  Fixture fixture;
  PartitionContext ctx(fixture.program.func(), Mesh({{"B", 4}}));
  PipelineState state(ctx, fixture.schedule, fixture.options, fixture.result);
  PassManager manager;
  manager.AddPass(std::make_unique<FailingPass>());
  Status status = manager.Run(state);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("pass 'failing'"), std::string::npos);
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
