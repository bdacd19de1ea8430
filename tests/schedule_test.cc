// Tests for the Program/Executable facade and the Status-based error
// surface: the partition pipeline (PartirJitOrError) end-to-end through one
// Partition call, the incremental vs PartIR-st ablation (Section 7.4),
// TacticReport metadata, stage printing, Respecialize, the device spec
// reaching the automatic search, and every typed error path (bad axis
// name, indivisible dim, unmatched key, unsealed program, bad Run inputs,
// a loop in the traced program).
#include <gtest/gtest.h>

#include "src/api/partir.h"

namespace partir {
namespace {

/** The Listing-1 chain: x[rows,32] @ w1[32,64] -> tanh -> @ w2[64,32]. */
Program BuildChainProgram(int64_t rows = 64) {
  Program program("main");
  Value* x = program.AddInput(TensorType({rows, 32}), "x");
  Value* w1 = program.AddInput(TensorType({32, 64}), "w1");
  Value* w2 = program.AddInput(TensorType({64, 32}), "w2");
  OpBuilder& b = program.builder();
  Value* h = b.Tanh(b.MatMul(x, w1));
  program.Return({b.MatMul(h, w2)});
  return program;
}

std::vector<Tactic> BpMpSchedule() {
  return {ManualPartition{"BP", {{"x", 0}}, "B"},
          ManualPartition{"MP", {{"w1", 1}}, "M"}};
}

// ---- Status / StatusOr basics ----

TEST(StatusTest, OkAndErrorCarryCodeAndMessage) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");

  Status err = InvalidArgumentError("bad axis '", "Q", "'");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.message(), "bad axis 'Q'");
  EXPECT_EQ(err.ToString(), "INVALID_ARGUMENT: bad axis 'Q'");
}

TEST(StatusTest, StatusOrHoldsMoveOnlyValues) {
  StatusOr<std::unique_ptr<int>> holder(std::make_unique<int>(42));
  ASSERT_TRUE(holder.ok());
  std::unique_ptr<int> out = std::move(holder).value();
  EXPECT_EQ(*out, 42);

  StatusOr<std::unique_ptr<int>> error(NotFoundError("nothing here"));
  EXPECT_FALSE(error.ok());
  EXPECT_EQ(error.status().code(), StatusCode::kNotFound);
}

// ---- End-to-end facade ----

TEST(FacadeTest, PartitionRunsEndToEnd) {
  Program program = BuildChainProgram();
  StatusOr<Executable> compiled =
      program.Partition(BpMpSchedule(), Mesh({{"B", 4}, {"M", 2}}));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  Executable exe = std::move(compiled).value();

  // The partitioned program computes the same function as the reference.
  std::vector<Tensor> inputs = program.RandomInputs(/*seed=*/7);
  StatusOr<std::vector<Tensor>> want = program.Evaluate(inputs);
  StatusOr<std::vector<Tensor>> got = exe.Run(inputs);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(want->size(), got->size());
  EXPECT_LT(Tensor::MaxAbsDiff((*want)[0], (*got)[0]), 1e-3f);

  // The batch input is sharded on B; a weight picked up the M axis.
  EXPECT_EQ(exe.num_inputs(), 3);
  EXPECT_EQ(exe.input_sharding(0).axes[0].size(), 1u);
  EXPECT_EQ(exe.input_sharding(0).axes[0][0], "B");
}

TEST(FacadeTest, TacticReportsCarryPerTacticMetadata) {
  Program program = BuildChainProgram();
  StatusOr<Executable> exe =
      program.Partition(BpMpSchedule(), Mesh({{"B", 4}, {"M", 2}}));
  ASSERT_TRUE(exe.ok()) << exe.status().ToString();
  ASSERT_EQ(exe->tactics().size(), 2u);
  EXPECT_EQ(exe->tactics()[0].name, "BP");
  EXPECT_EQ(exe->tactics()[1].name, "MP");
  EXPECT_GT(exe->tactics()[0].actions_applied, 0);
  EXPECT_GE(exe->tactics()[0].tactic_seconds, 0);
  // The cost after BP is that of partitioning the prefix {BP}.
  StatusOr<Executable> after_bp = exe->Respecialize({BpMpSchedule()[0]});
  ASSERT_TRUE(after_bp.ok()) << after_bp.status().ToString();
  EXPECT_GT(after_bp->Estimate().step_seconds, 0);
  // MP introduces the contraction all_reduce; BP alone has none.
  EXPECT_EQ(after_bp->Collectives().all_reduce, 0);
  EXPECT_EQ(exe->Collectives().all_reduce, 1);
  // Memory drops as the second tactic shards the weights.
  EXPECT_LE(exe->Estimate().peak_memory_bytes,
            after_bp->Estimate().peak_memory_bytes);
}

TEST(FacadeTest, IncrementalBeatsSinglePropagationAblation) {
  // Conflicting seeds (Section 5.2.3): x(dim0) and w1(dim1) on the same
  // axis. Incremental PartIR lets BP propagate first (tactic order wins);
  // PartIR-st (the Section 7.4 ablation) amalgamates the tactics and the
  // conflict blocks propagation entirely.
  std::vector<Tactic> conflicting = {ManualPartition{"BP", {{"x", 0}}, "B"},
                                     ManualPartition{"Z", {{"w1", 1}}, "B"}};
  Mesh mesh({{"B", 4}});

  Program incremental_program = BuildChainProgram();
  StatusOr<Executable> incremental =
      incremental_program.Partition(conflicting, mesh);
  ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();

  Program st_program = BuildChainProgram();
  PartitionOptions st_options;
  st_options.incremental = false;  // PartIR-st
  StatusOr<Executable> st = st_program.Partition(conflicting, mesh,
                                                 st_options);
  ASSERT_TRUE(st.ok()) << st.status().ToString();

  EXPECT_FALSE(st->conflicts().empty());
  // Incremental propagation shards the compute; the amalgamated ablation
  // leaves it replicated, so its estimated step time is strictly worse.
  EXPECT_LT(incremental->Estimate().step_seconds,
            st->Estimate().step_seconds);
}

TEST(FacadeTest, RespecializeReusesTheTrace) {
  Program program = BuildChainProgram();
  Mesh mesh({{"B", 4}, {"M", 2}});
  StatusOr<Executable> bp = program.Partition(
      {ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh);
  ASSERT_TRUE(bp.ok());

  StatusOr<Executable> mp = bp->Respecialize(
      {ManualPartition{"MP", {{"w1", 1}}, "M"}});
  ASSERT_TRUE(mp.ok()) << mp.status().ToString();

  // The two strategies shard different inputs...
  EXPECT_EQ(bp->input_sharding(0).axes[0].size(), 1u);   // x on B
  EXPECT_TRUE(mp->input_sharding(0).axes[0].empty());    // x replicated
  EXPECT_EQ(mp->input_sharding(1).axes[1].size(), 1u);   // w1 on M

  // ...and both still compute the reference function.
  std::vector<Tensor> inputs = program.RandomInputs(/*seed=*/3);
  std::vector<Tensor> want = program.Evaluate(inputs).value();
  EXPECT_LT(Tensor::MaxAbsDiff(want[0], bp->Run(inputs).value()[0]), 1e-3f);
  EXPECT_LT(Tensor::MaxAbsDiff(want[0], mp->Run(inputs).value()[0]), 1e-3f);
}

TEST(FacadeTest, ExecutableOutlivesItsProgram) {
  // Executables share ownership of the traced module, so long-lived
  // executables (caches, serving) stay valid after the Program is gone.
  Executable exe = [] {
    Program program = BuildChainProgram();
    return std::move(program.Partition(BpMpSchedule(),
                                       Mesh({{"B", 4}, {"M", 2}}))
                         .value());
  }();
  StatusOr<std::vector<Tensor>> got = exe.Run(
      {Tensor::Random({64, 32}, 11), Tensor::Random({32, 64}, 12),
       Tensor::Random({64, 32}, 13)});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(exe.Print(Stage::Source()).ok());
  StatusOr<Executable> respecialized = exe.Respecialize(
      {ManualPartition{"BP", {{"x", 0}}, "B"}});
  EXPECT_TRUE(respecialized.ok());
}

TEST(FacadeTest, PrintExposesEveryStage) {
  // Default options: each loop-form stage is recomputed when printed.
  Program program = BuildChainProgram();
  StatusOr<Executable> exe =
      program.Partition(BpMpSchedule(), Mesh({{"B", 4}, {"M", 2}}));
  ASSERT_TRUE(exe.ok());

  StatusOr<std::string> source = exe->Print(Stage::Source());
  ASSERT_TRUE(source.ok());
  EXPECT_NE(source->find("dot"), std::string::npos);

  // The loop form after BP has a loop over B but no M loop yet.
  StatusOr<std::string> after_bp = exe->Print(Stage::AfterTactic(0));
  ASSERT_TRUE(after_bp.ok()) << after_bp.status().ToString();
  EXPECT_NE(after_bp->find("axis = \"B\""), std::string::npos);
  EXPECT_EQ(after_bp->find("axis = \"M\""), std::string::npos);

  StatusOr<std::string> after_mp = exe->Print(Stage::AfterTactic(1));
  ASSERT_TRUE(after_mp.ok());
  EXPECT_NE(after_mp->find("axis = \"M\""), std::string::npos);

  // Incremental mode: the final loop form is the last tactic's.
  StatusOr<std::string> loops = exe->Print(Stage::Loops());
  ASSERT_TRUE(loops.ok());
  EXPECT_EQ(*loops, *after_mp);
  // A stage prints the same text every time.
  EXPECT_EQ(exe->Print(Stage::AfterTactic(0)).value(), *after_bp);

  StatusOr<std::string> spmd = exe->Print(Stage::Spmd());
  ASSERT_TRUE(spmd.ok());
  EXPECT_NE(spmd->find("all_reduce"), std::string::npos);

  // Out-of-range stage index is a typed error.
  StatusOr<std::string> missing = exe->Print(Stage::AfterTactic(99));
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(exe->Print(Stage::AfterTactic(-1)).status().code(),
            StatusCode::kInvalidArgument);
}

// ---- Typed error paths ----

TEST(FacadeErrorTest, BadAxisNameNamesTheAxis) {
  Program program = BuildChainProgram();
  StatusOr<Executable> exe = program.Partition(
      {ManualPartition{"BP", {{"x", 0}}, "Q"}}, Mesh({{"B", 4}}));
  ASSERT_FALSE(exe.ok());
  EXPECT_EQ(exe.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(exe.status().message().find("'Q'"), std::string::npos);
  EXPECT_NE(exe.status().message().find("BP"), std::string::npos);
}

TEST(FacadeErrorTest, UnmatchedKeyNamesTheKey) {
  // The satellite fix: a typo'd key used to silently change the strategy.
  Program program = BuildChainProgram();
  StatusOr<Executable> exe = program.Partition(
      {ManualPartition{"BP", {{"nonexistent_input", 0}}, "B"}},
      Mesh({{"B", 4}}));
  ASSERT_FALSE(exe.ok());
  EXPECT_EQ(exe.status().code(), StatusCode::kNotFound);
  EXPECT_NE(exe.status().message().find("nonexistent_input"),
            std::string::npos);
}

TEST(FacadeErrorTest, IndivisibleDimNamesSizes) {
  // rows=63 is not divisible by the 4-way B axis.
  Program program = BuildChainProgram(/*rows=*/63);
  StatusOr<Executable> exe = program.Partition(
      {ManualPartition{"BP", {{"x", 0}}, "B"}}, Mesh({{"B", 4}}));
  ASSERT_FALSE(exe.ok());
  EXPECT_EQ(exe.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(exe.status().message().find("not divisible"), std::string::npos);
  EXPECT_NE(exe.status().message().find("63"), std::string::npos);
}

TEST(FacadeErrorTest, DimOutOfRangeIsTyped) {
  Program program = BuildChainProgram();
  StatusOr<Executable> exe = program.Partition(
      {ManualPartition{"BP", {{"x", 5}}, "B"}}, Mesh({{"B", 4}}));
  ASSERT_FALSE(exe.ok());
  EXPECT_EQ(exe.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(exe.status().message().find("out of range"), std::string::npos);
}

TEST(FacadeErrorTest, UnsealedProgramCannotPartitionOrEvaluate) {
  Program program("unfinished");
  program.AddInput(TensorType({8, 8}), "x");
  StatusOr<Executable> exe = program.Partition({}, Mesh({{"B", 4}}));
  ASSERT_FALSE(exe.ok());
  EXPECT_EQ(exe.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(exe.status().message().find("Return"), std::string::npos);
  EXPECT_FALSE(program.Evaluate({Tensor({8, 8})}).ok());
}

TEST(FacadeErrorTest, RunValidatesInputCountAndShape) {
  Program program = BuildChainProgram();
  StatusOr<Executable> exe =
      program.Partition(BpMpSchedule(), Mesh({{"B", 4}, {"M", 2}}));
  ASSERT_TRUE(exe.ok());

  StatusOr<std::vector<Tensor>> too_few = exe->Run({Tensor({64, 32})});
  ASSERT_FALSE(too_few.ok());
  EXPECT_EQ(too_few.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_few.status().message().find("expected 3"),
            std::string::npos);

  StatusOr<std::vector<Tensor>> bad_shape = exe->Run(
      {Tensor({64, 32}), Tensor({32, 64}), Tensor({7, 7})});
  ASSERT_FALSE(bad_shape.ok());
  EXPECT_NE(bad_shape.status().message().find("w2"), std::string::npos);
}

TEST(FacadeErrorTest, AutomaticTacticValidatesAxes) {
  Program program = BuildChainProgram();
  AutomaticPartition automatic;
  automatic.name = "auto";
  automatic.axes = {"B", "bogus"};
  automatic.options.simulations = 2;
  StatusOr<Executable> exe =
      program.Partition({automatic}, Mesh({{"B", 4}}));
  ASSERT_FALSE(exe.ok());
  EXPECT_NE(exe.status().message().find("bogus"), std::string::npos);
}

TEST(FacadeErrorTest, LoopInTracedProgramIsRefused) {
  // Only a hand-built loop can reach the lowering; it must come back as a
  // typed error, not as a module neither engine can run.
  Program program("looped");
  Value* x = program.AddInput(TensorType({8, 4}), "x");
  OpBuilder& b = program.builder();
  Operation* loop = b.Loop("B", 4, "tile", 0, TensorType({8, 4}));
  {
    Block& body = loop->region(0).block();
    OpBuilder inner(&body);
    inner.Yield(&body, {inner.Tanh(inner.PSlice(x, body.arg(0), 0))});
  }
  program.Return({loop->result()});
  StatusOr<Executable> exe = program.Partition({}, Mesh({{"B", 4}}));
  ASSERT_FALSE(exe.ok());
  EXPECT_EQ(exe.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(exe.status().message().find("must be loop-free"),
            std::string::npos)
      << exe.status().message();
}

TEST(FacadeTest, DeviceMemoryLimitMakesAutomaticPartitionShard) {
  // Sharding x @ w along its contraction costs an all_reduce that outweighs
  // the compute it saves, so on the default device the search keeps the
  // program whole. The operands do not fit a 300 KB device unsharded, so
  // there it must shard: PartitionOptions::device is the spec it scores.
  Program program("main");
  Value* x = program.AddInput(TensorType({4, 16384}), "x");
  Value* w = program.AddInput(TensorType({16384, 4}), "w");
  program.Return({program.builder().MatMul(x, w)});
  AutomaticPartition automatic;
  automatic.axes = {"B"};
  automatic.options.simulations = 16;
  automatic.options.max_actions = 2;
  const Mesh mesh({{"B", 8}});

  StatusOr<Executable> roomy = program.Partition({automatic}, mesh);
  ASSERT_TRUE(roomy.ok()) << roomy.status().ToString();
  ASSERT_EQ(roomy->tactics().size(), 1u);
  EXPECT_EQ(roomy->tactics()[0].actions_applied, 0);

  PartitionOptions options;
  options.device.hbm_bytes = 3e5;
  StatusOr<Executable> tight = program.Partition({automatic}, mesh, options);
  ASSERT_TRUE(tight.ok()) << tight.status().ToString();
  ASSERT_EQ(tight->tactics().size(), 1u);
  EXPECT_GT(tight->tactics()[0].actions_applied, 0);
}

// ---- Context-level Status surface ----

TEST(TileValueOrErrorTest, EveryFailureCarriesAMessage) {
  Program program = BuildChainProgram();
  Value* x = program.input(0);
  PartitionContext ctx(program.func(), Mesh({{"B", 4}}));

  Status unknown_axis = ctx.TileValueOrError(x, 0, "Z");
  ASSERT_FALSE(unknown_axis.ok());
  EXPECT_NE(unknown_axis.message().find("'Z'"), std::string::npos);

  Status out_of_range = ctx.TileValueOrError(x, 9, "B");
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.code(), StatusCode::kInvalidArgument);

  ASSERT_TRUE(ctx.TileValueOrError(x, 0, "B").ok());
  Status duplicate = ctx.TileValueOrError(x, 1, "B");
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(duplicate.message().find("already tiled"), std::string::npos);

  Value* w1 = program.input(1);
  ctx.AtomicValue(w1, "B");
  Status atomic = ctx.TileValueOrError(w1, 0, "B");
  ASSERT_FALSE(atomic.ok());
  EXPECT_NE(atomic.message().find("atomic"), std::string::npos);

  // The deprecated bool shim still reports success/failure.
  EXPECT_FALSE(ctx.TileValue(w1, 0, "B"));
}

TEST(ApplyManualTacticOrErrorTest, CountsActionsAndSkipsStateConflicts) {
  Program program = BuildChainProgram();
  PartitionContext ctx(program.func(), Mesh({{"B", 4}}));
  // First application tiles x; re-applying the same tactic is a no-op, not
  // an error (re-stated placements are resolved by tactic order).
  ManualPartition bp{"BP", {{"x", 0}}, "B"};
  StatusOr<int> first = ApplyManualTacticOrError(ctx, bp);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), 1);
  StatusOr<int> again = ApplyManualTacticOrError(ctx, bp);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), 0);
}

}  // namespace
}  // namespace partir
