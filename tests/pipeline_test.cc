// Tests for the schedule API (Table 1), the simulator/cost model
// (Appendix A.3), the MCTS automatic partitioner, and the GSPMD-style
// baseline — the pieces the experiment harness composes.
#include <gtest/gtest.h>

#include "src/autopart/mcts.h"
#include "src/baseline/gspmd.h"
#include "src/ir/builder.h"
#include "src/models/schedules.h"
#include "src/models/transformer.h"
#include "src/schedule/schedule.h"
#include "src/sim/cost_model.h"

namespace partir {
namespace {

struct Chain {
  Module module;
  Func* func;
  Value* x;
  Value* w1;
  Value* w2;
};

Chain BuildChain(int64_t rows = 64) {
  Chain chain;
  chain.func = chain.module.AddFunc("main");
  chain.x = chain.func->body().AddArg(TensorType({rows, 32}), "x");
  chain.w1 = chain.func->body().AddArg(TensorType({32, 64}), "w1");
  chain.w2 = chain.func->body().AddArg(TensorType({64, 32}), "w2");
  OpBuilder builder(&chain.func->body());
  Value* h = builder.Tanh(builder.MatMul(chain.x, chain.w1));
  Value* out = builder.MatMul(h, chain.w2);
  builder.Return({out});
  return chain;
}

TEST(ScheduleTest, PerTacticReportsShowIncrementalProgress) {
  Chain chain = BuildChain();
  Mesh mesh({{"B", 4}, {"M", 2}});
  ManualPartition bp{"BP", {{"x", 0}}, "B"};
  ManualPartition mp{"MP", {{"w1", 1}}, "M"};
  PartitionContext ctx(chain.func, mesh);
  PartitionResult result = PartirJitOrError(ctx, {bp, mp}).value();
  ASSERT_EQ(result.tactics.size(), 2u);
  EXPECT_EQ(result.tactics[0].name, "BP");
  EXPECT_EQ(result.tactics[1].name, "MP");
  // The cost after BP is that of partitioning the prefix {BP}.
  PartitionContext bp_ctx(chain.func, mesh);
  PartitionResult after_bp = PartirJitOrError(bp_ctx, {bp}).value();
  EXPECT_EQ(after_bp.collectives.all_reduce, 0);
  EXPECT_EQ(result.collectives.all_reduce, 1);
  EXPECT_GT(after_bp.estimate.step_seconds, 0);
  // Memory drops as the second tactic shards the weights.
  EXPECT_LE(result.estimate.peak_memory_bytes,
            after_bp.estimate.peak_memory_bytes);
}

TEST(ScheduleTest, SubstringKeysMatchAllBlocks) {
  TransformerConfig config;
  config.num_layers = 3;
  config.d_model = 16;
  config.num_heads = 4;
  config.head_dim = 4;
  config.ffw_size = 32;
  config.vocab = 32;
  config.batch = 4;
  config.seq = 4;
  Module module;
  Func* loss = BuildTransformerLoss(module, config);
  PartitionContext ctx(loss, Mesh({{"model", 2}}));
  // One key shards all three blocks' wq.
  ManualPartition mp{"MP", {{"wq", 1}}, "model"};
  EXPECT_EQ(ApplyManualTacticOrError(ctx, mp).value(), 3);
}

TEST(ScheduleTest, FirstDivisibleDimSkipsIndivisible) {
  Module module;
  Func* func = module.AddFunc("main");
  Value* w = func->body().AddArg(TensorType({3, 3, 8, 16}), "w");
  OpBuilder builder(&func->body());
  builder.Return({builder.Neg(w)});
  PartitionContext ctx(func, Mesh({{"B", 4}}));
  ManualPartition z{"Z", {{"w", kFirstDivisibleDim}}, "B"};
  EXPECT_EQ(ApplyManualTacticOrError(ctx, z).value(), 1);
  EXPECT_EQ(ctx.state(w).DimOfAxis("B"), 2);  // first dim divisible by 4
}

TEST(ScheduleTest, ReplicatedMarksAtomic) {
  Chain chain = BuildChain();
  PartitionContext ctx(chain.func, Mesh({{"B", 4}}));
  ManualPartition z2{"Z2", {{"w1", kReplicated}}, "B"};
  EXPECT_EQ(ApplyManualTacticOrError(ctx, z2).value(), 1);
  EXPECT_TRUE(ctx.IsAtomic(chain.w1, "B"));
  // A later tile on the atomic value is refused.
  EXPECT_FALSE(ctx.TileValue(chain.w1, 0, "B"));
}

TEST(ScheduleTest, NonIncrementalModeDefersToOnePropagation) {
  Chain chain = BuildChain();
  PartitionContext ctx(chain.func, Mesh({{"B", 4}}));
  PartitionOptions options;
  options.incremental = false;
  // Conflicting seeds: with incrementality BP would win at the first
  // matmul; amalgamated, the conflict blocks propagation entirely.
  ManualPartition bp{"BP", {{"x", 0}}, "B"};
  ManualPartition z{"Z", {{"w1", 1}}, "B"};
  PartitionResult result = PartirJitOrError(ctx, {bp, z}, options).value();
  EXPECT_FALSE(result.conflicts.empty());
}

TEST(SimTest, FlopsOfDotIs2MNK) {
  Chain chain = BuildChain();
  // 64x32 @ 32x64: 2*64*64*32 flops; then tanh 64*64; 64x64 @ 64x32.
  const Operation* dot1 = chain.func->body().ops()[0]->kind() == OpKind::kDot
                              ? chain.func->body().ops()[0].get()
                              : nullptr;
  ASSERT_NE(dot1, nullptr);
  EXPECT_DOUBLE_EQ(OpFlops(*dot1), 2.0 * 64 * 64 * 32);
  double total = FuncFlops(*chain.func);
  EXPECT_DOUBLE_EQ(total,
                   2.0 * 64 * 64 * 32 + 64 * 64 + 2.0 * 64 * 32 * 64);
}

TEST(SimTest, PeakMemoryTracksLiveRanges) {
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({1024}), "x");  // 4 KB
  OpBuilder builder(&func->body());
  Value* a = builder.Neg(x);     // +4KB (x still live)
  Value* b = builder.Exp(a);     // +4KB (x dead after? x used only by a)
  Value* c = builder.Tanh(b);
  builder.Return({c});
  double peak = EstimatePeakMemory(*func);
  // At most three 4KB values live simultaneously.
  EXPECT_LE(peak, 3 * 4096.0);
  EXPECT_GE(peak, 2 * 4096.0);
}

TEST(SimTest, ShardingReducesEstimatedMemoryAndCompute) {
  Chain big = BuildChain(256);
  PartitionContext ctx(big.func, Mesh({{"B", 8}}));
  SpmdModule unsharded = LowerToSpmd(ctx);
  SimEstimate before = EstimateSpmd(unsharded, Tpu_v3());
  ASSERT_TRUE(ctx.TileValue(big.x, 0, "B"));
  ctx.Propagate();
  SpmdModule sharded = LowerToSpmd(ctx);
  OptimizeSpmd(sharded);
  SimEstimate after = EstimateSpmd(sharded, Tpu_v3());
  EXPECT_LT(after.peak_memory_bytes, before.peak_memory_bytes);
  EXPECT_LT(after.compute_seconds, before.compute_seconds);
}

TEST(SimTest, HardwareModelIsDeterministic) {
  Chain chain = BuildChain();
  PartitionContext ctx(chain.func, Mesh({{"B", 4}}));
  ASSERT_TRUE(ctx.TileValue(chain.x, 0, "B"));
  ctx.Propagate();
  SpmdModule spmd = LowerToSpmd(ctx);
  OptimizeSpmd(spmd);
  SimEstimate first = MeasureOnHardwareModel(spmd, Tpu_v3());
  SimEstimate second = MeasureOnHardwareModel(spmd, Tpu_v3());
  EXPECT_DOUBLE_EQ(first.step_seconds, second.step_seconds);
  // Measured peak is below the conservative estimate (App. A.3.2).
  SimEstimate estimate = EstimateSpmd(spmd, Tpu_v3());
  EXPECT_LE(first.peak_memory_bytes, estimate.peak_memory_bytes);
}

TEST(SimTest, MfuDefinition) {
  DeviceSpec device = Tpu_v3();
  // 100 * flops / time / (devices * peak).
  double mfu = Mfu(device.peak_flops, 1.0, 1, device);
  EXPECT_DOUBLE_EQ(mfu, 100.0);
  EXPECT_DOUBLE_EQ(Mfu(device.peak_flops, 2.0, 1, device), 50.0);
}

TEST(AutoPartTest, DiscoversBatchParallelismOnChain) {
  // A compute-heavy chain where batch sharding is the clear win.
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({512, 256}), "x");
  std::vector<Value*> weights;
  for (int i = 0; i < 4; ++i) {
    weights.push_back(
        func->body().AddArg(TensorType({256, 256}), StrCat("w", i)));
  }
  OpBuilder builder(&func->body());
  Value* h = x;
  for (Value* w : weights) h = builder.Tanh(builder.MatMul(h, w));
  builder.Return({h});

  PartitionContext ctx(func, Mesh({{"B", 8}}));
  AutoOptions options;
  options.simulations = 24;
  options.max_actions = 2;
  AutoResult result = AutomaticallyPartition(ctx, {"B"}, options, Tpu_v3());
  ASSERT_FALSE(result.actions.empty());
  // The input batch dim must be sharded.
  EXPECT_TRUE(ctx.state(x).HasAxis("B"));
  EXPECT_EQ(ctx.state(x).DimOfAxis("B"), 0);
  EXPECT_GT(result.evaluations, 0);
}

TEST(AutoPartTest, RespectsMemoryLimit) {
  // With a tiny HBM limit, the unsharded program is penalized and the
  // search must shard something.
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({1024, 512}), "x");
  Value* w = func->body().AddArg(TensorType({512, 1024}), "w");
  OpBuilder builder(&func->body());
  builder.Return({builder.MatMul(x, w)});
  PartitionContext ctx(func, Mesh({{"B", 8}}));
  AutoOptions options;
  options.simulations = 16;
  options.max_actions = 2;
  DeviceSpec device = Tpu_v3();
  device.hbm_bytes = 3e6;  // 3 MB: full tensors do not fit
  AutoResult result = AutomaticallyPartition(ctx, {"B"}, options, device);
  EXPECT_FALSE(result.actions.empty());
}

TEST(BaselineTest, GspmdResolvesConflictHeuristically) {
  // The Section 5.2.3 conflict: x(dim0) and w1(dim1) seeded on the same
  // axis at once. PartIR refuses; the baseline's cost heuristic picks the
  // factor with the larger tensor (x) and partitions anyway.
  Chain chain = BuildChain(256);
  PartitionContext ctx(chain.func, Mesh({{"B", 4}}));
  GspmdResult result = GspmdPartition(
      ctx, {{"x", 0, "B"}, {"w1", 1, "B"}}, {});
  EXPECT_GT(result.heuristic_resolutions, 0);
  const Operation* mm1 = chain.func->body().ops()[0].get();
  EXPECT_FALSE(ctx.nest(mm1).empty());
}

TEST(BaselineTest, GspmdMinusIgnoresInternalConstraints) {
  Chain chain = BuildChain();
  Module module2;
  // Tag an internal value so a constraint can reference it.
  PartitionContext ctx(chain.func, Mesh({{"B", 4}}));
  GspmdOptions options;
  options.use_internal_constraints = false;
  GspmdResult result = GspmdPartition(
      ctx, {{"x", 0, "B"}}, {{"w1", 1, "B"}}, options);
  // The internal annotation was ignored: w1 is not sharded.
  EXPECT_TRUE(ctx.state(chain.w1).tiles.empty());
}

TEST(BaselineTest, GspmdMatchesPartirOnConflictFreeSchedule) {
  // On a conflict-free BP schedule both systems produce the same counts.
  Chain a = BuildChain();
  PartitionContext partir_ctx(a.func, Mesh({{"B", 4}}));
  ManualPartition bp{"BP", {{"x", 0}}, "B"};
  PartitionResult partir = PartirJitOrError(partir_ctx, {bp}).value();

  Chain b = BuildChain();
  PartitionContext gspmd_ctx(b.func, Mesh({{"B", 4}}));
  GspmdResult gspmd = GspmdPartition(gspmd_ctx, {{"x", 0, "B"}}, {});
  CollectiveStats gspmd_stats =
      CountCollectives(*gspmd.spmd.module, gspmd.spmd.mesh);
  EXPECT_EQ(partir.collectives.all_reduce, gspmd_stats.all_reduce);
  EXPECT_EQ(partir.collectives.all_gather, gspmd_stats.all_gather);
}

}  // namespace
}  // namespace partir
