// Tests for PartIR:Core compiler actions and the propagation pass
// (Sections 5.1-5.2.3 of the paper), including the worked matmul-chain
// example, inference from partial matches, conflicts, and atomic barriers.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/context.h"
#include "src/core/factors.h"
#include "src/ir/builder.h"
#include "src/models/schedules.h"
#include "src/models/transformer.h"
#include "src/schedule/schedule.h"
#include "src/sim/cost_model.h"

namespace partir {
namespace {

// Builds Listing 1: x:[256,8] @ w1:[8,16] @ w2:[16,8].
struct Chain {
  Module module;
  Func* func;
  Value* x;
  Value* w1;
  Value* w2;
  Operation* mm1;
  Operation* mm2;
};

Chain BuildChain() {
  Chain chain;
  chain.func = chain.module.AddFunc("main");
  chain.x = chain.func->body().AddArg(TensorType({256, 8}), "x");
  chain.w1 = chain.func->body().AddArg(TensorType({8, 16}), "w1");
  chain.w2 = chain.func->body().AddArg(TensorType({16, 8}), "w2");
  OpBuilder builder(&chain.func->body());
  Value* x1 = builder.MatMul(chain.x, chain.w1);
  Value* x2 = builder.MatMul(x1, chain.w2);
  builder.Return({x2});
  chain.mm1 = x1->def();
  chain.mm2 = x2->def();
  return chain;
}

Mesh PaperMesh() { return Mesh({{"B", 4}, {"M", 2}}); }

TEST(FactorsTest, MatMulFactorsMatchFigure4) {
  Chain chain = BuildChain();
  OpShardingSpec spec = GetShardingSpec(*chain.mm1);
  // Three TMR entries: (tile<0>,_)->tile<0>, (_,tile<1>)->tile<1>,
  // (tile<1>,tile<0>)->sum.
  ASSERT_EQ(spec.factors.size(), 3u);
  EXPECT_EQ(spec.factors[0].operand_dims, (std::vector<int>{0, -1}));
  EXPECT_EQ(spec.factors[0].result_dim, 0);
  EXPECT_EQ(spec.factors[1].operand_dims, (std::vector<int>{-1, 1}));
  EXPECT_EQ(spec.factors[1].result_dim, 1);
  EXPECT_EQ(spec.factors[2].operand_dims, (std::vector<int>{1, 0}));
  EXPECT_TRUE(spec.factors[2].contracting);
}

TEST(FactorsTest, ElementwiseTMR) {
  Module module;
  Func* func = module.AddFunc("main");
  Value* a = func->body().AddArg(TensorType({4, 6}), "a");
  OpBuilder builder(&func->body());
  Value* sum = builder.Add(a, a);
  builder.Return({sum});
  OpShardingSpec spec = GetShardingSpec(*sum->def());
  // TMR(add) = {(tile<d>, tile<d>) -> tile<d>} for every d.
  ASSERT_EQ(spec.factors.size(), 2u);
  for (int d = 0; d < 2; ++d) {
    EXPECT_EQ(spec.factors[d].operand_dims, (std::vector<int>{d, d}));
    EXPECT_EQ(spec.factors[d].result_dim, d);
  }
}

TEST(FactorsTest, GeneralReshapeIsBlocked) {
  Module module;
  Func* func = module.AddFunc("main");
  Value* a = func->body().AddArg(TensorType({16}), "a");
  OpBuilder builder(&func->body());
  Value* r = builder.Reshape(a, {4, 4});
  builder.Return({r});
  EXPECT_FALSE(GetShardingSpec(*r->def()).propagatable);
}

TEST(PropagationTest, BatchParallelismListing2) {
  Chain chain = BuildChain();
  PartitionContext ctx(chain.func, PaperMesh());
  ASSERT_TRUE(ctx.TileValue(chain.x, 0, "B"));
  ctx.Propagate();

  // Both matmuls become tile<0> loops over B.
  ASSERT_EQ(ctx.nest(chain.mm1).size(), 1u);
  EXPECT_EQ(ctx.nest(chain.mm1)[0].axis, "B");
  EXPECT_FALSE(ctx.nest(chain.mm1)[0].contracting);
  ASSERT_EQ(ctx.nest(chain.mm2).size(), 1u);
  // Weights stay replicated; x arrives sliced 64x8.
  EXPECT_TRUE(ctx.state(chain.w1).tiles.empty());
  EXPECT_TRUE(ctx.state(chain.w2).tiles.empty());
  EXPECT_EQ(ctx.LocalDims(chain.x), (std::vector<int64_t>{64, 8}));
  EXPECT_TRUE(ctx.conflicts().empty());
}

TEST(PropagationTest, ModelParallelismListing3) {
  Chain chain = BuildChain();
  PartitionContext ctx(chain.func, PaperMesh());
  ASSERT_TRUE(ctx.TileValue(chain.x, 0, "B"));
  ctx.Propagate();
  ASSERT_TRUE(ctx.TileValue(chain.w1, 1, "M"));
  ctx.Propagate();

  // mm1: tile over B and tile over M (rhs free dim).
  ASSERT_EQ(ctx.nest(chain.mm1).size(), 2u);
  EXPECT_EQ(ctx.nest(chain.mm1)[1].axis, "M");
  EXPECT_FALSE(ctx.nest(chain.mm1)[1].contracting);
  // mm2: tile over B, #sum over M (operands sliced on contracting dim).
  ASSERT_EQ(ctx.nest(chain.mm2).size(), 2u);
  EXPECT_EQ(ctx.nest(chain.mm2)[1].axis, "M");
  EXPECT_TRUE(ctx.nest(chain.mm2)[1].contracting);
  // Inference sharded w2 on dim 0 (the paper's propagation example).
  EXPECT_EQ(ctx.state(chain.w2).DimOfAxis("M"), 0);
  EXPECT_EQ(ctx.LocalDims(chain.w1), (std::vector<int64_t>{8, 8}));
  EXPECT_EQ(ctx.LocalDims(chain.w2), (std::vector<int64_t>{8, 8}));
}

TEST(PropagationTest, FsdpListing4) {
  Chain chain = BuildChain();
  PartitionContext ctx(chain.func, PaperMesh());
  ASSERT_TRUE(ctx.TileValue(chain.x, 0, "B"));
  ctx.Propagate();
  ASSERT_TRUE(ctx.TileValue(chain.w1, 1, "M"));
  ctx.Propagate();
  // Z3: shard parameters along B on their remaining dims.
  ASSERT_TRUE(ctx.TileValue(chain.w1, 0, "B"));
  ASSERT_TRUE(ctx.TileValue(chain.w2, 1, "B"));
  ctx.Propagate();

  // The matmuls already loop over B: no further propagation is possible
  // (doubly-nested loops over one axis are invalid). The weights stay
  // sharded — exactly the FSDP prioritization of Section 5.2.3.
  EXPECT_EQ(ctx.nest(chain.mm1).size(), 2u);
  EXPECT_EQ(ctx.nest(chain.mm2).size(), 2u);
  EXPECT_EQ(ctx.LocalDims(chain.w1), (std::vector<int64_t>{2, 8}));
  EXPECT_EQ(ctx.LocalDims(chain.w2), (std::vector<int64_t>{8, 2}));
  // The blocked propagation is reported as a conflict diagnostic.
  EXPECT_FALSE(ctx.conflicts().empty());
}

TEST(PropagationTest, InferencePartialMatchTilesOtherOperand) {
  // Section 5.2.2: value-tiling only w2 on its contracting dim infers the
  // tiling of w1, through backward propagation across both matmuls.
  Chain chain = BuildChain();
  PartitionContext ctx(chain.func, PaperMesh());
  ASSERT_TRUE(ctx.TileValue(chain.w2, 0, "M"));
  ctx.Propagate();

  EXPECT_EQ(ctx.state(chain.w1).DimOfAxis("M"), 1);
  ASSERT_EQ(ctx.nest(chain.mm2).size(), 1u);
  EXPECT_TRUE(ctx.nest(chain.mm2)[0].contracting);
  ASSERT_EQ(ctx.nest(chain.mm1).size(), 1u);
  EXPECT_FALSE(ctx.nest(chain.mm1)[0].contracting);
}

TEST(PropagationTest, SimultaneousSeedsConflict) {
  // Section 5.2.3: tiling x(dim0) and w1(dim1) on the SAME axis before any
  // propagation matches two TMR entries at mm1 — a conflict, never
  // auto-resolved.
  Chain chain = BuildChain();
  PartitionContext ctx(chain.func, Mesh({{"B", 4}}));
  ASSERT_TRUE(ctx.TileValue(chain.x, 0, "B"));
  ASSERT_TRUE(ctx.TileValue(chain.w1, 1, "B"));
  ctx.Propagate();

  EXPECT_TRUE(ctx.nest(chain.mm1).empty());
  ASSERT_FALSE(ctx.conflicts().empty());
  EXPECT_EQ(ctx.conflicts()[0].op, chain.mm1);
  EXPECT_EQ(ctx.conflicts()[0].axis, "B");
}

TEST(PropagationTest, IncrementalityResolvesTheConflict) {
  // Same seeds applied across two tactics: BP wins at mm1, and the w1
  // sharding remains as a value tiling (sliced on use).
  Chain chain = BuildChain();
  PartitionContext ctx(chain.func, Mesh({{"B", 4}}));
  ASSERT_TRUE(ctx.TileValue(chain.x, 0, "B"));
  ctx.Propagate();
  ASSERT_TRUE(ctx.TileValue(chain.w1, 1, "B"));
  ctx.Propagate();

  ASSERT_EQ(ctx.nest(chain.mm1).size(), 1u);
  EXPECT_FALSE(ctx.nest(chain.mm1)[0].contracting);
  EXPECT_EQ(ctx.state(chain.w1).DimOfAxis("B"), 1);
}

TEST(PropagationTest, AtomicBlocksInference) {
  // Z2-style: the parameter is atomic, so an op combining it with a sharded
  // value must not adopt the sharding (the value is gathered instead).
  Module module;
  Func* func = module.AddFunc("main");
  Value* param = func->body().AddArg(TensorType({64, 8}), "param");
  Value* grad = func->body().AddArg(TensorType({64, 8}), "grad");
  OpBuilder builder(&func->body());
  Value* updated = builder.Sub(param, grad);
  builder.Return({updated});

  PartitionContext ctx(func, Mesh({{"B", 4}}));
  ctx.AtomicValue(param, "B");
  ASSERT_TRUE(ctx.TileValue(grad, 0, "B"));
  ctx.Propagate();

  EXPECT_TRUE(ctx.nest(updated->def()).empty());
  EXPECT_TRUE(ctx.state(param).tiles.empty());
  ASSERT_FALSE(ctx.conflicts().empty());
  EXPECT_NE(ctx.conflicts()[0].reason.find("atomic"), std::string::npos);
}

TEST(PropagationTest, TransposeConflictFromSection8) {
  // y = x @ transpose(x): sharding x(dim0) makes tx sharded on dim1, and
  // the matmul sees irreconcilable operand tilings.
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({256, 256}), "x");
  OpBuilder builder(&func->body());
  Value* tx = builder.Transpose(x, {1, 0});
  Value* y = builder.MatMul(x, tx);
  builder.Return({y});

  PartitionContext ctx(func, Mesh({{"M", 4}}));
  ASSERT_TRUE(ctx.TileValue(x, 0, "M"));
  ctx.Propagate();

  // The matmul cannot adopt M: lhs wants tile<0> (factor 0) while rhs wants
  // tile<1> (factor 1) — a multi-entry match.
  EXPECT_TRUE(ctx.nest(y->def()).empty());
  ASSERT_FALSE(ctx.conflicts().empty());
  EXPECT_EQ(ctx.conflicts()[0].op, y->def());
}

TEST(PropagationTest, TagAndAtomicResolveTransposeConflict) {
  // Section 8's resolution: tag the transpose and force replication.
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({256, 256}), "x");
  OpBuilder builder(&func->body());
  Value* tx = builder.Transpose(x, {1, 0});
  Value* tagged = builder.Tag(tx, "transposed");
  Value* y = builder.MatMul(x, tagged);
  builder.Return({y});

  PartitionContext ctx(func, Mesh({{"M", 4}}));
  Value* by_name = ctx.FindValue("transposed");
  ASSERT_EQ(by_name, tagged);
  ctx.AtomicValue(tagged, "M");
  ASSERT_TRUE(ctx.TileValue(x, 0, "M"));
  ctx.Propagate();

  // The matmul now adopts M on the lhs free dim only; the tagged transpose
  // stays replicated (it will be all_gathered at lowering).
  ASSERT_EQ(ctx.nest(y->def()).size(), 1u);
  EXPECT_FALSE(ctx.nest(y->def())[0].contracting);
  EXPECT_TRUE(ctx.state(tagged).tiles.empty());
}

TEST(PropagationTest, IndivisibleDimBlocks) {
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({6, 8}), "x");
  OpBuilder builder(&func->body());
  builder.Return({builder.Neg(x)});
  PartitionContext ctx(func, Mesh({{"B", 4}}));
  EXPECT_FALSE(ctx.TileValue(x, 0, "B"));  // 6 % 4 != 0
  EXPECT_TRUE(ctx.state(x).tiles.empty());
}

TEST(PropagationTest, DeepTilingTwoAxesSameDim) {
  // Appendix B.1.2: tiling the same dim over two axes divides it twice.
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({64, 8}), "x");
  OpBuilder builder(&func->body());
  Value* y = builder.Neg(x);
  builder.Return({y});

  PartitionContext ctx(func, Mesh({{"a", 4}, {"b", 2}}));
  ASSERT_TRUE(ctx.TileValue(x, 0, "a"));
  ctx.Propagate();
  ASSERT_TRUE(ctx.TileValue(x, 0, "b"));
  ctx.Propagate();

  EXPECT_EQ(ctx.LocalDims(x), (std::vector<int64_t>{8, 8}));
  EXPECT_EQ(ctx.nest(y->def()).size(), 2u);
  EXPECT_EQ(ctx.LocalDims(y), (std::vector<int64_t>{8, 8}));
}

TEST(PropagationTest, MultiAxisMatmulBothMeshAxes) {
  // Figure 2: batch on one axis, model on the other.
  Chain chain = BuildChain();
  PartitionContext ctx(chain.func, PaperMesh());
  ASSERT_TRUE(ctx.TileValue(chain.x, 0, "B"));
  ASSERT_TRUE(ctx.TileValue(chain.w1, 1, "M"));
  ctx.Propagate();
  // Different axes on different factors: no conflict.
  EXPECT_EQ(ctx.nest(chain.mm1).size(), 2u);
  EXPECT_EQ(ctx.nest(chain.mm2).size(), 2u);
  EXPECT_TRUE(ctx.conflicts().empty());
}

TEST(PropagationTest, ScatterAddEdgeShardingSum) {
  // GNS edge sharding: tiling the edge dim of updates turns the scatter
  // into a #sum (an AllReduce after lowering).
  Module module;
  Func* func = module.AddFunc("main");
  Value* ids = func->body().AddArg(TensorType({32}, DType::kS32), "ids");
  Value* updates = func->body().AddArg(TensorType({32, 8}), "updates");
  OpBuilder builder(&func->body());
  Value* nodes = builder.ScatterAdd(ids, updates, 16);
  builder.Return({nodes});

  PartitionContext ctx(func, Mesh({{"batch", 4}}));
  ASSERT_TRUE(ctx.TileValue(updates, 0, "batch"));
  ctx.Propagate();

  ASSERT_EQ(ctx.nest(nodes->def()).size(), 1u);
  EXPECT_TRUE(ctx.nest(nodes->def())[0].contracting);
  // The indices were inferred to be sharded alongside the updates.
  EXPECT_EQ(ctx.state(ids).DimOfAxis("batch"), 0);
}

TEST(PropagationTest, GatherEmbeddingDimPropagates) {
  // EMB: sharding the embedding table's d_model dim shards activations.
  Module module;
  Func* func = module.AddFunc("main");
  Value* table = func->body().AddArg(TensorType({128, 16}), "emb");
  Value* ids = func->body().AddArg(TensorType({4, 8}, DType::kS32), "ids");
  OpBuilder builder(&func->body());
  Value* acts = builder.Gather(table, ids);
  builder.Return({acts});

  PartitionContext ctx(func, Mesh({{"model", 2}}));
  ASSERT_TRUE(ctx.TileValue(table, 1, "model"));
  ctx.Propagate();

  ASSERT_EQ(ctx.nest(acts->def()).size(), 1u);
  EXPECT_EQ(ctx.LocalDims(acts), (std::vector<int64_t>{4, 8, 8}));
}

TEST(PropagationTest, GatherVocabDimIsBlocked) {
  Module module;
  Func* func = module.AddFunc("main");
  Value* table = func->body().AddArg(TensorType({128, 16}), "emb");
  Value* ids = func->body().AddArg(TensorType({4}, DType::kS32), "ids");
  OpBuilder builder(&func->body());
  Value* acts = builder.Gather(table, ids);
  builder.Return({acts});

  PartitionContext ctx(func, Mesh({{"model", 2}}));
  ASSERT_TRUE(ctx.TileValue(table, 0, "model"));
  ctx.Propagate();
  EXPECT_TRUE(ctx.nest(acts->def()).empty());
}

TEST(PropagationTest, PropagatesThroughLongElementwiseChain) {
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({64, 32}), "x");
  OpBuilder builder(&func->body());
  Value* v = x;
  for (int i = 0; i < 20; ++i) v = builder.Tanh(builder.Neg(v));
  builder.Return({v});

  PartitionContext ctx(func, Mesh({{"B", 8}}));
  ASSERT_TRUE(ctx.TileValue(x, 0, "B"));
  ctx.Propagate();
  EXPECT_EQ(ctx.LocalDims(v), (std::vector<int64_t>{8, 32}));
}

TEST(PropagationTest, BackwardThroughReduceFromResultSeed) {
  // Seeding the *result* of a reduce propagates backward to the operand.
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({16, 32}), "x");
  OpBuilder builder(&func->body());
  Value* r = builder.Reduce(x, {1}, "sum");
  builder.Return({r});

  PartitionContext ctx(func, Mesh({{"B", 4}}));
  ASSERT_TRUE(ctx.TileValue(r, 0, "B"));
  ctx.Propagate();
  EXPECT_EQ(ctx.state(x).DimOfAxis("B"), 0);
  EXPECT_EQ(ctx.nest(r->def()).size(), 1u);
}

// ---- Boundary-aware realization (PartitionOptions::boundary_realization) --

// Builds a normalization-statistics prefix:
//   x0:[4,16] -> x = add(x0,x0) -> sq = mul(x,x) -> stats = reduce(sq,{1}).
// The add keeps x0 the seed and x an *inferred* tile, matching how the
// residual stream (not a user seed) reaches the layernorm in the
// transformer (the seeded-operand gate in ChooseBoundaryRealization only
// protects explicit seeds).
struct StatChain {
  Module module;
  Func* func;
  Value* x0;
  Operation* stats;
};

StatChain BuildStatChain() {
  StatChain chain;
  chain.func = chain.module.AddFunc("main");
  chain.x0 = chain.func->body().AddArg(TensorType({4, 16}), "x0");
  OpBuilder builder(&chain.func->body());
  Value* x = builder.Add(chain.x0, chain.x0);
  Value* stats = builder.Reduce(builder.Mul(x, x), {1}, "sum");
  builder.Return({stats});
  chain.stats = stats->def();
  return chain;
}

TEST(FactorsTest, StatisticsReduceClassifier) {
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({4, 16}), "x");
  OpBuilder builder(&func->body());
  Value* variance = builder.Reduce(builder.Mul(x, x), {1}, "sum");
  Value* softmax_denominator = builder.Reduce(builder.Exp(x), {1}, "sum");
  Value* leading = builder.Reduce(x, {0}, "sum");
  builder.Return({variance, softmax_denominator, leading});

  bool second_moment = false;
  EXPECT_TRUE(IsStatisticsReduce(*variance->def(), &second_moment));
  EXPECT_TRUE(second_moment);
  EXPECT_TRUE(IsStatisticsReduce(*softmax_denominator->def(),
                                 &second_moment));
  EXPECT_FALSE(second_moment);
  // Leading-dim reductions are not statistics boundaries (weight-gradient
  // pattern): the all_reduce realization is their intended semantics.
  EXPECT_FALSE(IsStatisticsReduce(*leading->def()));
}

TEST(PropagationTest, PartialsStopAtStatisticsBoundary) {
  // With the default boundary policy, the tiled partial stops at the
  // normalization statistic: no contracting entry is recorded for the
  // reduce (lowering gathers its operand instead of all_reducing partials).
  StatChain chain = BuildStatChain();
  PartitionContext ctx(chain.func, PaperMesh());
  ctx.SetRealizationPolicy([&ctx](BoundarySite& site) {
    return ChooseBoundaryRealization(ctx, site);
  });
  ASSERT_TRUE(ctx.TileValue(chain.x0, 1, "M"));
  ctx.Propagate();
  EXPECT_TRUE(ctx.nest(chain.stats).empty());
  EXPECT_TRUE(ctx.state(chain.stats->result()).tiles.empty());
}

TEST(PropagationTest, StatisticsBoundaryAllReducedWithoutPolicy) {
  // Same chain without a policy (the boundary_realization ablation): the
  // historical behavior records the contracting entry, i.e. the statistic
  // is computed from partials and all_reduced.
  StatChain chain = BuildStatChain();
  PartitionContext ctx(chain.func, PaperMesh());
  ASSERT_TRUE(ctx.TileValue(chain.x0, 1, "M"));
  ctx.Propagate();
  ASSERT_EQ(ctx.nest(chain.stats).size(), 1u);
  EXPECT_TRUE(ctx.nest(chain.stats)[0].contracting);
  EXPECT_EQ(ctx.nest(chain.stats)[0].axis, "M");
}

TEST(PropagationTest, BoundaryCostPrefersGatherWhenOperandsAreSmall) {
  // a:[64,8] @ w:[8,512]: gathering the contract-tiled operands moves
  // (k-1)/k * (2KiB + 16KiB) while all_reducing the [64,512] result moves
  // 2 * (k-1)/k * 128KiB -- the gather realization wins.
  Module module;
  Func* func = module.AddFunc("main");
  Value* a = func->body().AddArg(TensorType({64, 8}), "a");
  Value* w = func->body().AddArg(TensorType({8, 512}), "w");
  OpBuilder builder(&func->body());
  Value* y = builder.MatMul(a, w);
  builder.Return({y});

  PartitionContext ctx(func, PaperMesh());
  ASSERT_TRUE(ctx.TileValue(w, 0, "M"));
  BoundarySite site;
  site.op = y->def();
  site.axis = "M";
  site.factor = 2;  // the contracting factor of MatMulFactorsMatchFigure4
  RealizationCost cost = ScoreBoundaryRealization(ctx, site);
  EXPECT_LT(cost.gather, cost.reduce);
  // No divisible result dim suggested: the scatter realization is not
  // available at this site.
  EXPECT_TRUE(std::isinf(cost.scatter));
  // With a scatter dim, reduce_scatter moves half the all_reduce bytes.
  site.scatter_dim = 0;
  cost = ScoreBoundaryRealization(ctx, site);
  EXPECT_DOUBLE_EQ(cost.scatter, cost.reduce / 2);
}

TEST(PropagationTest, BoundaryCostPrefersReduceWhenResultIsSmall) {
  // a:[4,512] @ w:[512,4]: the [4,4] result is tiny next to the 16KiB of
  // contract-tiled operands -- all_reducing partials wins.
  Module module;
  Func* func = module.AddFunc("main");
  Value* a = func->body().AddArg(TensorType({4, 512}), "a");
  Value* w = func->body().AddArg(TensorType({512, 4}), "w");
  OpBuilder builder(&func->body());
  Value* y = builder.MatMul(a, w);
  builder.Return({y});

  PartitionContext ctx(func, PaperMesh());
  ASSERT_TRUE(ctx.TileValue(w, 0, "M"));
  BoundarySite site;
  site.op = y->def();
  site.axis = "M";
  site.factor = 2;
  RealizationCost cost = ScoreBoundaryRealization(ctx, site);
  EXPECT_LT(cost.reduce, cost.gather);
}

TEST(PropagationTest, BoundaryAblationRestoresAllReduceOnlyEmbRow) {
  // The PartitionOptions::boundary_realization ablation on the paper's T32
  // configuration: standalone EMB falls back to the historical realization
  // where every boundary is an all_reduce -- 0 AG / 355 AR / 0 RS / 0 A2A
  // (11 per layer + the two final-norm statistics + the logits partial).
  TransformerConfig config = TransformerConfig::T32Scaled();
  Module module;
  Func* step = BuildTransformerTrainingStep(module, config);
  PartitionContext ctx(step, Mesh({{"batch", 16}, {"model", 2}}));
  PartitionOptions options;
  options.per_tactic_reports = false;
  options.use_cache = false;
  options.boundary_realization = false;
  PartitionResult result =
      PartirJitOrError(ctx, {schedules::TransformerEMB()}, options).value();
  EXPECT_EQ(result.collectives.all_gather, 0);
  EXPECT_EQ(result.collectives.all_reduce, 355);
  EXPECT_EQ(result.collectives.reduce_scatter, 0);
  EXPECT_EQ(result.collectives.all_to_all, 0);
}

TEST(PropagationTest, BoundaryRealizationEmbCountsScaleWithDepth) {
  // The boundary-realized standalone-EMB lowering produces 8 all_gathers,
  // 6 all_reduces, and 4 reduce_scatters per layer plus a constant tail
  // (the packed final-norm statistic + logits all_reduce and the loss
  // reductions): L layers give 8L / 6L+1 / 4L / 0. At the paper's 32
  // layers this is Table 3's 256/193/128/0 (covered by the benchmark);
  // two layers keep the regression fast.
  TransformerConfig config = TransformerConfig::T32Scaled();
  config.num_layers = 2;
  Module module;
  Func* step = BuildTransformerTrainingStep(module, config);
  PartitionContext ctx(step, Mesh({{"batch", 16}, {"model", 2}}));
  PartitionOptions options;
  options.per_tactic_reports = false;
  options.use_cache = false;
  PartitionResult result =
      PartirJitOrError(ctx, {schedules::TransformerEMB()}, options).value();
  EXPECT_EQ(result.collectives.all_gather, 16);
  EXPECT_EQ(result.collectives.all_reduce, 13);
  EXPECT_EQ(result.collectives.reduce_scatter, 8);
  EXPECT_EQ(result.collectives.all_to_all, 0);
}

TEST(PropagationTest, SeededContractOperandKeepsAllReduceRealization) {
  // An explicitly seeded contract operand (Megatron row-sharded weight,
  // the tied embedding of the logits projection) expresses intent to
  // compute with partials: the default policy keeps the all_reduce
  // realization even where a gather would be cheaper.
  Module module;
  Func* func = module.AddFunc("main");
  Value* a = func->body().AddArg(TensorType({64, 8}), "a");
  Value* w = func->body().AddArg(TensorType({8, 512}), "w");
  OpBuilder builder(&func->body());
  Value* y = builder.MatMul(a, w);
  builder.Return({y});

  PartitionContext ctx(func, PaperMesh());
  ctx.SetRealizationPolicy([&ctx](BoundarySite& site) {
    return ChooseBoundaryRealization(ctx, site);
  });
  ASSERT_TRUE(ctx.TileValue(w, 0, "M"));  // user seed on the contract dim
  ctx.Propagate();
  ASSERT_EQ(ctx.nest(y->def()).size(), 1u);
  EXPECT_TRUE(ctx.nest(y->def())[0].contracting);
}

}  // namespace
}  // namespace partir
