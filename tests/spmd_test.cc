// Tests for SPMD lowering, collective fusion, and end-to-end equivalence of
// the device-local program with the unpartitioned program under the
// multi-device runtime, RunSpmd (the executable Appendix C theorem).
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/context.h"
#include "src/exec/device_program.h"
#include "src/interp/interpreter.h"
#include "src/ir/builder.h"
#include "src/ir/printer.h"
#include "src/ir/passes.h"
#include "src/spmd/collectives.h"
#include "src/spmd/lowering.h"
#include "src/spmd/optimize.h"
#include "src/spmd/spmd_interpreter.h"

namespace partir {
namespace {

constexpr float kTol = 2e-3f;

// Lowers, optimizes, runs on all devices, and compares with the reference.
void ExpectSpmdEquivalent(PartitionContext& ctx, uint64_t seed,
                          float index_modulus = 0.0f) {
  SpmdModule spmd = LowerToSpmd(ctx);
  OptimizeSpmd(spmd);
  std::vector<Tensor> inputs =
      MakeRandomInputs(*ctx.func(), seed, index_modulus);
  std::vector<Tensor> want = Evaluate(*ctx.func(), inputs);
  std::vector<Tensor> got = RunSpmd(spmd, inputs).value();
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].dims(), got[i].dims());
    EXPECT_LT(Tensor::MaxAbsDiff(want[i], got[i]), kTol)
        << "output " << i << " diverged;\n"
        << Print(*spmd.module);
  }
}

struct Chain {
  Module module;
  Func* func;
  Value* x;
  Value* w1;
  Value* w2;
  Value* out;
};

Chain BuildChain() {
  Chain chain;
  chain.func = chain.module.AddFunc("main");
  chain.x = chain.func->body().AddArg(TensorType({16, 8}), "x");
  chain.w1 = chain.func->body().AddArg(TensorType({8, 12}), "w1");
  chain.w2 = chain.func->body().AddArg(TensorType({12, 8}), "w2");
  OpBuilder builder(&chain.func->body());
  Value* x1 = builder.MatMul(chain.x, chain.w1);
  chain.out = builder.MatMul(x1, chain.w2);
  builder.Return({chain.out});
  return chain;
}

TEST(SpmdLoweringTest, BatchParallelLocalTypes) {
  Chain chain = BuildChain();
  PartitionContext ctx(chain.func, Mesh({{"B", 4}, {"M", 2}}));
  ASSERT_TRUE(ctx.TileValue(chain.x, 0, "B"));
  ctx.Propagate();
  SpmdModule spmd = LowerToSpmd(ctx);
  OptimizeSpmd(spmd);

  // Device-local x is 4x8 (Listing 2); weights stay full.
  Func* main = spmd.main();
  EXPECT_EQ(main->body().arg(0)->tensor_type(), TensorType({4, 8}));
  EXPECT_EQ(main->body().arg(1)->tensor_type(), TensorType({8, 12}));
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.all_gather, 0);
  EXPECT_EQ(stats.all_reduce, 0);
  ExpectSpmdEquivalent(ctx, 200);
}

TEST(SpmdLoweringTest, MegatronIntroducesOneAllReduce) {
  // Listing 3: BP+MP. The second matmul contracts over the M-sharded dim.
  Chain chain = BuildChain();
  PartitionContext ctx(chain.func, Mesh({{"B", 4}, {"M", 2}}));
  ASSERT_TRUE(ctx.TileValue(chain.x, 0, "B"));
  ctx.Propagate();
  ASSERT_TRUE(ctx.TileValue(chain.w1, 1, "M"));
  ctx.Propagate();
  SpmdModule spmd = LowerToSpmd(ctx);
  OptimizeSpmd(spmd);

  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.all_reduce, 1);
  EXPECT_EQ(stats.all_gather, 0);
  EXPECT_EQ(spmd.main()->body().arg(1)->tensor_type(), TensorType({8, 6}));
  EXPECT_EQ(spmd.main()->body().arg(2)->tensor_type(), TensorType({6, 8}));
  ExpectSpmdEquivalent(ctx, 201);
}

TEST(SpmdLoweringTest, FsdpGathersParametersAtUse) {
  // Listing 4: BP+MP+Z3. The weights are additionally sharded over B and
  // must be all_gathered before their (single) use.
  Chain chain = BuildChain();
  PartitionContext ctx(chain.func, Mesh({{"B", 4}, {"M", 2}}));
  ASSERT_TRUE(ctx.TileValue(chain.x, 0, "B"));
  ctx.Propagate();
  ASSERT_TRUE(ctx.TileValue(chain.w1, 1, "M"));
  ctx.Propagate();
  ASSERT_TRUE(ctx.TileValue(chain.w1, 0, "B"));
  ASSERT_TRUE(ctx.TileValue(chain.w2, 1, "B"));
  ctx.Propagate();
  SpmdModule spmd = LowerToSpmd(ctx);
  OptimizeSpmd(spmd);

  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.all_gather, 2);  // one per parameter
  EXPECT_EQ(stats.all_reduce, 1);  // Megatron reduction
  // w1 local: 8x12 / (B on dim0, M on dim1) = 2x6.
  EXPECT_EQ(spmd.main()->body().arg(1)->tensor_type(), TensorType({2, 6}));
  ExpectSpmdEquivalent(ctx, 202);
}

TEST(SpmdLoweringTest, OutputShardingTurnsAllReduceIntoReduceScatter) {
  // Section 2.4 "ES strategy": sharding the return value on the model axis
  // converts the all_reduce into a reduce_scatter.
  Chain chain = BuildChain();
  PartitionContext ctx(chain.func, Mesh({{"B", 4}, {"M", 2}}));
  ASSERT_TRUE(ctx.TileValue(chain.x, 0, "B"));
  ctx.Propagate();
  ASSERT_TRUE(ctx.TileValue(chain.w1, 1, "M"));
  ctx.Propagate();
  // Shard the output activation on M along its feature dim.
  ASSERT_TRUE(ctx.TileValue(chain.out, 1, "M"));
  SpmdModule spmd = LowerToSpmd(ctx);
  OptimizeSpmd(spmd);

  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.reduce_scatter, 1);
  EXPECT_EQ(stats.all_reduce, 0);
  ExpectSpmdEquivalent(ctx, 203);
}

TEST(SpmdLoweringTest, AtomicZ2GathersShardedDelta) {
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
  SpmdModule spmd = LowerToSpmd(ctx);
  OptimizeSpmd(spmd);

  // The sharded grad must be gathered to update the replicated param.
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.all_gather, 1);
  ExpectSpmdEquivalent(ctx, 204);
}

TEST(SpmdLoweringTest, PerUseGatherIsNotCSEd) {
  // A parameter used twice (forward and "backward") is gathered twice —
  // the FSDP re-gather (Design decision #4, paper Section 2.3).
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({16, 8}), "x");
  Value* w = func->body().AddArg(TensorType({8, 8}), "w");
  OpBuilder builder(&func->body());
  Value* h1 = builder.MatMul(x, w);
  Value* h2 = builder.MatMul(h1, w);  // second use of w
  builder.Return({h2});

  PartitionContext ctx(func, Mesh({{"B", 4}}));
  ASSERT_TRUE(ctx.TileValue(x, 0, "B"));
  ctx.Propagate();
  ASSERT_TRUE(ctx.TileValue(w, 0, "B"));  // Z3-style weight sharding
  ctx.Propagate();
  SpmdModule spmd = LowerToSpmd(ctx);
  OptimizeSpmd(spmd);
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.all_gather, 2);
  ExpectSpmdEquivalent(ctx, 205);
}

TEST(SpmdLoweringTest, PlacementMoveEmitsAllToAll) {
  // A value realized tiled on dim 1 but required tiled on dim 0 by its
  // consumer moves the shard dim: an all_to_all (the redistribution of
  // Appendix C.5 / Figure 16). We arrange it via a concatenate whose concat
  // dim blocks propagation of the producer's tiling.
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({8, 8}), "x");
  Value* w = func->body().AddArg(TensorType({8, 8}), "w");
  Value* y = func->body().AddArg(TensorType({8, 16}), "y");
  OpBuilder builder(&func->body());
  Value* p = builder.MatMul(x, w);
  Value* c = builder.Concatenate({p, p}, 1);  // dim 1 concat: blocked there
  Value* sum = builder.Add(c, y);
  builder.Return({sum});

  PartitionContext ctx(func, Mesh({{"a", 2}}));
  // Tactic 1: shard w's columns -> p realized tiled on dim 1.
  ASSERT_TRUE(ctx.TileValue(w, 1, "a"));
  ctx.Propagate();
  // Tactic 2: shard y's rows -> the add (and backward, the concat) adopt
  // tiling on dim 0; p is then *required* on dim 0 but realized on dim 1.
  ASSERT_TRUE(ctx.TileValue(y, 0, "a"));
  ctx.Propagate();
  SpmdModule spmd = LowerToSpmd(ctx);
  OptimizeSpmd(spmd);
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_GE(stats.all_to_all, 1);
  ExpectSpmdEquivalent(ctx, 206);
}

TEST(SpmdInterpreterTest, ShardUnshardRoundTrip) {
  Mesh mesh({{"a", 2}, {"b", 2}});
  Tensor global = Tensor::Random({8, 4}, 77);
  ValueSharding sharding{AxesPerDim{{"a"}, {"b"}}};
  PerDevice shards = ShardTensor(global, sharding, mesh);
  EXPECT_EQ(shards[0].dims(), (std::vector<int64_t>{4, 2}));
  Tensor back = UnshardTensor(shards, sharding, mesh);
  EXPECT_LT(Tensor::MaxAbsDiff(back, global), 1e-6f);
}

TEST(SpmdInterpreterTest, DeepShardingTwoAxesOneDim) {
  Mesh mesh({{"a", 2}, {"b", 2}});
  Tensor global = Tensor::Random({8, 4}, 78);
  ValueSharding sharding{AxesPerDim{{"a", "b"}, {}}};
  PerDevice shards = ShardTensor(global, sharding, mesh);
  EXPECT_EQ(shards[0].dims(), (std::vector<int64_t>{2, 4}));
  Tensor back = UnshardTensor(shards, sharding, mesh);
  EXPECT_LT(Tensor::MaxAbsDiff(back, global), 1e-6f);
}

TEST(SpmdInterpreterTest, ReplicaMismatchIsDetected) {
  Mesh mesh({{"a", 2}});
  ValueSharding replicated{AxesPerDim{{}, {}}};
  PerDevice shards = {Tensor({2, 2}, {1, 2, 3, 4}),
                      Tensor({2, 2}, {9, 9, 9, 9})};
  EXPECT_DEATH(UnshardTensor(shards, replicated, mesh), "replica mismatch");
}

TEST(SpmdOptimizeTest, GatherOfSliceCancels) {
  Mesh mesh({{"a", 4}});
  Module module;
  Func* func = module.AddFunc("main");
  Value* x = func->body().AddArg(TensorType({16, 4}), "x");
  OpBuilder builder(&func->body());
  builder.SetMesh(&mesh);
  Value* sliced = builder.AllSlice(x, {{"a"}, {}});
  Value* gathered = builder.AllGather(sliced, {{"a"}, {}});
  builder.Return({gathered});

  SpmdModule spmd;
  spmd.module = std::make_unique<Module>();
  CloneFunc(*func, *spmd.module, "main", nullptr);
  spmd.mesh = mesh;
  OptimizeSpmd(spmd);
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.all_gather, 0);
  EXPECT_EQ(stats.all_slice, 0);
}

TEST(SpmdOptimizeTest, SliceOfSplatConstantShrinks) {
  Mesh mesh({{"a", 4}});
  SpmdModule spmd;
  spmd.module = std::make_unique<Module>();
  spmd.mesh = mesh;
  Func* func = spmd.module->AddFunc("main");
  OpBuilder builder(&func->body());
  builder.SetMesh(&mesh);
  Value* c = builder.Constant(1.0, {16, 4});
  Value* sliced = builder.AllSlice(c, {{"a"}, {}});
  builder.Return({sliced});
  OptimizeSpmd(spmd);
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.all_slice, 0);
  // The function now returns a local 4x4 constant.
  Value* result = spmd.main()->results()[0];
  EXPECT_EQ(result->tensor_type(), TensorType({4, 4}));
}

TEST(SpmdOptimizeTest, GatherSliceAcrossDimsBecomesAllToAll) {
  Mesh mesh({{"a", 2}});
  SpmdModule spmd;
  spmd.module = std::make_unique<Module>();
  spmd.mesh = mesh;
  Func* func = spmd.module->AddFunc("main");
  Value* x = func->body().AddArg(TensorType({4, 4}), "x");
  OpBuilder builder(&func->body());
  builder.SetMesh(&mesh);
  Value* gathered = builder.AllGather(x, {{"a"}, {}});
  Value* sliced = builder.AllSlice(gathered, {{}, {"a"}});
  builder.Return({sliced});
  OptimizeSpmd(spmd);
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.all_to_all, 1);
  EXPECT_EQ(stats.all_gather, 0);
  EXPECT_EQ(stats.all_slice, 0);
}

// ---- Reduce-scatter formation (the form-reduce-scatter pass family) ----

/** Builds an empty device-local module over `mesh` with a builder wired to
 *  its main function. */
SpmdModule EmptySpmd(const Mesh& mesh, OpBuilder& builder) {
  SpmdModule spmd;
  spmd.module = std::make_unique<Module>();
  spmd.mesh = mesh;
  spmd.module->AddFunc("main");
  builder.SetInsertionBlock(&spmd.main()->body());
  builder.SetMesh(&mesh);
  return spmd;
}

TEST(SpmdOptimizeTest, ReduceScatterFormsAcrossPartialAxisOverlap) {
  // The embedding-style multi-axis chain: a gradient all_reduced over axis
  // "a" but sliced to a parameter sharded over "a" *and* "b". The sliced
  // axis outside the reduction survives as a residual all_slice; the
  // overlap still forms a reduce_scatter.
  Mesh mesh({{"a", 2}, {"b", 2}});
  OpBuilder builder(nullptr);
  SpmdModule spmd = EmptySpmd(mesh, builder);
  Value* x = spmd.main()->body().AddArg(TensorType({8, 8}), "x");
  Value* reduced = builder.AllReduce(x, {"a"}, "sum");
  Value* sliced = builder.AllSlice(reduced, {{"a"}, {"b"}});
  builder.Return({sliced});

  EXPECT_GT(RunSpmdPeephole(
                spmd, kRewriteReduceScatter | kRewriteReduceScatterPartial),
            0);
  EliminateDeadCode(*spmd.mutable_main());
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.all_reduce, 0);
  EXPECT_EQ(stats.reduce_scatter, 1);
  EXPECT_EQ(stats.all_slice, 1);  // residual slice over the unreduced axis
  EXPECT_EQ(spmd.main()->results()[0]->tensor_type(), TensorType({4, 4}));
}

TEST(SpmdOptimizeTest, PartialOverlapKeepsResidualAllReduce) {
  // Reduced over {a, c}, sliced over {a, b}: reduce_scatter on the overlap
  // {a}, residual all_reduce on {c}, residual all_slice on {b}.
  Mesh mesh({{"a", 2}, {"b", 2}, {"c", 2}});
  OpBuilder builder(nullptr);
  SpmdModule spmd = EmptySpmd(mesh, builder);
  Value* x = spmd.main()->body().AddArg(TensorType({8, 8}), "x");
  Value* reduced = builder.AllReduce(x, {"a", "c"}, "sum");
  Value* sliced = builder.AllSlice(reduced, {{"a"}, {"b"}});
  builder.Return({sliced});

  OptimizeSpmd(spmd);
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.reduce_scatter, 1);
  EXPECT_EQ(stats.all_reduce, 1);
  EXPECT_EQ(stats.all_slice, 1);
  EXPECT_EQ(spmd.main()->results()[0]->tensor_type(), TensorType({4, 4}));
}

TEST(SpmdOptimizeTest, PartialOverlapIsGatedBehindItsRewriteBit) {
  // Without kRewriteReduceScatterPartial the legacy subset-only behavior
  // holds: a partially overlapping chain is left alone.
  Mesh mesh({{"a", 2}, {"b", 2}});
  OpBuilder builder(nullptr);
  SpmdModule spmd = EmptySpmd(mesh, builder);
  Value* x = spmd.main()->body().AddArg(TensorType({8, 8}), "x");
  Value* reduced = builder.AllReduce(x, {"a"}, "sum");
  Value* sliced = builder.AllSlice(reduced, {{"a"}, {"b"}});
  builder.Return({sliced});

  EXPECT_EQ(RunSpmdPeephole(spmd, kRewriteReduceScatter), 0);
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.all_reduce, 1);
  EXPECT_EQ(stats.reduce_scatter, 0);
}

TEST(SpmdOptimizeTest, AdjacentAllReducesMergeAndFullyScatter) {
  // all_reduce("b") of all_reduce("a") merges into one multi-axis
  // all_reduce, which the following two-axis slice turns into a single
  // reduce_scatter — the chain across multiple mesh axes.
  Mesh mesh({{"a", 2}, {"b", 2}});
  OpBuilder builder(nullptr);
  SpmdModule spmd = EmptySpmd(mesh, builder);
  Value* x = spmd.main()->body().AddArg(TensorType({8, 8}), "x");
  Value* ar_a = builder.AllReduce(x, {"a"}, "sum");
  Value* ar_b = builder.AllReduce(ar_a, {"b"}, "sum");
  Value* sliced = builder.AllSlice(ar_b, {{"a"}, {"b"}});
  builder.Return({sliced});

  OptimizeSpmd(spmd);
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.all_reduce, 0);
  EXPECT_EQ(stats.reduce_scatter, 1);
  EXPECT_EQ(stats.all_slice, 0);
  EXPECT_EQ(spmd.main()->results()[0]->tensor_type(), TensorType({4, 4}));
}

TEST(SpmdOptimizeTest, SubsetFormationUnchangedByPartialBit) {
  // The legacy subset case (sliced axes all reduced) forms the same
  // reduce_scatter + leftover all_reduce with or without the partial bit.
  for (unsigned mask :
       {kRewriteReduceScatter,
        kRewriteReduceScatter | kRewriteReduceScatterPartial}) {
    Mesh mesh({{"a", 2}, {"b", 2}});
    OpBuilder builder(nullptr);
    SpmdModule spmd = EmptySpmd(mesh, builder);
    Value* x = spmd.main()->body().AddArg(TensorType({8, 8}), "x");
    Value* reduced = builder.AllReduce(x, {"a", "b"}, "sum");
    Value* sliced = builder.AllSlice(reduced, {{"a"}, {}});
    builder.Return({sliced});
    EXPECT_GT(RunSpmdPeephole(spmd, mask), 0);
    EliminateDeadCode(*spmd.mutable_main());
    CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
    EXPECT_EQ(stats.reduce_scatter, 1) << "mask " << mask;
    EXPECT_EQ(stats.all_reduce, 1) << "mask " << mask;  // leftover {b}
  }
}

TEST(SpmdOptimizeTest, SweepRewritesInPlace) {
  // A sweep that rewrites keeps the Module object and every op no rewrite
  // matched, rewires their operands to the replacements, and leaves no
  // stale collective plan or compiled device program behind.
  Mesh mesh({{"a", 2}});
  OpBuilder builder(nullptr);
  SpmdModule spmd = EmptySpmd(mesh, builder);
  Value* x = spmd.main()->body().AddArg(TensorType({8, 8}), "x");
  Value* reduced = builder.AllReduce(x, {"a"}, "sum");
  Value* sliced = builder.AllSlice(reduced, {{"a"}, {}});
  Value* local = builder.Tanh(sliced);
  builder.Return({local, reduced});
  ValueSharding replicated{AxesPerDim{{}, {}}};
  spmd.input_shardings = {replicated};
  spmd.output_shardings = {ValueSharding{AxesPerDim{{"a"}, {}}}, replicated};
  spmd.plan = BuildCollectivePlan(spmd.mesh, *spmd.module);
  spmd.exec_program = exec::CompileDeviceProgram(spmd).value();

  const Module* module = spmd.module.get();
  std::vector<const Operation*> unmatched;
  for (const auto& op : spmd.main()->body().ops()) {
    if (op->kind() != OpKind::kAllSlice) unmatched.push_back(op.get());
  }
  EXPECT_EQ(RunSpmdPeephole(spmd, kRewriteAllSpmd), 1);
  EXPECT_EQ(spmd.module.get(), module);
  EXPECT_EQ(spmd.plan, nullptr);
  EXPECT_EQ(spmd.exec_program, nullptr);
  std::vector<const Operation*> after;
  for (const auto& op : spmd.main()->body().ops()) after.push_back(op.get());
  for (size_t i = 0; i < unmatched.size(); ++i) {
    // ASSERT: an op that was not kept is gone, so it must not be read.
    ASSERT_NE(std::find(after.begin(), after.end(), unmatched[i]),
              after.end())
        << "unmatched op #" << i << " was not kept in place";
  }
  // The tanh now reads the reduce_scatter that replaced the slice.
  const Operation* tanh = unmatched[1];
  ASSERT_EQ(tanh->kind(), OpKind::kTanh);
  ASSERT_NE(tanh->operand(0)->def(), nullptr);
  EXPECT_EQ(tanh->operand(0)->def()->kind(), OpKind::kReduceScatter);
  EXPECT_EQ(spmd.main()->results()[1], reduced);
}

TEST(SpmdOptimizeTest, OptimizeKeepsLoopRegions) {
  // A device-local module still carrying loop regions: a tile loop whose
  // body reads a no-op all_gather the sweep removes, a sum loop with a
  // nested tile loop, and an any loop. Optimizing must keep every loop
  // body and rewire the region's read to the gather's operand. (Neither
  // engine runs such a module; exec_backend_test checks the refusal.)
  Mesh mesh({{"B", 2}});
  OpBuilder builder(nullptr);
  SpmdModule spmd = EmptySpmd(mesh, builder);
  Value* x = spmd.main()->body().AddArg(TensorType({8, 4}), "x");
  Value* w = spmd.main()->body().AddArg(TensorType({4, 6}), "w");
  Value* gathered = builder.AllGather(x, {{}, {}});
  Operation* tile = builder.Loop("T", 4, "tile", 0, TensorType({8, 6}));
  Operation* slice = nullptr;
  {
    Block& body = tile->region(0).block();
    OpBuilder inner(&body);
    Value* xs = inner.PSlice(gathered, body.arg(0), 0);
    slice = xs->def();
    Value* h = inner.MatMul(xs, w);
    inner.Yield(&body, {inner.Tanh(inner.Mul(h, h))});
  }
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

  EXPECT_EQ(OptimizeSpmd(spmd), 1);  // the no-op gather
  int loops = 0;
  WalkOps(spmd.main()->body(), [&](const Operation& op) {
    if (op.kind() != OpKind::kLoop) return;
    ++loops;
    ASSERT_EQ(op.num_regions(), 1) << "loop lost its region";
    EXPECT_GT(op.region().block().num_ops(), 0) << "loop lost its body";
  });
  ASSERT_EQ(loops, 4);
  EXPECT_EQ(slice->operand(0), x);
  EXPECT_EQ(CountCollectives(*spmd.module, spmd.mesh).all_gather, 0);
}

// End-to-end property sweep: model x schedule x mesh. Every partitioned
// program must match the reference bit-for-bit (within float tolerance).
struct E2eParam {
  const char* name;
  int64_t b_size;
  int64_t m_size;
  int schedule;  // 0=BP, 1=BP+MP, 2=BP+MP+Z3, 3=MP only, 4=output-sharded
};

class SpmdE2eTest : public ::testing::TestWithParam<E2eParam> {};

TEST_P(SpmdE2eTest, PartitionedEqualsUnpartitioned) {
  const E2eParam& param = GetParam();
  Chain chain = BuildChain();
  PartitionContext ctx(chain.func,
                       Mesh({{"B", param.b_size}, {"M", param.m_size}}));
  switch (param.schedule) {
    case 0:
      ASSERT_TRUE(ctx.TileValue(chain.x, 0, "B"));
      ctx.Propagate();
      break;
    case 1:
      ASSERT_TRUE(ctx.TileValue(chain.x, 0, "B"));
      ctx.Propagate();
      ASSERT_TRUE(ctx.TileValue(chain.w1, 1, "M"));
      ctx.Propagate();
      break;
    case 2:
      ASSERT_TRUE(ctx.TileValue(chain.x, 0, "B"));
      ctx.Propagate();
      ASSERT_TRUE(ctx.TileValue(chain.w1, 1, "M"));
      ctx.Propagate();
      ASSERT_TRUE(ctx.TileValue(chain.w1, 0, "B"));
      ASSERT_TRUE(ctx.TileValue(chain.w2, 1, "B"));
      ctx.Propagate();
      break;
    case 3:
      ASSERT_TRUE(ctx.TileValue(chain.w1, 1, "M"));
      ctx.Propagate();
      break;
    case 4:
      ASSERT_TRUE(ctx.TileValue(chain.x, 0, "B"));
      ctx.Propagate();
      ASSERT_TRUE(ctx.TileValue(chain.w1, 1, "M"));
      ctx.Propagate();
      ASSERT_TRUE(ctx.TileValue(chain.out, 1, "M"));
      break;
  }
  ExpectSpmdEquivalent(ctx, 300 + param.schedule);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, SpmdE2eTest,
    ::testing::Values(E2eParam{"bp_4x2", 4, 2, 0}, E2eParam{"bp_2x2", 2, 2, 0},
                      E2eParam{"bpmp_4x2", 4, 2, 1},
                      E2eParam{"bpmp_2x4", 2, 4, 1},
                      E2eParam{"fsdp_4x2", 4, 2, 2},
                      E2eParam{"fsdp_2x2", 2, 2, 2},
                      E2eParam{"mp_4x2", 4, 2, 3},
                      E2eParam{"es_4x2", 4, 2, 4},
                      E2eParam{"bp_16x1", 16, 1, 0},
                      E2eParam{"fsdp_8x1", 8, 1, 2}),
    [](const ::testing::TestParamInfo<E2eParam>& info) {
      return info.param.name;
    });

// Graph block with gather/scatter, lowered end-to-end.
TEST(SpmdE2eExtraTest, EdgeShardedGraphBlock) {
  Module module;
  Func* func = module.AddFunc("main");
  Value* nodes = func->body().AddArg(TensorType({10, 6}), "nodes");
  Value* senders =
      func->body().AddArg(TensorType({24}, DType::kS32), "senders");
  Value* w = func->body().AddArg(TensorType({6, 6}), "w");
  OpBuilder builder(&func->body());
  Value* edge_feats = builder.Gather(nodes, senders);
  Value* messages = builder.Tanh(builder.MatMul(edge_feats, w));
  Value* aggregated = builder.ScatterAdd(senders, messages, 10);
  Value* updated = builder.Add(nodes, aggregated);
  builder.Return({updated});

  PartitionContext ctx(func, Mesh({{"batch", 4}}));
  ASSERT_TRUE(ctx.TileValue(senders, 0, "batch"));
  ctx.Propagate();
  SpmdModule spmd = LowerToSpmd(ctx);
  OptimizeSpmd(spmd);
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  // One AllReduce for the scatter partials (edge sharding).
  EXPECT_EQ(stats.all_reduce, 1);
  ExpectSpmdEquivalent(ctx, 400, /*index_modulus=*/10.0f);
}

TEST(SpmdE2eExtraTest, ConvolutionChannelsSharded) {
  Module module;
  Func* func = module.AddFunc("main");
  Value* img = func->body().AddArg(TensorType({4, 6, 6, 4}), "img");
  Value* f1 = func->body().AddArg(TensorType({3, 3, 4, 8}), "f1");
  Value* f2 = func->body().AddArg(TensorType({3, 3, 8, 4}), "f2");
  OpBuilder builder(&func->body());
  Value* h = builder.Convolution(img, f1);
  Value* out = builder.Convolution(h, f2);
  builder.Return({out});

  PartitionContext ctx(func, Mesh({{"B", 2}, {"M", 2}}));
  ASSERT_TRUE(ctx.TileValue(img, 0, "B"));
  ctx.Propagate();
  ASSERT_TRUE(ctx.TileValue(f1, 3, "M"));
  ctx.Propagate();
  SpmdModule spmd = LowerToSpmd(ctx);
  OptimizeSpmd(spmd);
  // Megatron-style conv sharding: the second conv contracts the sharded
  // channel dim -> one AllReduce.
  CollectiveStats stats = CountCollectives(*spmd.module, spmd.mesh);
  EXPECT_EQ(stats.all_reduce, 1);
  ExpectSpmdEquivalent(ctx, 401);
}

}  // namespace
}  // namespace partir
