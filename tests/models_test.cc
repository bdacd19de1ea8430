// Model-zoo tests: parameter-count structure, end-to-end SPMD equivalence
// of partitioned training steps, and the analytic collective counts that
// Table 3 is built from, verified on small configurations:
//   BP        : AR = #params + 1 (one AllReduce per gradient + the loss)
//   BP+MP     : + 4 AR per layer (Megatron forward+backward)
//   BP+MP+Z2  : 4L+1 gradients become ReduceScatters, 1 AllGather each
//   BP+MP+Z3  : additionally ~2 AllGathers per sharded parameter use
//   ES (GNS)  : AllReduces for scatter aggregations + sharded-grad sums
//   MQ (IT32) : 2 All2Alls per layer per decode step
#include <cmath>

#include <gtest/gtest.h>

#include "src/core/materialize.h"
#include "src/interp/interpreter.h"
#include "src/ir/verifier.h"
#include "src/models/gns.h"
#include "src/models/schedules.h"
#include "src/models/transformer.h"
#include "src/models/unet.h"
#include "src/spmd/spmd_interpreter.h"

namespace partir {
namespace {

TransformerConfig TinyTransformer() {
  TransformerConfig config;
  config.num_layers = 2;
  config.d_model = 16;
  config.num_heads = 4;
  config.head_dim = 4;
  config.ffw_size = 32;
  config.vocab = 32;
  config.batch = 4;
  config.seq = 4;
  return config;
}

PartitionResult RunSchedule(Func* func, const Mesh& mesh,
                            const std::vector<Tactic>& schedule) {
  PartitionContext ctx(func, mesh);
  return PartirJitOrError(ctx, schedule).value();
}

TEST(TransformerModelTest, ParamCountIs9PerBlockPlusEmbedding) {
  TransformerConfig config = TinyTransformer();
  Module module;
  Func* loss = BuildTransformerLoss(module, config);
  // args = params + tokens + targets.
  EXPECT_EQ(loss->body().num_args(), config.NumParams() + 2);
  EXPECT_EQ(config.NumParams(), 9 * config.num_layers + 1);
  // T32's configuration yields the paper's 289 parameters.
  EXPECT_EQ(TransformerConfig::T32Scaled().NumParams(), 289);
  EXPECT_EQ(TransformerConfig::T48Scaled().NumParams(), 9 * 48 + 1);
}

TEST(TransformerModelTest, LossEvaluatesFinite) {
  TransformerConfig config = TinyTransformer();
  Module module;
  Func* loss = BuildTransformerLoss(module, config);
  auto inputs = MakeRandomInputs(*loss, 7, /*index_modulus=*/
                                 static_cast<float>(config.vocab));
  auto out = Evaluate(*loss, inputs);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(std::isfinite(out[0].at(0)));
  EXPECT_GT(out[0].at(0), 0.0f);  // cross-entropy of random logits
}

TEST(TransformerModelTest, BpCollectivesAreOneARPerParamPlusLoss) {
  TransformerConfig config = TinyTransformer();
  Module module;
  Func* step = BuildTransformerTrainingStep(module, config);
  Mesh mesh({{"batch", 4}, {"model", 2}});
  PartitionResult result =
      RunSchedule(step, mesh, {schedules::TransformerBP()});
  EXPECT_EQ(result.collectives.all_reduce, config.NumParams() + 1);
  EXPECT_EQ(result.collectives.all_gather, 0);
  EXPECT_EQ(result.collectives.reduce_scatter, 0);
  EXPECT_EQ(result.collectives.all_to_all, 0);
}

TEST(TransformerModelTest, BpMpAddsFourAllReducesPerLayer) {
  TransformerConfig config = TinyTransformer();
  Module module;
  Func* step = BuildTransformerTrainingStep(module, config);
  Mesh mesh({{"batch", 4}, {"model", 2}});
  PartitionResult result = RunSchedule(
      step, mesh, {schedules::TransformerBP(), schedules::TransformerMP()});
  EXPECT_EQ(result.collectives.all_reduce,
            config.NumParams() + 1 + 4 * config.num_layers);
  EXPECT_EQ(result.collectives.all_gather, 0);
}

TEST(TransformerModelTest, Z2ShardsOptimizerState) {
  TransformerConfig config = TinyTransformer();
  Module module;
  Func* step = BuildTransformerTrainingStep(module, config);
  Mesh mesh({{"batch", 4}, {"model", 2}});
  PartitionResult result = RunSchedule(
      step, mesh,
      {schedules::TransformerBP(), schedules::TransformerMP(),
       schedules::TransformerZ2()});
  // 4 attention projections per layer + the embedding are Z-sharded.
  int64_t sharded = 4 * config.num_layers + 1;
  EXPECT_EQ(result.collectives.reduce_scatter, sharded);
  EXPECT_EQ(result.collectives.all_gather, sharded);
  EXPECT_EQ(result.collectives.all_reduce,
            config.NumParams() + 1 + 4 * config.num_layers - sharded);
}

TEST(TransformerModelTest, Z3GathersParamsOncePerUse) {
  TransformerConfig config = TinyTransformer();
  Module module;
  Func* step = BuildTransformerTrainingStep(module, config);
  Mesh mesh({{"batch", 4}, {"model", 2}});
  PartitionResult result = RunSchedule(
      step, mesh,
      {schedules::TransformerBP(), schedules::TransformerMP(),
       schedules::TransformerZ3()});
  int64_t sharded = 4 * config.num_layers + 1;
  EXPECT_EQ(result.collectives.reduce_scatter, sharded);
  // wq/wk/wv/wo are each used twice (forward + backward); the tied
  // embedding three times (two forward uses + backward) -> 2*4L + 3.
  EXPECT_EQ(result.collectives.all_gather, 8 * config.num_layers + 3);
  EXPECT_EQ(result.collectives.all_reduce,
            config.NumParams() + 1 + 4 * config.num_layers - sharded);
}

TEST(TransformerModelTest, BpTrainingStepSpmdMatchesReference) {
  TransformerConfig config = TinyTransformer();
  config.num_layers = 1;
  Module module;
  Func* step = BuildTransformerTrainingStep(module, config);
  Mesh mesh({{"batch", 2}, {"model", 2}});
  PartitionResult result = RunSchedule(
      step, mesh, {schedules::TransformerBP(), schedules::TransformerMP()});

  auto inputs = MakeRandomInputs(*step, 21, /*index_modulus=*/
                                 static_cast<float>(config.vocab));
  auto want = Evaluate(*step, inputs);
  auto got = RunSpmd(result.spmd, inputs).value();
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_LT(Tensor::MaxAbsDiff(want[i], got[i]), 5e-3f) << "output " << i;
  }
}

TEST(TransformerModelTest, FsdpTrainingStepSpmdMatchesReference) {
  TransformerConfig config = TinyTransformer();
  config.num_layers = 1;
  Module module;
  Func* step = BuildTransformerTrainingStep(module, config);
  Mesh mesh({{"batch", 2}, {"model", 2}});
  PartitionResult result = RunSchedule(
      step, mesh,
      {schedules::TransformerBP(), schedules::TransformerMP(),
       schedules::TransformerZ3()});
  auto inputs = MakeRandomInputs(*step, 22, /*index_modulus=*/
                                 static_cast<float>(config.vocab));
  auto want = Evaluate(*step, inputs);
  auto got = RunSpmd(result.spmd, inputs).value();
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_LT(Tensor::MaxAbsDiff(want[i], got[i]), 5e-3f) << "output " << i;
  }
}

TEST(TransformerModelTest, InferenceBpHasNoCollectives) {
  TransformerConfig config = TinyTransformer();
  Module module;
  Func* infer = BuildTransformerInference(module, config, /*decode_steps=*/3);
  Mesh mesh({{"batch", 4}, {"model", 2}});
  PartitionContext ctx(infer, mesh);
  ManualPartition bp{"BP", {{"tokens", 0}, {"decode_tokens", 0}}, "batch"};
  PartitionResult result = PartirJitOrError(ctx, {bp}).value();
  EXPECT_EQ(result.collectives.all_reduce, 0);
  EXPECT_EQ(result.collectives.all_gather, 0);
  EXPECT_EQ(result.collectives.all_to_all, 0);
}

TEST(TransformerModelTest, InferenceMpCostsTwoARsPerLayerPerPosition) {
  TransformerConfig config = TinyTransformer();
  Module module;
  int64_t steps = 3;
  Func* infer = BuildTransformerInference(module, config, steps);
  Mesh mesh({{"batch", 4}, {"model", 2}});
  PartitionContext ctx(infer, mesh);
  ManualPartition bp{"BP", {{"tokens", 0}, {"decode_tokens", 0}}, "batch"};
  PartitionResult result =
      PartirJitOrError(ctx, {bp, schedules::TransformerMP()}).value();
  // 2 AR per layer for the prefill + 2 per layer per decode step.
  EXPECT_EQ(result.collectives.all_reduce,
            2 * config.num_layers * (steps + 1));
}

TEST(TransformerModelTest, MultiQueryShardingIntroducesAllToAlls) {
  TransformerConfig config = TinyTransformer();
  config.multi_query = true;
  Module module;
  int64_t steps = 3;
  Func* infer = BuildTransformerInference(module, config, steps);
  Mesh mesh({{"batch", 4}, {"model", 2}});
  PartitionContext ctx(infer, mesh);
  ManualPartition bp{"BP", {{"tokens", 0}, {"decode_tokens", 0}}, "batch"};
  PartitionResult result =
      PartirJitOrError(
          ctx, {bp, schedules::TransformerMP(), schedules::TransformerMQ()})
          .value();
  // Two all_to_alls per layer per decode step (q in, attention out).
  EXPECT_EQ(result.collectives.all_to_all,
            2 * config.num_layers * steps);
}

TEST(UNetModelTest, ParamCountAndBpCollectives) {
  UNetConfig config;
  Module module;
  Func* loss = BuildUNetLoss(module, config);
  EXPECT_EQ(loss->body().num_args(), config.NumParams() + 2);

  Module step_module;
  Func* step = BuildUNetTrainingStep(step_module, config);
  Mesh mesh({{"batch", 4}, {"model", 2}});
  PartitionResult result =
      RunSchedule(step, mesh, {schedules::UNetBP()});
  EXPECT_EQ(result.collectives.all_reduce, config.NumParams() + 1);
  EXPECT_EQ(result.collectives.all_gather, 0);
}

TEST(UNetModelTest, Z3ShardsEveryParameterWithAGather) {
  UNetConfig config;
  Module module;
  Func* step = BuildUNetTrainingStep(module, config);
  Mesh mesh({{"batch", 4}, {"model", 2}});
  PartitionResult result = RunSchedule(
      step, mesh, {schedules::UNetBP(), schedules::UNetZ3()});
  // Nearly every gradient becomes a reduce_scatter (paper: 501 of 503).
  EXPECT_GT(result.collectives.reduce_scatter, config.NumParams() * 9 / 10);
  // Each sharded parameter is gathered at least once per use.
  EXPECT_GT(result.collectives.all_gather,
            result.collectives.reduce_scatter);
  EXPECT_LT(result.collectives.all_reduce, 20);
}

TEST(UNetModelTest, Z2KeepsParamsReplicated) {
  UNetConfig config;
  Module module;
  Func* step = BuildUNetTrainingStep(module, config);
  Mesh mesh({{"batch", 4}, {"model", 2}});
  PartitionResult result = RunSchedule(
      step, mesh, {schedules::UNetBP(), schedules::UNetZ2()});
  // Z2: one gather per sharded update (params replicated), grads scattered.
  EXPECT_GT(result.collectives.reduce_scatter, config.NumParams() * 9 / 10);
  EXPECT_NEAR(static_cast<double>(result.collectives.all_gather),
              static_cast<double>(result.collectives.reduce_scatter),
              result.collectives.reduce_scatter * 0.1);
}

TEST(UNetModelTest, BpSpmdMatchesReference) {
  UNetConfig config;
  config.num_down = 3;
  config.num_up = 4;
  config.batch = 4;
  config.attention_heads = 4;
  Module module;
  Func* loss = BuildUNetLoss(module, config);
  Mesh mesh({{"batch", 2}, {"model", 2}});
  PartitionContext ctx(loss, mesh);
  PartitionResult result =
      PartirJitOrError(ctx, {schedules::UNetBP(), schedules::UNetMP()})
          .value();
  auto inputs = MakeRandomInputs(*loss, 31);
  auto want = Evaluate(*loss, inputs);
  auto got = RunSpmd(result.spmd, inputs).value();
  EXPECT_LT(Tensor::MaxAbsDiff(want[0], got[0]), 5e-3f);
}

TEST(GnsModelTest, ParamCountAndEdgeSharding) {
  GnsConfig config;
  Module module;
  Func* loss = BuildGnsLoss(module, config);
  EXPECT_EQ(loss->body().num_args(), config.NumParams() + 5);

  Module step_module;
  Func* step = BuildGnsTrainingStep(step_module, config);
  Mesh mesh({{"batch", 4}});
  PartitionResult result = RunSchedule(step, mesh, {schedules::GnsES()});
  // Edge sharding introduces AllReduces for every scatter aggregation and
  // for every gradient contracted over the sharded edge dim; the exact
  // total is measured, but there must be at least one per message step.
  EXPECT_GE(result.collectives.all_reduce, config.message_steps);
  EXPECT_EQ(result.collectives.all_to_all, 0);
}

TEST(GnsModelTest, EsSpmdMatchesReference) {
  GnsConfig config;
  config.message_steps = 2;
  config.num_edges = 16;
  config.num_nodes = 8;
  Module module;
  Func* loss = BuildGnsLoss(module, config);
  Mesh mesh({{"batch", 4}});
  PartitionContext ctx(loss, mesh);
  PartitionResult result =
      PartirJitOrError(ctx, {schedules::GnsES()}).value();
  auto inputs = MakeRandomInputs(
      *loss, 41, /*index_modulus=*/static_cast<float>(config.num_nodes));
  auto want = Evaluate(*loss, inputs);
  auto got = RunSpmd(result.spmd, inputs).value();
  EXPECT_LT(Tensor::MaxAbsDiff(want[0], got[0]), 5e-3f);
}

TEST(GnsModelTest, TrainingStepEvaluates) {
  GnsConfig config;
  config.message_steps = 1;
  config.mlp_layers = 2;
  Module module;
  Func* step = BuildGnsTrainingStep(module, config);
  auto inputs = MakeRandomInputs(
      *step, 43, /*index_modulus=*/static_cast<float>(config.num_nodes));
  auto out = Evaluate(*step, inputs);
  EXPECT_TRUE(std::isfinite(out.back().at(0)));
}

// ---- Loop forms with a static_slice over a tiled full dim verify ----

/** Partitions `func` and checks its loop form verifies over `mesh` and
 *  holds a static_slice inside a loop, i.e. over a tiled dim. */
void ExpectLoopFormVerifies(Func* func, const Mesh& mesh,
                            const std::vector<Tactic>& schedule) {
  PartitionContext ctx(func, mesh);
  ASSERT_TRUE(PartirJitOrError(ctx, schedule).ok());
  std::unique_ptr<Module> loops = MaterializeLoops(ctx);
  std::vector<std::string> diags = Verify(*loops, &mesh);
  EXPECT_TRUE(diags.empty()) << StrJoin(diags, "\n");
  const Block& body = loops->main()->body();
  int tiled_slices = 0;
  WalkOps(body, [&](const Operation& op) {
    if (op.kind() == OpKind::kStaticSlice && op.parent() != &body) {
      ++tiled_slices;
    }
  });
  EXPECT_GT(tiled_slices, 0);
}

TEST(LoopFormTest, UNetBp) {
  Module module;
  ExpectLoopFormVerifies(BuildUNetTrainingStep(module, UNetConfig()),
                         Mesh({{"batch", 4}, {"model", 2}}),
                         {schedules::UNetBP()});
}

TEST(LoopFormTest, GnsEs) {
  Module module;
  ExpectLoopFormVerifies(BuildGnsTrainingStep(module, GnsConfig()),
                         Mesh({{"batch", 4}}), {schedules::GnsES()});
}

TEST(LoopFormTest, InferenceBp) {
  Module module;
  ExpectLoopFormVerifies(
      BuildTransformerInference(module, TinyTransformer(), 3),
      Mesh({{"batch", 4}, {"model", 2}}), {schedules::InferenceBP()});
}

}  // namespace
}  // namespace partir
