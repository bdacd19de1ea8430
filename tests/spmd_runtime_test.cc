// Tests for the multi-device SPMD runtime: replica-group planning,
// rendezvous collective semantics on 3-axis and asymmetric meshes, typed
// Run errors, and bit-exact agreement between the sequential reference
// walker and the compiled executor run sequentially, threaded, and at a
// capped thread count (including the five example workloads).
#include <gtest/gtest.h>

#include <cstring>

#include "src/api/partir.h"
#include "src/interp/interpreter.h"
#include "src/ir/builder.h"
#include "src/models/gns.h"
#include "src/models/schedules.h"
#include "src/models/transformer.h"
#include "src/spmd/collectives.h"
#include "src/spmd/spmd_interpreter.h"

namespace partir {
namespace {

constexpr float kTol = 5e-3f;

// Bit-level comparison (memcmp, not float ==): identical NaN payloads
// compare equal, and any ULP of divergence fails.
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

// Runs the sequential reference walker, then the compiled executor
// sequentially, capped at 3 threads and fully threaded; asserts all of
// them are bit-identical to the walker and returns the walker's outputs.
std::vector<Tensor> RunAllModes(const Executable& exe,
                                const std::vector<Tensor>& inputs,
                                const std::string& label) {
  std::vector<Tensor> walked = exe.Run(inputs, Walker()).value();
  for (int num_threads : {1, 3, 0}) {
    RunOptions compiled;
    compiled.num_threads = num_threads;
    ExpectBitIdentical(walked, exe.Run(inputs, compiled).value(),
                       label + " (threads=" + std::to_string(num_threads) +
                           ")");
  }
  return walked;
}

void ExpectMatchesReference(Program& program, const Executable& exe,
                            const std::vector<Tensor>& inputs,
                            const std::string& label) {
  std::vector<Tensor> want = program.Evaluate(inputs).value();
  std::vector<Tensor> got = RunAllModes(exe, inputs, label);
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_LT(Tensor::MaxAbsDiff(want[i], got[i]), kTol)
        << label << " output " << i << " diverged from the reference";
  }
}

// ---- Replica-group planning ----

TEST(CollectiveGroupsTest, ThreeAxisMeshGroups) {
  Mesh mesh({{"B", 2}, {"M", 2}, {"E", 2}});
  CollectiveGroups groups = MakeCollectiveGroups(mesh, {"M", "E"});
  EXPECT_EQ(groups.group_size, 4);
  ASSERT_EQ(groups.groups.size(), 2u);  // one group per B coordinate
  // Devices are row-major over (B, M, E): group 0 holds B=0.
  EXPECT_EQ(groups.groups[0], (std::vector<int64_t>{0, 1, 2, 3}));
  EXPECT_EQ(groups.groups[1], (std::vector<int64_t>{4, 5, 6, 7}));
  // Device 5 = (B=1, M=0, E=1): position M*2+E = 1 in group 1.
  EXPECT_EQ(groups.group_of[5], 1);
  EXPECT_EQ(groups.position_of[5], 1);
  // Moving its M coordinate to 1 lands on position 3 (device 7).
  EXPECT_EQ(groups.PositionWithAxisCoord(1, groups.AxisIndex("M"), 1), 3);
  EXPECT_EQ(groups.CoordOf(3, groups.AxisIndex("M")), 1);
  EXPECT_EQ(groups.CoordOf(3, groups.AxisIndex("E")), 1);
}

TEST(CollectiveGroupsTest, AsymmetricMeshGroups) {
  Mesh mesh({{"B", 3}, {"M", 2}});
  CollectiveGroups groups = MakeCollectiveGroups(mesh, {"B"});
  EXPECT_EQ(groups.group_size, 3);
  ASSERT_EQ(groups.groups.size(), 2u);
  // Device id = B*2 + M; the M=0 group is {0, 2, 4} ordered by B.
  EXPECT_EQ(groups.groups[0], (std::vector<int64_t>{0, 2, 4}));
  EXPECT_EQ(groups.groups[1], (std::vector<int64_t>{1, 3, 5}));
  for (int64_t d = 0; d < 6; ++d) {
    EXPECT_EQ(groups.groups[groups.group_of[d]][groups.position_of[d]], d);
  }
}

// ---- Collective semantics on multi-axis / asymmetric meshes ----

Program BuildChainProgram(int64_t rows, int64_t inner, int64_t hidden) {
  Program program("chain");
  Value* x = program.AddInput(TensorType({rows, inner}), "x");
  Value* w1 = program.AddInput(TensorType({inner, hidden}), "w1");
  Value* w2 = program.AddInput(TensorType({hidden, inner}), "w2");
  OpBuilder& builder = program.builder();
  program.Return({builder.MatMul(builder.MatMul(x, w1), w2)});
  return program;
}

TEST(SpmdRuntimeTest, ThreeAxisMeshFsdpAgreesWithReference) {
  // {B:2, M:2, E:2}: batch parallel over B, Megatron over M, and parameter
  // sharding over E — every device participates in replica groups of three
  // different collectives on a 3-axis mesh.
  Program program = BuildChainProgram(8, 8, 8);
  Mesh mesh({{"B", 2}, {"M", 2}, {"E", 2}});
  std::vector<Tactic> schedule = {
      ManualPartition{"BP", {{"x", 0}}, "B"},
      ManualPartition{"MP", {{"w1", 1}}, "M"},
      ManualPartition{"Z3", {{"w1", 0}, {"w2", 1}}, "E"},
  };
  Executable exe = program.Partition(schedule, mesh).value();
  EXPECT_GE(exe.Collectives().all_reduce, 1);
  ExpectMatchesReference(program, exe, program.RandomInputs(7),
                         "3-axis fsdp");
}

TEST(SpmdRuntimeTest, AsymmetricMeshReduceScatterAgreesWithReference) {
  // {B:3, M:2}: dims divisible by 3; sharding the output over M turns the
  // Megatron all_reduce into a reduce_scatter whose reduction order (3
  // summands over B-agnostic groups) must be identical in every mode.
  Program program("chain");
  Value* x = program.AddInput(TensorType({6, 8}), "x");
  Value* w1 = program.AddInput(TensorType({8, 6}), "w1");
  Value* w2 = program.AddInput(TensorType({6, 8}), "w2");
  OpBuilder& builder = program.builder();
  Value* out =
      builder.Tag(builder.MatMul(builder.MatMul(x, w1), w2), "out");
  program.Return({out});
  Mesh mesh({{"B", 3}, {"M", 2}});
  std::vector<Tactic> schedule = {
      ManualPartition{"BP", {{"x", 0}}, "B"},
      ManualPartition{"MP", {{"w1", 1}}, "M"},
      ManualPartition{"ES", {{"out", 1}}, "M"},
  };
  Executable exe = program.Partition(schedule, mesh).value();
  EXPECT_GE(exe.Collectives().reduce_scatter, 1);
  ExpectMatchesReference(program, exe, program.RandomInputs(11),
                         "asymmetric reduce_scatter");
}

TEST(SpmdRuntimeTest, AllToAllRoundTripOnAsymmetricAxis) {
  // Two opposing all_to_alls over a size-3 axis are the identity: the
  // shard dim moves 0 -> 1 -> 0. Exercises the rendezvous all_to_all with
  // positions that differ per device.
  Mesh mesh({{"B", 3}});
  SpmdModule spmd;
  spmd.module = std::make_unique<Module>();
  spmd.mesh = mesh;
  Func* func = spmd.module->AddFunc("main");
  Value* x = func->body().AddArg(TensorType({2, 6}), "x");
  OpBuilder builder(&func->body());
  builder.SetMesh(&mesh);
  Value* moved = builder.AllToAll(x, /*slice_dim=*/1, /*concat_dim=*/0, {"B"});
  Value* back = builder.AllToAll(moved, /*slice_dim=*/0, /*concat_dim=*/1,
                                 {"B"});
  builder.Return({back});
  spmd.input_shardings = {ValueSharding{AxesPerDim{{"B"}, {}}}};
  spmd.output_shardings = {ValueSharding{AxesPerDim{{"B"}, {}}}};

  Tensor global = Tensor::Random({6, 6}, 99);
  std::vector<Tensor> seq = RunSpmd(spmd, {global}, Walker()).value();
  std::vector<Tensor> thr = RunSpmd(spmd, {global}).value();
  ExpectBitIdentical(seq, thr, "all_to_all round trip");
  EXPECT_EQ(seq[0].data(), global.data()) << "round trip is not identity";
}

TEST(SpmdRuntimeTest, DeepShardedGatherOnThreeAxisMesh) {
  // One dim sharded by two axes ({M,E}) plus a B-sharded dim: the gather
  // must reassemble chunks with the first-listed axis outermost on every
  // group member identically.
  Mesh mesh({{"B", 2}, {"M", 2}, {"E", 2}});
  SpmdModule spmd;
  spmd.module = std::make_unique<Module>();
  spmd.mesh = mesh;
  Func* func = spmd.module->AddFunc("main");
  Value* x = func->body().AddArg(TensorType({2, 2}), "x");
  OpBuilder builder(&func->body());
  builder.SetMesh(&mesh);
  Value* gathered = builder.AllGather(x, AxesPerDim{{"B"}, {"M", "E"}});
  builder.Return({gathered});
  spmd.input_shardings = {ValueSharding{AxesPerDim{{"B"}, {"M", "E"}}}};
  spmd.output_shardings = {ValueSharding{AxesPerDim{{}, {}}}};

  Tensor global = Tensor::Random({4, 8}, 123);
  std::vector<Tensor> seq = RunSpmd(spmd, {global}, Walker()).value();
  std::vector<Tensor> thr = RunSpmd(spmd, {global}).value();
  ExpectBitIdentical(seq, thr, "deep gather");
  EXPECT_EQ(seq[0].data(), global.data()) << "gather lost the global value";
}

// ---- Determinism ----

TEST(SpmdRuntimeTest, ThreadedRunsAreBitStableAcrossRepeats) {
  Program program = BuildChainProgram(6, 8, 6);
  Mesh mesh({{"B", 3}, {"M", 2}});
  Executable exe = program
                       .Partition({ManualPartition{"BP", {{"x", 0}}, "B"},
                                   ManualPartition{"MP", {{"w1", 1}}, "M"}},
                                  mesh)
                       .value();
  std::vector<Tensor> inputs = program.RandomInputs(5);
  std::vector<Tensor> first = exe.Run(inputs).value();
  for (int repeat = 0; repeat < 3; ++repeat) {
    ExpectBitIdentical(first, exe.Run(inputs).value(), "repeat run");
  }
}

// ---- Typed Run errors (no aborts) ----

TEST(SpmdRuntimeTest, ArityMismatchIsStatusNotAbort) {
  Program program = BuildChainProgram(8, 8, 8);
  Mesh mesh({{"B", 4}});
  Executable exe =
      program.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  std::vector<Tensor> inputs = program.RandomInputs(3);
  inputs.pop_back();
  StatusOr<std::vector<Tensor>> result = exe.Run(inputs);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SpmdRuntimeTest, ShapeMismatchIsStatusNotAbort) {
  Program program = BuildChainProgram(8, 8, 8);
  Mesh mesh({{"B", 4}});
  Executable exe =
      program.Partition({ManualPartition{"BP", {{"x", 0}}, "B"}}, mesh)
          .value();
  std::vector<Tensor> inputs = program.RandomInputs(3);
  inputs[0] = Tensor({3, 5});
  StatusOr<std::vector<Tensor>> result = exe.Run(inputs);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("input 0"), std::string::npos);
}

TEST(SpmdRuntimeTest, UnshardableGlobalDimIsStatusNotAbort) {
  // RunSpmd itself (below Executable's global-shape validation) must also
  // diagnose inputs whose dims the mesh cannot divide.
  Mesh mesh({{"B", 3}});
  SpmdModule spmd;
  spmd.module = std::make_unique<Module>();
  spmd.mesh = mesh;
  Func* func = spmd.module->AddFunc("main");
  Value* x = func->body().AddArg(TensorType({2, 4}), "x");
  OpBuilder builder(&func->body());
  builder.Return({x});
  spmd.input_shardings = {ValueSharding{AxesPerDim{{"B"}, {}}}};
  spmd.output_shardings = {ValueSharding{AxesPerDim{{"B"}, {}}}};

  StatusOr<std::vector<Tensor>> result = RunSpmd(spmd, {Tensor({7, 4})});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("divisible"), std::string::npos);
}

// ---- The five example workloads, compiled == walker bit-for-bit ----

TEST(SpmdRuntimeExamplesTest, QuickstartChainBpMpZ3) {
  Program program("main");
  Value* x = program.AddInput(TensorType({256, 8}), "x");
  Value* w1 = program.AddInput(TensorType({8, 16}), "w1");
  Value* w2 = program.AddInput(TensorType({16, 8}), "w2");
  OpBuilder& builder = program.builder();
  program.Return({builder.MatMul(builder.MatMul(x, w1), w2)});
  Mesh mesh({{"B", 4}, {"M", 2}});
  std::vector<Tactic> schedule = {
      ManualPartition{"BP", {{"x", 0}}, "B"},
      ManualPartition{"MP", {{"w1", 1}}, "M"},
      ManualPartition{"Z3", {{"w1", 0}, {"w2", 1}}, "B"},
  };
  Executable exe = program.Partition(schedule, mesh).value();
  ExpectMatchesReference(program, exe, program.RandomInputs(1), "quickstart");
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

TEST(SpmdRuntimeExamplesTest, TransformerTrainingBpMp) {
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
  std::vector<Tensor> inputs =
      program.RandomInputs(21, static_cast<float>(config.vocab));
  RunAllModes(exe, inputs, "transformer training");
}

TEST(SpmdRuntimeExamplesTest, TransformerInferenceBp) {
  TransformerConfig config = SmallTransformer();
  Program program = Program::Capture([&](Module& module) {
    return BuildTransformerInference(module, config, /*decode_steps=*/2);
  });
  Mesh mesh({{"batch", 4}});
  Executable exe =
      program.Partition({schedules::InferenceBP()}, mesh).value();
  std::vector<Tensor> inputs =
      program.RandomInputs(22, static_cast<float>(config.vocab));
  RunAllModes(exe, inputs, "transformer inference");
}

TEST(SpmdRuntimeExamplesTest, GnsEdgeSharding) {
  GnsConfig config;
  config.message_steps = 2;
  config.num_edges = 16;
  config.num_nodes = 8;
  Program program = Program::Capture(
      [&](Module& module) { return BuildGnsLoss(module, config); });
  Mesh mesh({{"batch", 4}});
  Executable exe = program.Partition({schedules::GnsES()}, mesh).value();
  std::vector<Tensor> inputs =
      program.RandomInputs(23, static_cast<float>(config.num_nodes));
  RunAllModes(exe, inputs, "gns edge sharding");
}

TEST(SpmdRuntimeExamplesTest, AutomaticPartitioning) {
  Program program = BuildChainProgram(16, 8, 8);
  Mesh mesh({{"B", 4}});
  AutomaticPartition automatic;
  automatic.name = "auto";
  automatic.axes = {"B"};
  automatic.options.simulations = 16;
  Executable exe = program.Partition({automatic}, mesh).value();
  ExpectMatchesReference(program, exe, program.RandomInputs(24),
                         "automatic partitioning");
}

}  // namespace
}  // namespace partir
