// Quickstart: the paper's worked example (Sections 2.4 and 3), written
// against the partir::Program / partir::Executable facade.
//
// Builds the matmul chain of Listing 1, partitions it with the BP -> MP ->
// Z3 schedule of Listing 5 over the {B:4, M:2} mesh with ONE Partition
// call, and shows:
//   * the PartIR:Core loop/slice form after each tactic (Listings 2-4's
//     rewrites, rendered via Executable::Print(Stage::AfterTactic(i))),
//   * the final device-local SPMD module with collectives (Listing 4),
//   * executable verification: the partitioned program run on all 8
//     simulated devices equals the unpartitioned program.
//
// Every failure mode along the way — a typo'd axis, a schedule key that
// matches nothing, an indivisible dimension — would surface as a non-OK
// Status with a message, not a silently different strategy.
#include <cstdio>

#include "src/api/partir.h"

using namespace partir;

int main() {
  // ---- Listing 1: trace the unpartitioned program. ----
  Program program("main");
  Value* x = program.AddInput(TensorType({256, 8}), "x");
  Value* w1 = program.AddInput(TensorType({8, 16}), "w1");
  Value* w2 = program.AddInput(TensorType({16, 8}), "w2");
  OpBuilder& builder = program.builder();
  Value* x1 = builder.MatMul(x, w1);
  x1->set_name("x1");
  Value* x2 = builder.MatMul(x1, w2);
  x2->set_name("x2");
  program.Return({x2});

  std::printf("==== Unpartitioned module (Listing 1) ====\n%s\n",
              program.Print().c_str());

  // ---- Listing 5: the schedule, as tactics; one Partition call. ----
  Mesh mesh({{"B", 4}, {"M", 2}});
  std::vector<Tactic> schedule = {
      ManualPartition{"BP", {{"x", 0}}, "B"},
      ManualPartition{"MP", {{"w1", 1}}, "M"},
      ManualPartition{"Z3", {{"w1", 0}, {"w2", 1}}, "B"},
  };
  StatusOr<Executable> compiled = program.Partition(schedule, mesh);
  if (!compiled.ok()) {
    std::fprintf(stderr, "partitioning failed: %s\n",
                 compiled.status().ToString().c_str());
    return 1;
  }
  Executable exe = std::move(compiled).value();

  // ---- Per-tactic loop forms: the paper's verify-every-tactic loop. ----
  for (int i = 0; i < static_cast<int>(exe.tactics().size()); ++i) {
    std::printf("==== PartIR:Core loop form after tactic %s ====\n%s\n",
                exe.tactics()[i].name.c_str(),
                exe.Print(Stage::AfterTactic(i)).value().c_str());
  }

  // ---- The device-local SPMD module (Listing 4). ----
  std::printf("==== Device-local SPMD module ====\n%s\n",
              exe.Print(Stage::Spmd()).value().c_str());
  std::printf("Input shardings:\n");
  for (int i = 0; i < exe.num_inputs(); ++i) {
    std::printf("  %-4s %s\n", program.input_name(i).c_str(),
                exe.input_sharding(i).ToString().c_str());
  }
  std::printf("Collectives: %s\n\n", exe.Collectives().ToString().c_str());

  // ---- Verify: run on all 8 devices and compare with the reference. ----
  std::vector<Tensor> inputs = program.RandomInputs(/*seed=*/1);
  std::vector<Tensor> want = program.Evaluate(inputs).value();
  std::vector<Tensor> got = exe.Run(inputs).value();
  float diff = Tensor::MaxAbsDiff(want[0], got[0]);
  std::printf("max |unpartitioned - partitioned| over all outputs: %g\n",
              diff);
  std::printf(diff < 1e-3f ? "OK: semantics preserved\n"
                           : "ERROR: mismatch!\n");
  return diff < 1e-3f ? 0 : 1;
}
