// Edge Sharding (ES) for a Graph Network Simulator (Section 7.3) via the
// Program/Executable facade: the edge arrays are partitioned across the
// batch axis; node state replicates, and every message-passing aggregation
// introduces an AllReduce — without a single annotation inside the model
// code.
#include <cstdio>

#include "src/api/partir.h"
#include "src/models/gns.h"
#include "src/models/schedules.h"

using namespace partir;

int main() {
  GnsConfig config;
  config.num_nodes = 32;
  config.num_edges = 128;
  config.message_steps = 4;
  config.mlp_layers = 3;
  config.latent = 32;

  Program program = Program::Capture([&](Module& module) {
    return BuildGnsTrainingStep(module, config);
  });
  std::printf("GNS training step: %lld params, %lld message steps\n",
              static_cast<long long>(config.NumParams()),
              static_cast<long long>(config.message_steps));

  Mesh mesh({{"batch", 4}});
  StatusOr<Executable> compiled =
      program.Partition({schedules::GnsES()}, mesh);
  if (!compiled.ok()) {
    std::fprintf(stderr, "partitioning failed: %s\n",
                 compiled.status().ToString().c_str());
    return 1;
  }
  Executable exe = std::move(compiled).value();

  std::printf("Edge-sharded collectives: %s\n",
              exe.Collectives().ToString().c_str());
  std::printf("Device-local edge count: %lld of %lld\n",
              static_cast<long long>(config.num_edges /
                                     mesh.AxisSize("batch")),
              static_cast<long long>(config.num_edges));

  std::vector<Tensor> inputs = program.RandomInputs(
      9, /*index_modulus=*/static_cast<float>(config.num_nodes));
  std::vector<Tensor> want = program.Evaluate(inputs).value();
  std::vector<Tensor> got = exe.Run(inputs).value();
  float max_diff = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    max_diff = std::max(max_diff, Tensor::MaxAbsDiff(want[i], got[i]));
  }
  std::printf("max deviation vs reference: %g -> %s\n", max_diff,
              max_diff < 5e-3f ? "OK" : "MISMATCH");
  return max_diff < 5e-3f ? 0 : 1;
}
