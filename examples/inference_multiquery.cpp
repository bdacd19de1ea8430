// Multi-query attention sharding for autoregressive serving (the IT32
// benchmark with the MQ strategy of Pope et al.), driven through the
// facade's multi-query entry point: the transformer is traced ONCE into a
// Program, compiled for a baseline BP+MP strategy, then re-specialized to
// BP+MP+MQ with Executable::Respecialize — no retracing. The MQ tactic
// re-lays-out the decode attention between head-sharded projections and
// batch-sharded attention through barrier tags, producing two All2Alls per
// layer per decode step.
#include <cstdio>

#include "src/api/partir.h"
#include "src/models/schedules.h"
#include "src/models/transformer.h"

using namespace partir;

int main() {
  TransformerConfig config;
  config.num_layers = 4;
  config.d_model = 64;
  config.num_heads = 8;
  config.head_dim = 8;
  config.ffw_size = 128;
  config.vocab = 128;
  config.batch = 8;
  config.seq = 8;
  config.multi_query = true;
  const int64_t decode_steps = 6;

  Program program = Program::Capture([&](Module& module) {
    return BuildTransformerInference(module, config, decode_steps);
  });
  Mesh mesh({{"batch", 4}, {"model", 2}});

  using namespace schedules;

  // Baseline serving strategy: batch + Megatron model parallelism.
  StatusOr<Executable> baseline =
      program.Partition({InferenceBP(), TransformerMP()}, mesh);
  if (!baseline.ok()) {
    std::fprintf(stderr, "BP+MP failed: %s\n",
                 baseline.status().ToString().c_str());
    return 1;
  }

  // Re-specialize the same traced program with the MQ re-layout tactic.
  StatusOr<Executable> mq = baseline->Respecialize(
      {InferenceBP(), TransformerMP(), TransformerMQ()});
  if (!mq.ok()) {
    std::fprintf(stderr, "BP+MP+MQ failed: %s\n",
                 mq.status().ToString().c_str());
    return 1;
  }

  std::printf("Serving %lld decode steps on %lld devices\n",
              static_cast<long long>(decode_steps),
              static_cast<long long>(mesh.NumDevices()));
  std::printf("BP+MP    collectives: %s\n",
              baseline->Collectives().ToString().c_str());
  std::printf("BP+MP+MQ collectives: %s (respecialized, no retrace)\n",
              mq->Collectives().ToString().c_str());
  std::printf("All2Alls per layer per decode step: %.1f (paper: 2)\n",
              static_cast<double>(mq->Collectives().all_to_all) /
                  static_cast<double>(config.num_layers * decode_steps));
  std::printf("Estimated serving-loop time: BP+MP %.3f ms, BP+MP+MQ %.3f ms\n",
              baseline->Estimate().step_seconds * 1e3,
              mq->Estimate().step_seconds * 1e3);
  return 0;
}
