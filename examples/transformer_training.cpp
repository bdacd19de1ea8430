// Partitioning a transformer training step with the paper's production
// schedule BP+MP+Z3 (Section 7.2) through the Program/Executable facade,
// showing the cost of the strategy after each tactic — the "verify the
// strategy after every tactic" workflow. The collective breakdown and
// simulator estimate after tactic i are those of the schedule prefix
// [0..i], which Executable::Respecialize partitions from the same trace.
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

  Program program = Program::Capture([&](Module& module) {
    return BuildTransformerTrainingStep(module, config);
  });
  std::printf("Transformer training step: %lld parameter tensors, %lld ops\n",
              static_cast<long long>(config.NumParams()),
              static_cast<long long>(CountOps(*program.func())));

  Mesh mesh({{"batch", 4}, {"model", 2}});
  const std::vector<Tactic> schedule = schedules::TransformerBPMPZ3();

  StatusOr<Executable> compiled = program.Partition(schedule, mesh);
  if (!compiled.ok()) {
    std::fprintf(stderr, "partitioning failed: %s\n",
                 compiled.status().ToString().c_str());
    return 1;
  }
  Executable exe = std::move(compiled).value();

  std::printf("\n%-8s %-8s %-12s %-12s %s\n", "tactic", "actions",
              "ms/step est", "peak MB est", "collectives");
  for (size_t i = 0; i < schedule.size(); ++i) {
    StatusOr<Executable> prefix = exe.Respecialize(
        std::vector<Tactic>(schedule.begin(), schedule.begin() + i + 1));
    if (!prefix.ok()) {
      std::fprintf(stderr, "partitioning the prefix failed: %s\n",
                   prefix.status().ToString().c_str());
      return 1;
    }
    const TacticReport& report = exe.tactics()[i];
    std::printf("%-8s %-8d %-12.3f %-12.2f %s\n", report.name.c_str(),
                report.actions_applied,
                prefix->Estimate().step_seconds * 1e3,
                prefix->Estimate().peak_memory_bytes / 1e6,
                prefix->Collectives().ToString().c_str());
  }
  std::printf("\nFinal: %s | est %.3f ms/step, %.2f MB peak\n",
              exe.Collectives().ToString().c_str(),
              exe.Estimate().step_seconds * 1e3,
              exe.Estimate().peak_memory_bytes / 1e6);
  std::printf("Partitioning took %.1f ms\n", exe.partition_seconds() * 1e3);

  // Verify the partitioned step against the sequential reference.
  std::vector<Tensor> inputs = program.RandomInputs(
      3, /*index_modulus=*/static_cast<float>(config.vocab));
  std::vector<Tensor> want = program.Evaluate(inputs).value();
  std::vector<Tensor> got = exe.Run(inputs).value();
  float max_diff = 0;
  for (size_t i = 0; i < want.size(); ++i) {
    max_diff = std::max(max_diff, Tensor::MaxAbsDiff(want[i], got[i]));
  }
  std::printf("max deviation across %zu outputs on %lld devices: %g\n",
              want.size(), static_cast<long long>(mesh.NumDevices()),
              max_diff);
  return max_diff < 5e-3f ? 0 : 1;
}
