// Mixing manual and automatic tactics (Section 3, Listing 6) via the
// Program/Executable facade: batch parallelism is applied manually, then
// AutomaticPartition's Monte-Carlo tree search discovers the model-axis
// sharding, scored by the simulator. Both strategies come from the same
// traced Program — the second via Executable::Respecialize.
#include <cstdio>

#include "src/api/partir.h"
#include "src/models/schedules.h"
#include "src/models/unet.h"

using namespace partir;

int main() {
  // Large enough that parallelism beats collective latency.
  UNetConfig config;
  config.batch = 32;
  config.height = 16;
  config.width = 16;
  config.in_channels = 8;
  config.base_channels = 64;

  Program program = Program::Capture([&](Module& module) {
    return BuildUNetTrainingStep(module, config);
  });
  Mesh mesh({{"batch", 4}, {"model", 2}});

  // Reference point: the expert's manual batch parallelism.
  StatusOr<Executable> manual = program.Partition({schedules::UNetBP()}, mesh);
  if (!manual.ok()) {
    std::fprintf(stderr, "manual partitioning failed: %s\n",
                 manual.status().ToString().c_str());
    return 1;
  }

  // AllAuto: let the MCTS discover the partitioning from scratch over both
  // axes, with no manual tactics at all — re-partitioning the *same* traced
  // program instead of rebuilding it.
  AutomaticPartition all_auto;
  all_auto.name = "AllAuto";
  all_auto.axes = {"batch", "model"};
  all_auto.options.simulations = 64;
  all_auto.options.max_actions = 4;
  StatusOr<Executable> automatic = manual->Respecialize({all_auto});
  if (!automatic.ok()) {
    std::fprintf(stderr, "automatic partitioning failed: %s\n",
                 automatic.status().ToString().c_str());
    return 1;
  }

  std::printf("%-10s %-8s %-14s %s\n", "schedule", "actions", "ms/step est",
              "collectives");
  std::printf("%-10s %-8d %-14.3f %s\n", "BP(manual)",
              manual->tactics()[0].actions_applied,
              manual->Estimate().step_seconds * 1e3,
              manual->Collectives().ToString().c_str());
  std::printf("%-10s %-8d %-14.3f %s\n", "AllAuto",
              automatic->tactics()[0].actions_applied,
              automatic->Estimate().step_seconds * 1e3,
              automatic->Collectives().ToString().c_str());
  std::printf("\nAllAuto evaluated %d candidates in %.2f s; %s the manual "
              "schedule's estimate.\n",
              automatic->tactics()[0].evaluations,
              automatic->tactics()[0].search_seconds,
              automatic->Estimate().step_seconds <=
                      manual->Estimate().step_seconds * 1.05
                  ? "matches (or beats)"
                  : "is slower than");
  return 0;
}
