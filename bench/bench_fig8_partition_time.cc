// Reproduces Figure 8: PartIR partitioning time as a fraction of overall
// compilation time. "Overall compilation" here is the full local pipeline:
// PartIR tactics + propagation + SPMD lowering + collective optimization
// (the PartIR part), followed by the backend stand-in (device-local
// verification, canonicalization and cost modeling, standing in for XLA).
// The stand-in's canonicalization is 12 OptimizeSpmd calls, so its cost
// tracks the SPMD peephole optimizer: a faster optimizer shrinks the
// stand-in and raises the "partir %" column.
#include <chrono>

#include "bench/bench_util.h"

#include "src/ir/passes.h"
#include "src/ir/verifier.h"
#include "src/sim/cost_model.h"

namespace partir {
namespace {

using bench::Fmt;
using bench::PrintHeader;
using bench::PrintRow;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// A stand-in for backend (XLA) compilation work on the device-local module:
// verification, repeated canonicalization sweeps and cost analysis.
double BackendStandIn(SpmdModule& spmd) {
  auto start = Clock::now();
  VerifyOrDie(*spmd.module);
  for (int sweep = 0; sweep < 12; ++sweep) {
    OptimizeSpmd(spmd);
    EliminateDeadCode(*spmd.main());
  }
  EstimateSpmd(spmd, Tpu_v3());
  MeasureOnHardwareModel(spmd, Tpu_v3());
  return Seconds(start);
}

void RunCase(const std::string& label, Program& step,
             const std::vector<Tactic>& schedule) {
  Mesh mesh({{"batch", 8}, {"model", 2}});
  Executable exe = bench::Run(step, mesh, schedule);
  // The PartIR side of the figure is the pipeline's own measurement of the
  // whole Partition call; the JSON line breaks it down per pass (its
  // total_ms is the pass manager's wall-clock alone).
  double partition_seconds = exe.partition_seconds();
  bench::PrintPipelineStatsJson("fig8_per_pass", label, exe.pipeline_stats());
  double backend_seconds = BackendStandIn(exe.mutable_spmd());
  double total = partition_seconds + backend_seconds;
  PrintRow({label, StrCat(CountOps(*exe.spmd().main())),
            Fmt(partition_seconds * 1e3, "%.1f"),
            Fmt(total * 1e3, "%.1f"),
            Fmt(100.0 * partition_seconds / total, "%.1f%%")});
}

}  // namespace
}  // namespace partir

int main() {
  using namespace partir;
  using namespace partir::bench;
  using namespace partir::schedules;
  PrintHeader("Figure 8: partition time vs overall compilation time");
  PrintRow({"model", "ops", "partir ms", "total ms", "partir %"});
  {
    TransformerConfig config = TransformerConfig::T32Scaled();
    Program step = Program::Capture([&](Module& module) {
      return BuildTransformerTrainingStep(module, config);
    });
    RunCase("T32", step, TransformerBPMPZ3EMB());
  }
  {
    UNetConfig config = UNetConfig::Bench();
    Program step = Program::Capture([&](Module& module) {
      return BuildUNetTrainingStep(module, config);
    });
    RunCase("UNet", step, {UNetBP(), UNetMP(), UNetZ3()});
  }
  {
    GnsConfig config = GnsConfig::Bench();
    Program step = Program::Capture([&](Module& module) {
      return BuildGnsTrainingStep(module, config);
    });
    RunCase("GNS", step, {GnsES()});
  }
  {
    TransformerConfig config = TransformerConfig::T32Scaled();
    config.seq = 16;
    Program infer = Program::Capture([&](Module& module) {
      return BuildTransformerInference(module, config, 8);
    });
    RunCase("IT32", infer, {InferenceBP(), TransformerMP()});
  }
  return 0;
}
