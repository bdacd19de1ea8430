// Reproduces Figures 9 & 10 (Appendix A.3): simulator estimates vs
// "measured" values, per model and schedule. The measured side is the
// hardware-model simulator (deterministic backend/dispatch perturbations of
// the analytical estimate) standing in for real TPUs, because this
// reproduction runs on a CPU-simulated mesh with no accelerators. The
// reproduction target is the *relative* fidelity the paper reports: errors
// small, memory preferentially over-estimated.
#include "bench/bench_util.h"

#include "src/sim/cost_model.h"

namespace partir {
namespace {

using bench::Fmt;
using bench::PrintHeader;
using bench::PrintRow;
using bench::Run;

void Report(const std::string& model, const std::string& schedule,
            const Executable& result) {
  SimEstimate measured = MeasureOnHardwareModel(result.spmd(), Tpu_v3());
  double dt = measured.step_seconds - result.Estimate().step_seconds;
  double dm =
      measured.peak_memory_bytes - result.Estimate().peak_memory_bytes;
  PrintRow({model, schedule,
            Fmt(result.Estimate().step_seconds * 1e3, "%.3f"),
            Fmt(measured.step_seconds * 1e3, "%.3f"),
            Fmt(dt * 1e3, "%+.3f"),
            Fmt(result.Estimate().peak_memory_bytes / 1e9, "%.3f"),
            Fmt(measured.peak_memory_bytes / 1e9, "%.3f"),
            Fmt(dm / 1e9, "%+.3f")});
}

}  // namespace
}  // namespace partir

int main() {
  using namespace partir;
  using namespace partir::bench;
  using namespace partir::schedules;
  PrintHeader(
      "Figures 9-10: estimated vs measured step time (ms) and memory (GB)");
  PrintRow({"model", "schedule", "est ms", "meas ms", "dt", "est GB",
            "meas GB", "dm"});
  Mesh mesh({{"batch", 16}, {"model", 2}});

  {
    TransformerConfig config = TransformerConfig::T32Scaled();
    Program step = Program::Capture([&](Module& module) {
      return BuildTransformerTrainingStep(module, config);
    });
    Report("T32", "BP", Run(step, mesh, {TransformerBP()}));
    Report("T32", "BP+MP",
           Run(step, mesh, {TransformerBP(), TransformerMP()}));
    Report("T32", "BP+MP+Z3",
           Run(step, mesh,
               {TransformerBP(), TransformerMP(), TransformerZ3()}));
    Report("T32", "BP+MP+Z3+EMB",
           Run(step, mesh,
               {TransformerBP(), TransformerMP(), TransformerZ3(),
                TransformerEMB()}));
  }
  {
    TransformerConfig config = TransformerConfig::T32Scaled();
    config.seq = 16;
    Program infer = Program::Capture([&](Module& module) {
      return BuildTransformerInference(module, config, 8);
    });
    ManualPartition bp = InferenceBP();
    Report("IT32", "BP", Run(infer, mesh, {bp}));
    Report("IT32", "BP+MP", Run(infer, mesh, {bp, TransformerMP()}));
    Report("IT32", "MP", Run(infer, mesh, {TransformerMP()}));
  }
  {
    UNetConfig config = UNetConfig::Bench();
    Program step = Program::Capture([&](Module& module) {
      return BuildUNetTrainingStep(module, config);
    });
    Report("UNet", "BP", Run(step, mesh, {UNetBP()}));
    Report("UNet", "BP+Z2", Run(step, mesh, {UNetBP(), UNetZ2()}));
    Report("UNet", "BP+Z3", Run(step, mesh, {UNetBP(), UNetZ3()}));
  }
  {
    GnsConfig config = GnsConfig::Bench();
    Program step = Program::Capture([&](Module& module) {
      return BuildGnsTrainingStep(module, config);
    });
    Mesh gns_mesh({{"batch", 8}});
    Report("GNS", "ES", Run(step, gns_mesh, {GnsES()}));
  }
  return 0;
}
