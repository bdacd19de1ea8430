// Reproduces Figure 8: PartIR partitioning time as a fraction of overall
// compilation time. "Overall compilation" is one Partition call. Its
// backend part is the pipeline's compile-device-programs stage, which
// compiles the device-local module to the executor's instruction stream
// and arena plan (the role XLA plays in the paper); the PartIR part is
// everything else: tactics, propagation, SPMD lowering, collective
// optimization and collective planning.
#include "bench/bench_util.h"

namespace partir {
namespace {

using bench::Fmt;
using bench::PrintHeader;
using bench::PrintRow;

void RunCase(const std::string& label, Program& step,
             const std::vector<Tactic>& schedule) {
  Mesh mesh({{"batch", 8}, {"model", 2}});
  Executable exe = bench::Run(step, mesh, schedule);
  // Both columns are the pipeline's own measurements; the JSON line breaks
  // the call down per stage.
  const PipelineStats& stats = exe.pipeline_stats();
  bench::PrintPipelineStatsJson("fig8_per_pass", label, stats);
  const PassStats* compile = stats.Find("compile-device-programs");
  const double backend_seconds = compile == nullptr ? 0 : compile->seconds;
  const double total = exe.partition_seconds();
  const double partir_seconds = total - backend_seconds;
  PrintRow({label, StrCat(CountOps(*exe.spmd().main())),
            Fmt(partir_seconds * 1e3, "%.1f"),
            Fmt(backend_seconds * 1e3, "%.1f"), Fmt(total * 1e3, "%.1f"),
            Fmt(100.0 * partir_seconds / total, "%.1f%%")});
}

}  // namespace
}  // namespace partir

int main() {
  using namespace partir;
  using namespace partir::bench;
  using namespace partir::schedules;
  PrintHeader("Figure 8: partition time vs overall compilation time");
  PrintRow({"model", "ops", "partir ms", "backend ms", "total ms",
            "partir %"});
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
