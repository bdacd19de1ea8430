// train_step: a real training loop. The 2-layer transformer training step
// (d_model 64, 8 heads of 8, ffw 128, vocab 128, batch 4, seq 8) is
// partitioned with BP+MP+Z3 on {batch:2, model:2} and run with default
// RunOptions; each step's parameters and Adam moments feed the next step
// together with a fresh seeded batch. Compile is paid once, in setup_s; the
// timed window is kernels (mostly dot_general), collectives and the threaded
// runtime.
#include <cmath>

#include "perfbench/src/workloads.h"
#include "src/models/schedules.h"
#include "src/models/transformer.h"

namespace perfbench {
namespace {

using partir::Executable;
using partir::Program;
using partir::StatusOr;
using partir::Tensor;

// Seed streams.
constexpr uint64_t kWeightStream = 1, kBatchStream = 2;
// Tolerance of the first step against the unpartitioned reference.
constexpr float kReferenceTolerance = 5e-3f;

partir::TransformerConfig StepConfig() {
  partir::TransformerConfig config;
  config.num_layers = 2;
  config.d_model = 64;
  config.num_heads = 8;
  config.head_dim = 8;
  config.ffw_size = 128;
  config.vocab = 128;
  config.batch = 4;
  config.seq = 8;
  return config;
}

/** Initial parameters (norm scales near 1, matrices scaled by fan-in) and
 *  zero Adam moments, in the step's argument order [p..., m..., v...]. */
std::vector<Tensor> InitialState(const Program& program, int64_t num_params,
                                 uint64_t seed) {
  Rng rng(DeriveSeed(seed, kWeightStream));
  std::vector<Tensor> state;
  for (int64_t i = 0; i < num_params; ++i) {
    state.push_back(RandomParameter(
        program.input(static_cast<int>(i))->tensor_type().dims(), rng));
  }
  for (int moment = 0; moment < 2; ++moment) {
    for (int64_t i = 0; i < num_params; ++i) {
      state.emplace_back(
          program.input(static_cast<int>(i))->tensor_type().dims());
    }
  }
  return state;
}

/** The step's inputs: the carried state plus a fresh batch of tokens and
 *  one-hot targets. */
std::vector<Tensor> StepInputs(const std::vector<Tensor>& state,
                               const partir::TransformerConfig& config,
                               Rng& batches) {
  std::vector<Tensor> inputs(state.begin(),
                             state.begin() + 3 * config.NumParams());
  inputs.push_back(RandomIndices({config.batch, config.seq}, batches,
                                 config.vocab));
  inputs.push_back(OneHot(
      RandomIndices({config.batch, config.seq}, batches, config.vocab),
      config.vocab));
  return inputs;
}

bool LossFinite(const StatusOr<std::vector<Tensor>>& outputs) {
  return outputs.ok() && !outputs->empty() &&
         std::isfinite(outputs->back().data().at(0));
}

float MaxDeviation(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return INFINITY;
  float deviation = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].dims() != b[i].dims()) return INFINITY;
    float diff = Tensor::MaxAbsDiff(a[i], b[i]);
    if (!(diff <= deviation)) deviation = diff;  // NaN propagates
  }
  return deviation;
}

}  // namespace

Outcome RunTrainStep(const RunContext& ctx) {
  Tracer& tracer = *ctx.tracer;
  Outcome outcome;
  const partir::TransformerConfig config = StepConfig();
  const partir::Mesh mesh({{"batch", 2}, {"model", 2}});
  const std::vector<partir::Tactic> schedule =
      partir::schedules::TransformerBPMPZ3();
  partir::RunOptions sequential;
  sequential.num_threads = 1;

  auto capture = [&] {
    return Program::Capture([&](partir::Module& module) {
      return partir::BuildTransformerTrainingStep(module, config);
    });
  };
  Rng batches(DeriveSeed(ctx.seed, kBatchStream));
  std::vector<Tensor> first_inputs;
  {
    Program shape = capture();
    first_inputs = StepInputs(
        InitialState(shape, config.NumParams(), ctx.seed), config, batches);
  }

  // Set-up: capture, partition and the first step.
  std::vector<double> setup_s, capture_ms, overhead_ms;
  std::vector<Metrics> pipeline;
  std::unique_ptr<Program> program;
  std::unique_ptr<Executable> exe;
  StatusOr<std::vector<Tensor>> first = partir::InternalError("no setup");
  for (int i = 0; i < kSetups; ++i) {
    Span setup(tracer, "setup");
    Clock::time_point start = Clock::now();
    {
      Span span(tracer, "ir.capture");
      program = std::make_unique<Program>(capture());
    }
    capture_ms.push_back(MillisSince(start));
    Clock::time_point partition_start = Clock::now();
    StatusOr<Executable> partitioned = [&] {
      Span span(tracer, "partition.first");
      return program->Partition(schedule, mesh);
    }();
    const double partition_ms = MillisSince(partition_start);
    outcome.Record(partitioned.status(), "partition");
    if (!partitioned.ok()) return outcome;
    exe = std::make_unique<Executable>(std::move(partitioned).value());
    {
      Span span(tracer, "run.first");
      first = exe->Run(first_inputs);
    }
    setup_s.push_back(MillisSince(start) / 1e3);
    outcome.Record(LossFinite(first), "first step: " +
                                          first.status().ToString());
    overhead_ms.push_back(partition_ms -
                          exe->pipeline_stats().total_seconds * 1e3);
    pipeline.push_back(PipelineMetrics(exe->pipeline_stats()));
  }
  if (!first.ok()) return outcome;

  // The first step against the unpartitioned reference and the sequential
  // reference walker.
  {
    Span span(tracer, "check.first_step");
    StatusOr<std::vector<Tensor>> reference = program->Evaluate(first_inputs);
    StatusOr<std::vector<Tensor>> walked =
        exe->Run(first_inputs, sequential);
    const float deviation =
        reference.ok() ? MaxDeviation(*reference, *first) : INFINITY;
    outcome.Record(deviation <= kReferenceTolerance && walked.ok() &&
                       BitwiseEqual(*walked, *first),
                   "first step deviates from the reference by " +
                       std::to_string(deviation) +
                       " or from the sequential walker");
  }

  // Timed window: consecutive steps, each fed by the previous one.
  std::vector<Tensor> state = *first;
  std::vector<Tensor> last_inputs;
  std::vector<double> step_ms;
  Clock::time_point window = Clock::now();
  {
    Span measure(tracer, "measure");
    while (MillisSince(window) < ctx.seconds * 1e3) {
      std::vector<Tensor> inputs = StepInputs(state, config, batches);
      Clock::time_point start = Clock::now();
      StatusOr<std::vector<Tensor>> outputs = [&] {
        Span span(tracer, "run.step");
        return exe->Run(inputs);
      }();
      step_ms.push_back(MillisSince(start));
      const bool ok = LossFinite(outputs);
      outcome.Record(ok, "step: " + outputs.status().ToString());
      if (!ok) break;  // the next step has no state to start from
      state = std::move(outputs).value();
      last_inputs = std::move(inputs);
    }
    measure.Arg("steps", static_cast<double>(step_ms.size()));
  }
  const double window_s = MillisSince(window) / 1e3;
  {
    Span span(tracer, "check.last_step");
    StatusOr<std::vector<Tensor>> walked = exe->Run(last_inputs, sequential);
    outcome.Record(walked.ok() && BitwiseEqual(*walked, state),
                   "last step differs from the sequential walker");
  }

  StatusOr<partir::exec::MemoryStats> memory = exe->memory_stats();
  outcome.Record(memory.status(), "memory_stats");
  outcome.samples = static_cast<int64_t>(step_ms.size());
  outcome.e2e["setup_s"] = Median(setup_s);
  outcome.e2e["latency_p50_ms"] = Median(step_ms);
  outcome.e2e["latency_tail_ms"] = Percentile(step_ms, 0.9);
  outcome.e2e["throughput_per_s"] =
      static_cast<double>(step_ms.size()) / window_s;
  outcome.e2e["peak_arena_bytes"] =
      memory.ok() ? static_cast<double>(memory->peak_arena_bytes) : 0.0;
  outcome.e2e["comm_bytes_per_step"] = exe->Estimate().comm_bytes;

  if (ctx.layers) {
    Span span(tracer, "layers");
    Metrics& layers = outcome.layers;
    layers = MedianMetrics(pipeline);
    layers["ir.capture_ms"] = Median(capture_ms);
    layers["api.partition_overhead_ms"] = Median(overhead_ms);
    layers["api.cache_hit_ms"] =
        TimeMedianMs(tracer, "partition.hit", 3, [&] {
          outcome.Record(program->Partition(schedule, mesh).status(),
                         "cache hit");
        });
    AddModuleCounts(*exe, layers);
    ProbeEstimate(tracer, *exe, layers);
    ProbeRuns(tracer, *exe, first_inputs, 3, outcome, layers);
    ReplayBreakdown replay;
    {
      Span replay_span(tracer, "interp.replay", "probe");
      outcome.Record(ReplayDevice0(*exe, first_inputs, *first, replay),
                     "replay differs from the first step");
    }
    AddReplay(replay, layers);
    ProbePool(tracer, layers);
  }
  return outcome;
}

}  // namespace perfbench
