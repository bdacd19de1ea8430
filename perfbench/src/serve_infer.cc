// serve_infer: the transformer decode program (prefill plus 2 decode steps)
// behind Program::Serve with default BatchOptions, partitioned with
// InferenceBP + TransformerMP on {batch:2, model:2}. Many small runs instead
// of a few large ones, so dispatch, pool, sharding and batching changes show
// here. Two phases share one batcher:
//   - an open loop: seeded Poisson arrivals at kOpenRate, below the knee;
//     each request is timed from its scheduled send until its future resolves;
//   - a closed loop keeping 2 x max_batch requests outstanding.
#include <deque>
#include <thread>

#include "perfbench/src/workloads.h"
#include "src/models/serving.h"
#include "src/serve/batcher.h"
#include "src/spmd/batching.h"
#include "src/support/mpmc_queue.h"

namespace perfbench {
namespace {

using partir::Executable;
using partir::Program;
using partir::ServeFuture;
using partir::ServeResponse;
using partir::StatusOr;
using partir::Tensor;

// Well below the knee (150-200 req/s on a 4-core host), so a host that runs
// a third slower still serves the open loop without a growing queue.
constexpr double kOpenRate = 60.0;       // requests per second
constexpr double kOpenShare = 0.8;       // of the timed window
constexpr int64_t kSampleEvery = 16;     // ~1 in 16 responses re-checked
constexpr auto kPollPeriod = std::chrono::milliseconds(1);
// Seed streams.
constexpr uint64_t kWeightStream = 1, kRequestStream = 2, kArrivalStream = 3,
                   kSampleStream = 4;
// Request ids: warm-up requests live apart from the timed ones.
constexpr int64_t kWarmupIds = int64_t{1} << 40;

/**
 * Seeded requests: one set of shared weights, plus per-request batched
 * inputs (token ids) drawn from the request id's own stream, so any request
 * can be rebuilt from (seed, id) for verification.
 */
class RequestFactory {
 public:
  RequestFactory(const partir::serving::ServeWorkload& workload,
                 uint64_t seed)
      : seed_(DeriveSeed(seed, kRequestStream)),
        index_range_(static_cast<int64_t>(workload.index_modulus)) {
    Program unit = Program::Capture(workload.build, 1);
    Program doubled = Program::Capture(workload.build, 2);
    Rng weights(DeriveSeed(seed, kWeightStream));
    for (int i = 0; i < unit.num_inputs(); ++i) {
      const partir::TensorType& type = unit.input(i)->tensor_type();
      StatusOr<partir::BatchDimKind> kind = partir::ClassifyBatchDims(
          type.dims(), doubled.input(i)->tensor_type().dims(), 2);
      PARTIR_CHECK(kind.ok()) << kind.status().ToString();
      const bool batched = *kind == partir::BatchDimKind::kBatched;
      batched_.push_back(batched);
      integer_.push_back(type.dtype() == partir::DType::kS32);
      dims_.push_back(type.dims());
      shared_.push_back(batched ? Tensor()
                                : RandomParameter(type.dims(), weights));
    }
  }

  std::vector<Tensor> Make(int64_t id) const {
    Rng rng(DeriveSeed(seed_, static_cast<uint64_t>(id)));
    std::vector<Tensor> inputs;
    for (size_t i = 0; i < shared_.size(); ++i) {
      if (!batched_[i]) {
        inputs.push_back(shared_[i]);
      } else if (integer_[i]) {
        inputs.push_back(RandomIndices(dims_[i], rng, index_range_));
      } else {
        inputs.push_back(RandomTensor(dims_[i], rng, 0.5f));
      }
    }
    return inputs;
  }

  const std::vector<bool>& batched() const { return batched_; }

 private:
  uint64_t seed_;
  int64_t index_range_;
  std::vector<bool> batched_, integer_;
  std::vector<std::vector<int64_t>> dims_;
  std::vector<Tensor> shared_;
};

struct InFlight {
  int64_t id = 0;
  Clock::time_point due;  // scheduled send (open loop) or send (closed loop)
  ServeFuture future;
};

/** A resolved request, kept for the output checks. */
struct Completed {
  int64_t id = 0;
  double latency_ms = 0;
  bool in_window = true;
  ServeResponse response = partir::InternalError("unresolved");
};

bool Sampled(uint64_t seed, int64_t id) {
  Rng rng(DeriveSeed(DeriveSeed(seed, kSampleStream),
                     static_cast<uint64_t>(id)));
  return rng.UniformInt(kSampleEvery) == 0;
}

/**
 * Moves every ready future of `outstanding` into `done`, stamped now. Waits
 * up to one poll period on the oldest first: an in-order completion is
 * stamped the moment it resolves, an out-of-order one within a period.
 */
void Reap(std::deque<InFlight>& outstanding, Tracer& tracer, int64_t phase,
          Clock::time_point deadline, std::vector<Completed>& done) {
  if (outstanding.empty()) return;
  outstanding.front().future.wait_for(kPollPeriod);
  Clock::time_point now = Clock::now();
  for (auto it = outstanding.begin(); it != outstanding.end();) {
    if (it->future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      ++it;
      continue;
    }
    Completed completed;
    completed.id = it->id;
    completed.latency_ms = MillisBetween(it->due, now);
    completed.in_window = now <= deadline;
    completed.response = it->future.get();
    tracer.RecordAsync("request", it->id, phase, tracer.ToUs(it->due),
                       tracer.ToUs(now));
    done.push_back(std::move(completed));
    it = outstanding.erase(it);
  }
}

struct OpenLoopResult {
  std::vector<Completed> done;
  std::vector<double> submit_us;
  double late_ms_max = 0;
};

OpenLoopResult RunOpenLoop(partir::Batcher& batcher,
                           const RequestFactory& factory, uint64_t seed,
                           double seconds, Tracer& tracer) {
  Span phase(tracer, "phase.open");
  const std::vector<double> arrivals =
      PoissonArrivals(DeriveSeed(seed, kArrivalStream), kOpenRate, seconds);
  OpenLoopResult result;
  partir::BoundedMpmcQueue<InFlight> handoff(
      static_cast<int64_t>(arrivals.size()) + 1);
  // The collector stamps completions while this thread keeps the schedule.
  std::thread collector([&] {
    std::deque<InFlight> outstanding;
    for (;;) {
      if (outstanding.empty()) {
        std::optional<InFlight> next = handoff.Pop();
        if (!next.has_value()) break;  // closed and drained
        outstanding.push_back(std::move(*next));
      }
      while (std::optional<InFlight> more =
                 handoff.PopFor(std::chrono::microseconds(0))) {
        outstanding.push_back(std::move(*more));
      }
      Reap(outstanding, tracer, phase.id(), Clock::time_point::max(),
           result.done);
    }
  });
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const int64_t id = static_cast<int64_t>(i);
    std::vector<Tensor> inputs = factory.Make(id);
    InFlight request;
    request.id = id;
    request.due = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(arrivals[i]));
    std::this_thread::sleep_until(request.due);
    Clock::time_point sent = Clock::now();
    {
      Span span(tracer, "serve.submit");
      request.future = batcher.Submit(std::move(inputs));
    }
    result.submit_us.push_back(MillisSince(sent) * 1e3);
    result.late_ms_max =
        std::max(result.late_ms_max, MillisBetween(request.due, sent));
    PARTIR_CHECK(handoff.Push(request)) << "handoff closed early";
  }
  handoff.Close();
  collector.join();
  phase.Arg("requests", static_cast<double>(arrivals.size()));
  return result;
}

struct ClosedLoopResult {
  std::vector<Completed> done;
  /** Completions inside the window, and the time from the phase start to
   *  the last of them. */
  int64_t completed = 0;
  double elapsed_s = 0;
};

/** Keeps `depth` requests outstanding for `seconds`, then drains. */
ClosedLoopResult RunClosedLoop(partir::Batcher& batcher,
                               const RequestFactory& factory,
                               int64_t first_id, int64_t depth,
                               double seconds, Tracer& tracer) {
  Span phase(tracer, "phase.closed");
  ClosedLoopResult result;
  std::deque<InFlight> outstanding;
  int64_t next_id = first_id;
  auto submit = [&] {
    InFlight request;
    request.id = next_id++;
    std::vector<Tensor> inputs = factory.Make(request.id);
    request.due = Clock::now();
    request.future = batcher.Submit(std::move(inputs));
    outstanding.push_back(std::move(request));
  };
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (int64_t i = 0; i < depth; ++i) submit();
  while (!outstanding.empty()) {
    const size_t before = result.done.size();
    Reap(outstanding, tracer, phase.id(), deadline, result.done);
    for (size_t i = before; i < result.done.size(); ++i) {
      if (result.done[i].in_window && result.done[i].response.ok()) {
        ++result.completed;
        result.elapsed_s = MillisSince(start) / 1e3;
      }
      if (Clock::now() < deadline) submit();
    }
  }
  phase.Arg("requests", static_cast<double>(result.done.size()));
  return result;
}

/** Warm-up: k requests at once for every batch size k, so each size's
 *  executable is compiled before timing. */
void WarmUp(partir::Batcher& batcher, const RequestFactory& factory,
            int64_t max_batch, Outcome& outcome) {
  int64_t id = kWarmupIds;
  for (int64_t k = 1; k <= max_batch; ++k) {
    std::vector<ServeFuture> futures;
    for (int64_t r = 0; r < k; ++r) {
      futures.push_back(batcher.Submit(factory.Make(id++)));
    }
    for (ServeFuture& future : futures) {
      ServeResponse response = future.get();
      outcome.Record(response.status(), "warm-up request");
    }
  }
}

double MeanBatch(const partir::BatcherStats& before,
                 const partir::BatcherStats& after) {
  const int64_t batches = after.batches - before.batches;
  return batches == 0 ? 0.0
                      : static_cast<double>(after.batched_requests -
                                            before.batched_requests) /
                            static_cast<double>(batches);
}

}  // namespace

Outcome RunServeInfer(const RunContext& ctx) {
  Tracer& tracer = *ctx.tracer;
  Outcome outcome;
  const partir::serving::ServeWorkload workload =
      partir::serving::TransformerInferWorkload();
  const partir::BatchOptions batch_options;  // the defaults users get
  const RequestFactory factory(workload, ctx.seed);

  // Set-up: capture, Serve, and the warm-up compiles of every batch size.
  std::vector<double> setup_s, capture_ms;
  std::unique_ptr<Program> program;
  std::unique_ptr<partir::Batcher> batcher;
  for (int i = 0; i < kSetups; ++i) {
    if (batcher != nullptr) batcher->Shutdown();
    Span setup(tracer, "setup");
    Clock::time_point start = Clock::now();
    {
      Span span(tracer, "ir.capture");
      program =
          std::make_unique<Program>(Program::Capture(workload.build, 1));
    }
    capture_ms.push_back(MillisSince(start));
    StatusOr<std::unique_ptr<partir::Batcher>> served =
        program->Serve(workload.schedule, workload.mesh, batch_options);
    outcome.Record(served.status(), "Serve");
    if (!served.ok()) return outcome;
    batcher = std::move(served).value();
    {
      Span span(tracer, "serve.warmup");
      WarmUp(*batcher, factory, batch_options.max_batch, outcome);
    }
    setup_s.push_back(MillisSince(start) / 1e3);
  }

  // The unbatched and the largest-batch executables, through the cache the
  // batcher filled (untimed).
  StatusOr<Executable> unit_exe =
      program->Partition(workload.schedule, workload.mesh);
  Program full = Program::Capture(workload.build, batch_options.max_batch);
  full.SharePartitionCache(program->partition_cache());
  StatusOr<Executable> full_exe =
      full.Partition(workload.schedule, workload.mesh);
  outcome.Record(unit_exe.ok() && full_exe.ok(),
                 "partition: " + unit_exe.status().ToString() + " / " +
                     full_exe.status().ToString());
  if (!unit_exe.ok() || !full_exe.ok()) return outcome;

  // Timed window: the open loop, then the closed loop.
  const double open_s = ctx.seconds * kOpenShare;
  const double closed_s = ctx.seconds - open_s;
  const partir::BatcherStats before_open = batcher->stats();
  OpenLoopResult open =
      RunOpenLoop(*batcher, factory, ctx.seed, open_s, tracer);
  const partir::BatcherStats after_open = batcher->stats();
  const ClosedLoopResult closed = RunClosedLoop(
      *batcher, factory, static_cast<int64_t>(open.done.size()),
      2 * batch_options.max_batch, closed_s, tracer);
  const partir::BatcherStats after_closed = batcher->stats();

  // Output checks: every future resolved with outputs; a seeded sample must
  // equal an unbatched Run of the same request bitwise.
  std::vector<double> open_ms;
  {
    Span span(tracer, "check.responses");
    auto check = [&](const Completed& completed) {
      bool ok = completed.response.ok();
      if (ok && Sampled(ctx.seed, completed.id)) {
        StatusOr<std::vector<Tensor>> expected =
            unit_exe->Run(factory.Make(completed.id));
        ok = expected.ok() && BitwiseEqual(*expected, *completed.response);
      }
      outcome.Record(ok, "request " + std::to_string(completed.id) + ": " +
                             completed.response.status().ToString());
    };
    for (const Completed& completed : open.done) {
      check(completed);
      open_ms.push_back(completed.latency_ms);
    }
    for (const Completed& completed : closed.done) check(completed);
  }

  StatusOr<partir::exec::MemoryStats> memory = full_exe->memory_stats();
  outcome.Record(memory.status(), "memory_stats");
  outcome.samples = static_cast<int64_t>(open_ms.size());
  outcome.e2e["setup_s"] = Median(setup_s);
  outcome.e2e["latency_p50_ms"] = Median(open_ms);
  // p95 rests on ~60 of the ~1,200 open-loop samples; their p99 on ~12,
  // which swings by a quarter from one arrival schedule to the next.
  outcome.e2e["latency_tail_ms"] = Percentile(open_ms, 0.95);
  outcome.e2e["throughput_per_s"] =
      closed.elapsed_s > 0
          ? static_cast<double>(closed.completed) / closed.elapsed_s
          : 0.0;
  outcome.e2e["peak_arena_bytes"] =
      memory.ok() ? static_cast<double>(memory->peak_arena_bytes) : 0.0;
  outcome.e2e["comm_bytes_per_step"] = full_exe->Estimate().comm_bytes;

  if (ctx.layers) {
    Span span(tracer, "layers");
    Metrics& layers = outcome.layers;
    partir::PartitionOptions cold;
    cold.use_cache = false;
    std::vector<Metrics> pipeline;
    std::vector<double> overhead_ms;
    for (int i = 0; i < kSetups; ++i) {
      Span partition(tracer, "partition.cold");
      Clock::time_point start = Clock::now();
      StatusOr<Executable> exe =
          program->Partition(workload.schedule, workload.mesh, cold);
      outcome.Record(exe.status(), "cold partition");
      if (!exe.ok()) continue;
      overhead_ms.push_back(MillisSince(start) -
                            exe->pipeline_stats().total_seconds * 1e3);
      pipeline.push_back(PipelineMetrics(exe->pipeline_stats()));
    }
    layers = MedianMetrics(pipeline);
    layers["ir.capture_ms"] = Median(capture_ms);
    layers["api.partition_overhead_ms"] = Median(overhead_ms);
    layers["api.cache_hit_ms"] =
        TimeMedianMs(tracer, "partition.hit", 3, [&] {
          outcome.Record(
              program->Partition(workload.schedule, workload.mesh).status(),
              "cache hit");
        });
    AddModuleCounts(*unit_exe, layers);
    ProbeEstimate(tracer, *unit_exe, layers);

    const std::vector<Tensor> request = factory.Make(0);
    ProbeRuns(tracer, *unit_exe, request, 10, outcome, layers);
    StatusOr<std::vector<Tensor>> unit_out = unit_exe->Run(request);
    outcome.Record(unit_out.status(), "unit run");
    ReplayBreakdown replay;
    if (unit_out.ok()) {
      Span replay_span(tracer, "interp.replay", "probe");
      outcome.Record(ReplayDevice0(*unit_exe, request, *unit_out, replay),
                     "replay differs from the unbatched run");
    }
    AddReplay(replay, layers);
    layers["interp.kernel_k1_ms"] = replay.total_ms();

    // The executables a batch of 1 and a full batch run, and the stacking
    // around them.
    std::vector<std::vector<Tensor>> requests;
    for (int64_t r = 0; r < batch_options.max_batch; ++r) {
      requests.push_back(factory.Make(r));
    }
    std::vector<Tensor> stacked;
    auto stack = [&] {
      stacked.clear();
      for (size_t i = 0; i < request.size(); ++i) {
        if (!factory.batched()[i]) {
          stacked.push_back(request[i]);
          continue;
        }
        std::vector<const Tensor*> parts;
        for (const std::vector<Tensor>& r : requests) parts.push_back(&r[i]);
        StatusOr<Tensor> joined = partir::StackBatch(parts);
        PARTIR_CHECK(joined.ok()) << joined.status().ToString();
        stacked.push_back(std::move(joined).value());
      }
    };
    layers["serve.stack_us"] =
        TimeMedianMs(tracer, "serve.stack", 50, stack) * 1e3;
    layers["serve.service_k1_ms"] =
        TimeMedianMs(tracer, "serve.service_k1", 20, [&] {
          outcome.Record(unit_exe->Run(request).status(), "k1 run");
        });
    StatusOr<std::vector<Tensor>> full_out = full_exe->Run(stacked);
    outcome.Record(full_out.status(), "k8 run");
    layers["serve.service_k8_ms"] =
        TimeMedianMs(tracer, "serve.service_k8", 10, [&] {
          outcome.Record(full_exe->Run(stacked).status(), "k8 run");
        });
    if (full_out.ok()) {
      layers["serve.unstack_us"] =
          TimeMedianMs(tracer, "serve.unstack", 50, [&] {
            for (const Tensor& output : *full_out) {
              StatusOr<std::vector<Tensor>> parts =
                  partir::UnstackBatch(output, batch_options.max_batch);
              PARTIR_CHECK(parts.ok()) << parts.status().ToString();
            }
          }) * 1e3;
    }
    layers["serve.overhead_ms"] =
        outcome.e2e["latency_p50_ms"] - layers["serve.service_k1_ms"];
    layers["serve.batches"] =
        static_cast<double>(after_closed.batches - before_open.batches);
    layers["serve.mean_batch_open"] = MeanBatch(before_open, after_open);
    layers["serve.mean_batch_closed"] = MeanBatch(after_open, after_closed);
    layers["serve.compiles"] = static_cast<double>(after_closed.compiles);
    layers["serve.fallbacks"] = static_cast<double>(after_closed.fallbacks);
    layers["serve.submit_us_p99"] = Percentile(open.submit_us, 0.99);
    layers["gen.late_ms_max"] = open.late_ms_max;
    ProbePool(tracer, layers);
  }
  batcher->Shutdown();
  return outcome;
}

}  // namespace perfbench
