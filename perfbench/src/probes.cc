// Seeded inputs and the per-layer probes the three workloads share.
#include <cmath>
#include <cstring>
#include <thread>

#include "perfbench/src/workloads.h"
#include "src/exec/worker_pool.h"
#include "src/interp/interpreter.h"
#include "src/spmd/collectives.h"

namespace perfbench {

using partir::Executable;
using partir::Tensor;

void Outcome::Record(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void Outcome::Record(const partir::Status& status, const char* what) {
  if (status.ok()) {
    ++attempted;
    return;
  }
  Record(false, std::string(what) + ": " + status.ToString());
}

// ---- Seeded inputs ----

Tensor RandomTensor(const std::vector<int64_t>& dims, Rng& rng, float scale) {
  Tensor tensor(dims);
  for (float& value : tensor.data()) {
    value = static_cast<float>((2.0 * rng.Uniform() - 1.0) * scale);
  }
  return tensor;
}

Tensor RandomParameter(const std::vector<int64_t>& dims, Rng& rng) {
  if (dims.size() == 1) {
    Tensor scale = RandomTensor(dims, rng, 0.1f);
    for (float& value : scale.data()) value += 1.0f;
    return scale;
  }
  return RandomTensor(dims, rng,
                      0.5f / std::sqrt(static_cast<float>(dims[0])));
}

Tensor RandomIndices(const std::vector<int64_t>& dims, Rng& rng,
                     int64_t range) {
  Tensor tensor(dims);
  for (float& value : tensor.data()) {
    value = static_cast<float>(rng.UniformInt(range));
  }
  return tensor;
}

Tensor OneHot(const Tensor& indices, int64_t depth) {
  std::vector<int64_t> dims = indices.dims();
  dims.push_back(depth);
  Tensor tensor(dims);
  for (int64_t i = 0; i < indices.size(); ++i) {
    tensor.at(i * depth + static_cast<int64_t>(indices.at(i))) = 1.0f;
  }
  return tensor;
}

bool BitwiseEqual(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].dims() != b[i].dims()) return false;
    if (std::memcmp(a[i].data().data(), b[i].data().data(),
                    sizeof(float) * a[i].data().size()) != 0) {
      return false;
    }
  }
  return true;
}

// ---- Per-layer probes ----

double TimeMedianMs(Tracer& tracer, const std::string& name, int reps,
                    const std::function<void()>& fn) {
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    Span span(tracer, name, "probe");
    Clock::time_point start = Clock::now();
    fn();
    samples.push_back(MillisSince(start));
  }
  return Median(samples);
}

Metrics PipelineMetrics(const partir::PipelineStats& stats) {
  Metrics out;
  double tactic_ms = 0, report_ms = 0, propagate_ms = 0;
  int64_t propagate_steps = 0;
  for (const partir::PassStats& pass : stats.passes) {
    const double ms = pass.seconds * 1e3;
    if (pass.name.rfind("tactic[", 0) == 0) tactic_ms += ms;
    if (pass.name.rfind("report[", 0) == 0) report_ms += ms;
    if (pass.name == "propagate") {
      propagate_ms += ms;
      propagate_steps += pass.changes;
    }
  }
  out["pass.tactic_ms"] = tactic_ms;
  out["pass.report_ms"] = report_ms;
  out["core.propagate_ms"] = propagate_ms;
  out["core.propagate_steps"] = static_cast<double>(propagate_steps);
  auto pass_ms = [&](const char* name) {
    const partir::PassStats* pass = stats.Find(name);
    return pass == nullptr ? 0.0 : pass->seconds * 1e3;
  };
  out["spmd.lower_ms"] = pass_ms("lower-to-spmd");
  out["spmd.fuse_gather_slice_ms"] = pass_ms("fuse-gather-slice");
  out["spmd.form_reduce_scatter_ms"] = pass_ms("form-reduce-scatter");
  out["spmd.dce_ms"] = pass_ms("dce");
  out["spmd.plan_collectives_ms"] = pass_ms("plan-collectives");
  out["exec.compile_ms"] = pass_ms("compile-device-programs");
  // The optimize fixpoint: its first member runs once per iteration.
  const partir::PassStats* fuse = stats.Find("fuse-gather-slice");
  out["spmd.fixpoint_runs"] =
      fuse == nullptr ? 0.0 : static_cast<double>(fuse->runs);
  int64_t rewrites = 0;
  for (const char* name : {"fuse-gather-slice", "form-reduce-scatter", "dce"}) {
    if (const partir::PassStats* pass = stats.Find(name)) {
      rewrites += pass->changes;
    }
  }
  out["spmd.rewrites"] = static_cast<double>(rewrites);
  return out;
}

Metrics MedianMetrics(const std::vector<Metrics>& samples) {
  std::map<std::string, std::vector<double>> by_name;
  for (const Metrics& sample : samples) {
    for (const auto& [name, value] : sample) by_name[name].push_back(value);
  }
  Metrics out;
  for (auto& [name, values] : by_name) out[name] = Median(values);
  return out;
}

void AddModuleCounts(const Executable& exe, Metrics& out) {
  const partir::CollectiveStats& collectives = exe.Collectives();
  out["spmd.ops"] = static_cast<double>(partir::CountOps(*exe.spmd().main()));
  out["spmd.ag"] = static_cast<double>(collectives.all_gather);
  out["spmd.ar"] = static_cast<double>(collectives.all_reduce);
  out["spmd.rs"] = static_cast<double>(collectives.reduce_scatter);
  out["spmd.a2a"] = static_cast<double>(collectives.all_to_all);
}

void ProbeEstimate(Tracer& tracer, const Executable& exe, Metrics& out) {
  out["sim.estimate_ms"] = TimeMedianMs(tracer, "sim.estimate", 5, [&] {
    partir::SimEstimate estimate = exe.Estimate(partir::Tpu_v3());
    PARTIR_CHECK(estimate.step_seconds > 0) << "empty estimate";
  });
}

void ProbeRuns(Tracer& tracer, const Executable& exe,
               const std::vector<Tensor>& inputs, int reps, Outcome& outcome,
               Metrics& out) {
  partir::RunOptions interp_seq;
  interp_seq.num_threads = 1;
  partir::RunOptions exec_threaded;
  exec_threaded.backend = partir::ExecBackend::kCompiled;
  partir::RunOptions exec_seq = exec_threaded;
  exec_seq.num_threads = 1;

  auto run_ms = [&](const char* name, const partir::RunOptions& options) {
    return TimeMedianMs(tracer, name, reps, [&] {
      outcome.Record(exe.Run(inputs, options).status(), name);
    });
  };
  out["interp.run_seq_ms"] = run_ms("run.interp.seq", interp_seq);
  out["interp.run_threaded_ms"] = run_ms("run.interp.threaded", {});
  out["exec.run_seq_ms"] = run_ms("run.exec.seq", exec_seq);
  out["exec.run_threaded_ms"] = run_ms("run.exec.threaded", exec_threaded);
  const double devices = static_cast<double>(exe.mesh().NumDevices());
  out["exec.parallel_overhead_ms"] =
      out["interp.run_threaded_ms"] - out["interp.run_seq_ms"] / devices;

  auto allocations = [&](const char* key, partir::RunOptions options) {
    partir::RunStats stats;
    options.stats = &stats;
    outcome.Record(exe.Run(inputs, options).status(), key);
    out[key] = static_cast<double>(stats.allocations);
  };
  allocations("interp.allocations", {});
  allocations("exec.allocations", exec_threaded);

  const partir::Mesh& mesh = exe.mesh();
  out["spmd.shard_ms"] = TimeMedianMs(tracer, "spmd.shard", reps, [&] {
    for (size_t i = 0; i < inputs.size(); ++i) {
      partir::ShardTensor(inputs[i], exe.input_sharding(static_cast<int>(i)),
                          mesh);
    }
  });
  partir::StatusOr<std::vector<Tensor>> outputs = exe.Run(inputs);
  outcome.Record(outputs.status(), "unshard probe run");
  if (!outputs.ok()) return;
  std::vector<partir::PerDevice> shards;
  for (size_t i = 0; i < outputs->size(); ++i) {
    shards.push_back(partir::ShardTensor(
        (*outputs)[i], exe.output_sharding(static_cast<int>(i)), mesh));
  }
  out["spmd.unshard_ms"] = TimeMedianMs(tracer, "spmd.unshard", reps, [&] {
    for (size_t i = 0; i < shards.size(); ++i) {
      partir::UnshardTensor(shards[i],
                            exe.output_sharding(static_cast<int>(i)), mesh);
    }
  });
}

namespace {

enum class KernelClass { kDot, kElementwise, kReduce, kDataMovement };

KernelClass Classify(partir::OpKind kind) {
  using partir::OpKind;
  switch (kind) {
    case OpKind::kDot:
    case OpKind::kConvolution:
    case OpKind::kConvInputGrad:
    case OpKind::kConvFilterGrad:
      return KernelClass::kDot;
    case OpKind::kReduce:
      return KernelClass::kReduce;
    default:
      if (partir::IsUnaryElementwise(kind) ||
          partir::IsBinaryElementwise(kind)) {
        return KernelClass::kElementwise;
      }
      // Layout, indexing, constants, all_slice and any region op left in
      // the device-local program.
      return KernelClass::kDataMovement;
  }
}

void Charge(ReplayBreakdown& out, KernelClass kernel, double ms) {
  switch (kernel) {
    case KernelClass::kDot: out.dot_ms += ms; ++out.dot_ops; break;
    case KernelClass::kElementwise:
      out.elementwise_ms += ms;
      ++out.elementwise_ops;
      break;
    case KernelClass::kReduce: out.reduce_ms += ms; ++out.reduce_ops; break;
    case KernelClass::kDataMovement:
      out.data_movement_ms += ms;
      ++out.data_movement_ops;
      break;
  }
}

}  // namespace

bool ReplayDevice0(const Executable& exe, const std::vector<Tensor>& inputs,
                   const std::vector<Tensor>& expected, ReplayBreakdown& out) {
  using partir::OpKind;
  const partir::SpmdModule& spmd = exe.spmd();
  const partir::Mesh& mesh = spmd.mesh;
  const int64_t devices = mesh.NumDevices();
  std::shared_ptr<const partir::CollectivePlan> plan = spmd.plan;
  if (plan == nullptr) plan = partir::BuildCollectivePlan(mesh, *spmd.module);
  const partir::Func& func = *spmd.main();

  std::vector<partir::Env> envs(devices);
  for (int i = 0; i < func.body().num_args(); ++i) {
    partir::PerDevice shards =
        partir::ShardTensor(inputs[i], spmd.input_shardings[i], mesh);
    for (int64_t d = 0; d < devices; ++d) {
      envs[d][func.body().arg(i)] = std::move(shards[d]);
    }
  }

  for (const auto& op : func.body().ops()) {
    if (op->kind() == OpKind::kReturn) break;
    auto planned = plan->ops.find(op.get());
    if (planned == plan->ops.end()) {
      const KernelClass kernel = Classify(op->kind());
      for (int64_t d = 0; d < devices; ++d) {
        Clock::time_point start = Clock::now();
        if (op->num_regions() > 0) {
          partir::EvalOpInEnv(*op, envs[d]);
        } else {
          std::vector<Tensor> operands;
          operands.reserve(op->operands().size());
          for (const partir::Value* operand : op->operands()) {
            operands.push_back(envs[d].at(operand));
          }
          start = Clock::now();  // time the kernel, not the operand copies
          std::vector<Tensor> results = partir::EvalOp(*op, operands);
          for (int r = 0; r < op->num_results(); ++r) {
            envs[d][op->result(r)] = std::move(results[r]);
          }
        }
        if (d == 0) Charge(out, kernel, MillisSince(start));
      }
      continue;
    }
    const partir::CollectiveOp& collective = planned->second;
    if (collective.kind == OpKind::kAllSlice) {
      for (int64_t d = 0; d < devices; ++d) {
        Clock::time_point start = Clock::now();
        envs[d][op->result()] = partir::ApplySliceSteps(
            envs[d].at(op->operand(0)), collective.slice_steps_per_device[d]);
        if (d == 0) {
          Charge(out, KernelClass::kDataMovement, MillisSince(start));
        }
      }
      continue;
    }
    for (const std::vector<int64_t>& group : collective.groups->groups) {
      std::vector<Tensor> contributions;
      bool holds_device0 = false;
      for (int64_t d : group) {
        contributions.push_back(envs[d].at(op->operand(0)));
        holds_device0 = holds_device0 || d == 0;
      }
      Clock::time_point start = Clock::now();
      std::vector<Tensor> results =
          partir::EvalGroupCollective(collective, contributions);
      if (holds_device0) {
        out.collective_ms += MillisSince(start);
        ++out.collective_calls;
      }
      for (size_t p = 0; p < group.size(); ++p) {
        envs[group[p]][op->result()] = std::move(results[p]);
      }
    }
  }

  const partir::Operation* ret = func.body().terminator();
  std::vector<Tensor> replayed;
  for (int i = 0; i < static_cast<int>(ret->operands().size()); ++i) {
    partir::PerDevice shards(devices);
    for (int64_t d = 0; d < devices; ++d) {
      shards[d] = envs[d].at(ret->operand(i));
    }
    replayed.push_back(
        partir::UnshardTensor(shards, spmd.output_shardings[i], mesh));
  }
  return BitwiseEqual(replayed, expected);
}

void AddReplay(const ReplayBreakdown& replay, Metrics& out) {
  out["interp.dot_ms"] = replay.dot_ms;
  out["interp.dot.ops"] = static_cast<double>(replay.dot_ops);
  out["interp.elementwise_ms"] = replay.elementwise_ms;
  out["interp.elementwise.ops"] = static_cast<double>(replay.elementwise_ops);
  out["interp.reduce_ms"] = replay.reduce_ms;
  out["interp.reduce.ops"] = static_cast<double>(replay.reduce_ops);
  out["interp.data_movement_ms"] = replay.data_movement_ms;
  out["interp.data_movement.ops"] =
      static_cast<double>(replay.data_movement_ops);
  out["spmd.collective_ms"] = replay.collective_ms;
  out["spmd.collective_calls"] = static_cast<double>(replay.collective_calls);
}

void ProbePool(Tracer& tracer, Metrics& out) {
  constexpr int64_t kThreads = 4;
  constexpr int kPoolCalls = 2000;
  constexpr int kSpawnCalls = 400;
  auto noop = [](int64_t) {};
  std::vector<double> pool_us, spawn_us;
  {
    Span span(tracer, "exec.pool_dispatch", "probe");
    partir::exec::WorkerPool pool(kThreads);
    pool.Run(kThreads, noop);  // the workers are up before timing starts
    for (int call = 0; call < kPoolCalls; ++call) {
      Clock::time_point start = Clock::now();
      pool.Run(kThreads, noop);
      pool_us.push_back(MillisSince(start) * 1e3);
    }
    span.Arg("calls", kPoolCalls);
  }
  {
    Span span(tracer, "exec.spawn", "probe");
    for (int call = 0; call < kSpawnCalls; ++call) {
      Clock::time_point start = Clock::now();
      std::vector<std::thread> threads;
      for (int64_t t = 0; t < kThreads; ++t) threads.emplace_back(noop, t);
      for (std::thread& thread : threads) thread.join();
      spawn_us.push_back(MillisSince(start) * 1e3);
    }
    span.Arg("calls", kSpawnCalls);
  }
  out["exec.pool_dispatch_us"] = Median(pool_us);
  out["exec.spawn_us"] = Median(spawn_us);
}

}  // namespace perfbench
