/**
 * @file
 * partir::Program: the single entry point to the PartIR stack (the facade
 * over Module/OpBuilder -> PartitionContext -> tactics -> propagation ->
 * SPMD lowering -> collective optimization). Users trace a program once —
 * either op-by-op through builder() or by capturing a model-zoo builder —
 * and compile it with one Partition call:
 *
 *   Program program;
 *   Value* x  = program.AddInput(TensorType({256, 8}), "x");
 *   Value* w  = program.AddInput(TensorType({8, 16}), "w");
 *   program.Return({program.builder().MatMul(x, w)});
 *   StatusOr<Executable> exe = program.Partition(
 *       {ManualPartition{"BP", {{"x", 0}}, "B"}}, Mesh({{"B", 4}}));
 *
 * Every failure mode (unknown axis, unmatched schedule key, indivisible
 * dim, unsealed program) is a typed, message-carrying Status — never a
 * silent bool or an abort.
 */
#ifndef PARTIR_API_PROGRAM_H_
#define PARTIR_API_PROGRAM_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/api/executable.h"
#include "src/api/partition_cache.h"
#include "src/interp/tensor.h"
#include "src/ir/builder.h"
#include "src/schedule/schedule.h"
#include "src/support/status.h"

namespace partir {

class Batcher;
struct BatchOptions;

/** A traced program plus the typed building surface (wraps Module +
 *  OpBuilder); partitionable any number of times. */
class Program {
 public:
  explicit Program(std::string name = "main");
  Program(Program&&) = default;
  Program& operator=(Program&&) = default;

  /**
   * Traces a program through an existing builder function (the model zoo's
   * `Build*` entry points): the callback adds a Func to the module and
   * returns it.
   *
   *   Program program = Program::Capture([&](Module& m) {
   *     return BuildTransformerTrainingStep(m, config);
   *   });
   */
  static Program Capture(const std::function<Func*(Module&)>& build);

  /**
   * Batch-parameterized capture: the callback receives the batch count and
   * must build the trace for that many stacked unit requests (typically by
   * scaling its config's batch field). The program itself is traced at
   * `batch`; the stored callback is what makes the program *servable* —
   * Program::Serve re-traces it per coalesced batch size, with
   * `build(module, 1)` defining the unit request every Submit must match.
   * The callback must be pure (no shared mutable state): the serving
   * batcher invokes it from worker threads.
   */
  static Program Capture(const std::function<Func*(Module&, int64_t)>& build,
                         int64_t batch);

  // ---- Building ----

  /** Appends a function input and returns its value. */
  Value* AddInput(TensorType type, const std::string& name);

  /** The typed op-creation surface (shape-inferring helpers for every op
   *  kind, composite layers, tags). */
  OpBuilder& builder() { return builder_; }

  /** Seals the program: `values` become the function outputs. */
  void Return(std::vector<Value*> values);

  // ---- Partitioning ----

  /**
   * Runs a schedule of tactics over `mesh` through the whole stack —
   * actions -> propagation -> SPMD lowering -> collective optimization —
   * and returns a runnable Executable with per-tactic metadata. The
   * program can be partitioned repeatedly (each call starts from a fresh
   * partitioning state; the trace itself is never mutated).
   *
   * Results are memoized on (trace fingerprint, schedule, mesh, options):
   * a repeated identical request is a cache hit that skips the pipeline
   * and returns an Executable sharing the cached, immutable result.
   * Respecialize shares the same cache; see cache_stats().
   */
  StatusOr<Executable> Partition(const std::vector<Tactic>& schedule,
                                 const Mesh& mesh,
                                 const PartitionOptions& options = {});

  // ---- Serving ----

  /**
   * Stands up a serving batcher in front of this program: callers Submit
   * unit-request inputs and receive future-returning responses; the batcher
   * coalesces same-shape requests into batches (BatchOptions), compiles a
   * per-batch-size executable through this program's partition cache, and
   * de-stacks per-request outputs. Requires the program to have been
   * captured with the batch-parameterized Capture overload. The batcher is
   * heap-allocated because it owns threads. Defined in src/serve/batcher.cc.
   */
  StatusOr<std::unique_ptr<Batcher>> Serve(
      const std::vector<Tactic>& schedule, const Mesh& mesh,
      const BatchOptions& batch_options,
      const PartitionOptions& options = {}) const;

  /** Hit/miss counters of the partition cache (shared with every
   *  Executable partitioned from this program). */
  PartitionCacheStats cache_stats() const { return cache_->stats(); }

  /**
   * Replaces this program's partition cache with a shared one, so several
   * programs (e.g. the per-batch-size traces a serving batcher builds from
   * one model) warm up and hit one memoization pool. Call before the first
   * Partition; existing Executables keep the cache they were built with.
   */
  void SharePartitionCache(std::shared_ptr<PartitionCache> cache) {
    PARTIR_CHECK(cache != nullptr) << "SharePartitionCache: null cache";
    cache_ = std::move(cache);
  }
  const std::shared_ptr<PartitionCache>& partition_cache() const {
    return cache_;
  }

  // ---- Persistence ----

  /**
   * Saves the traced module to `path` in the persistent-cache entry format
   * (src/persist/): a versioned, checksummed frame around the serialized
   * IR, written via temp-file + atomic rename. The trace round-trips
   * exactly — names, types, attributes, regions — so Load + Partition
   * hits the same persistent cache entries this program would.
   */
  Status Save(const std::string& path) const;

  /**
   * Rebuilds a Program from a Save file. Typed failures: kNotFound for a
   * missing file or a foreign/stale frame, kDataLoss for a damaged one or
   * one whose module does not verify.
   * The batch-parameterized serving builder is code, not data, and does not
   * survive a round trip: a loaded program is partitionable and runnable
   * but not servable.
   */
  static StatusOr<Program> Load(const std::string& path);

  /** Fingerprint of the traced program (persist::FingerprintFunc: a hash
   *  of its serialized bytes, value names included) — the trace component
   *  of the partition-cache key. Cached on the traced function keyed on
   *  its mutation version: an unchanged trace hashes once, while post-trace
   *  mutations through module()/builder() invalidate the cached digest and
   *  so can never serve a stale cache entry. */
  uint64_t TraceFingerprint() const;

  // ---- Reference execution ----

  /** Evaluates the traced program with sequential reference semantics
   *  (the executable specification partitions are verified against). */
  StatusOr<std::vector<Tensor>> Evaluate(
      const std::vector<Tensor>& inputs) const;

  /** Deterministic random inputs matching the program signature. */
  std::vector<Tensor> RandomInputs(uint64_t seed,
                                   float index_modulus = 0.0f) const;

  // ---- Inspection ----

  std::string Print() const;
  int num_inputs() const { return func_->body().num_args(); }
  Value* input(int i) const { return func_->body().arg(i); }
  const std::string& input_name(int i) const {
    return func_->body().arg(i)->name();
  }
  bool sealed() const;

  /** Underlying IR, for passes and tools built on the raw substrate. */
  Func* func() const { return func_; }
  Module& module() { return *module_; }

 private:
  struct CaptureTag {};
  explicit Program(CaptureTag)
      : module_(std::make_shared<Module>()), func_(nullptr),
        builder_(nullptr) {}

  // Shared with every Executable partitioned from this program, so
  // executables (and their Run/Print/Respecialize) outlive the Program.
  std::shared_ptr<Module> module_;
  Func* func_;
  OpBuilder builder_;
  // Partition memoization, shared with executables so Respecialize hits it.
  std::shared_ptr<PartitionCache> cache_ = std::make_shared<PartitionCache>();
  // Batch-parameterized builder (batch-aware Capture overload); what makes
  // the program servable. Null for imperatively built programs.
  std::function<Func*(Module&, int64_t)> batch_builder_;
};

}  // namespace partir

#endif  // PARTIR_API_PROGRAM_H_
