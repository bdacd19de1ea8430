/**
 * @file
 * The serving batcher: a thread-safe request queue in front of
 * Executable::Run — the paper's partitioned-inference story under real
 * request load. Callers Submit (shape-key, inputs, deadline) and get a
 * future; a dispatcher thread coalesces same-shape requests into batches
 * (up to BatchOptions::max_batch, waiting at most max_delay_us for
 * co-riders), stacks their batched inputs along the batch axis, and
 * max_inflight workers execute the batches, de-stacking per-request
 * outputs with per-request Status propagation — one malformed request
 * fails alone, never its batch.
 *
 * Each (shape class, batch size) pair compiles once: the batcher re-traces
 * the model at the stacked batch size through its TraceFactory and
 * partitions it with the serving schedule through ONE shared partition
 * cache (single-flight, so a miss-storm of workers warming the same shape
 * class runs the pipeline once). Batch sizes whose dims the schedule
 * cannot shard fall back to an unpartitioned (replicated) executable
 * instead of failing the traffic. Respecialize() swaps the serving
 * schedule live: in-flight batches finish on the old executables, later
 * batches recompile through Executable::Respecialize.
 */
#ifndef PARTIR_SERVE_BATCHER_H_
#define PARTIR_SERVE_BATCHER_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/api/partir.h"
#include "src/support/mpmc_queue.h"

namespace partir {

/** Knobs of the serving batcher. */
struct BatchOptions {
  /** Most unit requests coalesced into one batch. 1 disables batching. */
  int64_t max_batch = 8;
  /** Longest a request waits for co-riders before its batch is dispatched
   *  anyway (the classic batching latency/throughput knob). */
  int64_t max_delay_us = 2000;
  /** Batches executing concurrently (worker threads). */
  int64_t max_inflight = 2;
  /** Bound of the submission queue; a full queue blocks Submit
   *  (backpressure) instead of growing without bound. */
  int64_t queue_capacity = 256;
  /** Runtime options for each batch Run (threaded/sequential, determinism
   *  — group-position-ordered collectives keep batched outputs bit-
   *  identical to unbatched runs). */
  RunOptions run;
};

/** Counters of one Batcher (monotonic over its lifetime). */
struct BatcherStats {
  int64_t submitted = 0;   // requests accepted into the queue
  int64_t completed = 0;   // futures resolved with outputs
  int64_t failed = 0;      // futures resolved with a non-deadline error
  int64_t expired = 0;     // futures resolved kDeadlineExceeded
  int64_t rejected = 0;    // submitted after shutdown (kUnavailable)
  int64_t batches = 0;     // batches executed
  int64_t batched_requests = 0;  // requests across those batches
  int64_t max_batch_observed = 0;
  int64_t compiles = 0;    // (shape class, batch size) compilations
  int64_t fallbacks = 0;   // compilations that fell back to unpartitioned
  /** The shared partition cache's counters (warm-up visibility). */
  PartitionCacheStats cache;

  /** Mean requests per executed batch (0 when nothing ran). */
  double MeanBatchSize() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(batched_requests) /
                              static_cast<double>(batches);
  }
};

/** What a Submit future resolves to: global output tensors, or a typed
 *  error (per-request: validation failures, deadline expiry and shutdown
 *  never poison batch-mates). */
using ServeResponse = StatusOr<std::vector<Tensor>>;
using ServeFuture = std::future<ServeResponse>;

class Batcher {
 public:
  /**
   * Builds the traced Program for `batch` stacked unit requests of shape
   * class `shape_key`. Invoked from worker threads (must be pure) and only
   * on compilation misses — each (shape_key, batch) is built once.
   * `factory(key, 1)` defines the unit signature requests of that class
   * must match.
   */
  using TraceFactory =
      std::function<StatusOr<Program>(const std::string& shape_key,
                                      int64_t batch)>;

  /** No deadline: the request waits as long as the queue requires. */
  static constexpr std::chrono::microseconds kNoDeadline =
      std::chrono::microseconds::max();

  Batcher(TraceFactory factory, std::vector<Tactic> schedule, Mesh mesh,
          BatchOptions batch_options = {},
          PartitionOptions partition_options = {},
          std::shared_ptr<PartitionCache> cache = nullptr);
  ~Batcher();  // Shutdown() — drains, then joins all threads

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /**
   * Enqueues one unit request of `shape_key` and returns the future its
   * response arrives on. `inputs` must match the class's unit trace
   * (factory(shape_key, 1)) exactly; mismatches resolve that future with a
   * typed error. A request still queued `timeout` after submission
   * resolves kDeadlineExceeded (expiry is checked up to dispatch; a
   * request whose batch already started executing completes). Blocks while
   * the submission queue is full; after Shutdown, resolves immediately
   * with kUnavailable.
   */
  ServeFuture Submit(const std::string& shape_key, std::vector<Tensor> inputs,
                     std::chrono::microseconds timeout = kNoDeadline);

  /** Single-shape-class sugar (the Program::Serve pattern). */
  ServeFuture Submit(std::vector<Tensor> inputs,
                     std::chrono::microseconds timeout = kNoDeadline) {
    return Submit(std::string(), std::move(inputs), timeout);
  }

  /**
   * Swaps the serving schedule live. In-flight batches finish under the
   * old schedule; every later batch re-specializes its shape class to the
   * new one (through the shared partition cache, so flipping back is a
   * hit). The paper's incremental-respecialization workflow, applied to a
   * running endpoint.
   */
  void Respecialize(std::vector<Tactic> new_schedule);

  /**
   * Stops accepting, flushes every queued request into batches, waits for
   * all of them to execute and resolves every outstanding future, then
   * joins the dispatcher and workers. Idempotent; also run by the
   * destructor.
   */
  void Shutdown();

  BatcherStats stats() const;
  const Mesh& mesh() const { return mesh_; }

 private:
  struct Request {
    std::string key;
    std::vector<Tensor> inputs;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline;
    std::promise<ServeResponse> promise;
  };
  struct Batch {
    std::string key;
    std::vector<Request> requests;
  };
  /**
   * One compiled (shape class, batch size): the executable over the
   * k-stacked trace (which it keeps alive) plus the per-argument batch-axis
   * classification derived from shape evidence against the unit trace.
   */
  struct CompiledBatch {
    Executable exe;
    std::vector<bool> batched_inputs;
    std::vector<bool> batched_outputs;
    int64_t schedule_version = 0;
    bool fallback = false;  // compiled unpartitioned
  };
  /** Unit signature of one shape class (from factory(key, 1)): what every
   *  submitted request of the class must look like. */
  struct UnitSignature {
    std::vector<std::vector<int64_t>> input_dims;
    std::vector<std::string> input_names;
    std::vector<std::vector<int64_t>> output_dims;
  };
  struct ShapeClass {
    std::shared_ptr<const UnitSignature> unit;
    std::map<int64_t, std::shared_ptr<const CompiledBatch>> by_batch;
  };
  using Pending = std::map<std::string, std::deque<Request>>;

  void DispatchLoop();
  void WorkerLoop();
  /** Expires dead requests and flushes due batches out of `pending`. */
  void Sweep(Pending& pending, bool flush_all);
  /** How long the dispatcher may sleep before the next flush/expiry. */
  std::chrono::microseconds NextWait(const Pending& pending) const;
  void ExecuteBatch(Batch batch);
  /** Unit signature of `key`, building the class on first use. */
  StatusOr<std::shared_ptr<const UnitSignature>> EnsureClass(
      const std::string& key);
  StatusOr<std::shared_ptr<const UnitSignature>> EnsureClassLocked(
      const std::string& key);
  StatusOr<std::shared_ptr<const CompiledBatch>> GetOrCompile(
      const std::string& key, int64_t batch);
  /**
   * Partition (or respecialize `previous`) at the current schedule, with
   * the unpartitioned fallback. Runs WITHOUT classes_mu_ held — warm
   * batches of other classes keep executing during a compile; should two
   * workers race on one (class, batch), the single-flight partition cache
   * still runs the pipeline once and the losing insert is equivalent.
   */
  StatusOr<std::shared_ptr<const CompiledBatch>> Compile(
      const std::string& key, int64_t batch, const UnitSignature& unit,
      const std::shared_ptr<const CompiledBatch>& previous);
  void Resolve(Request& request, ServeResponse response);

  const TraceFactory factory_;
  const Mesh mesh_;
  const BatchOptions options_;
  const PartitionOptions partition_options_;
  std::shared_ptr<PartitionCache> cache_;

  mutable std::mutex schedule_mu_;
  std::vector<Tactic> schedule_;
  int64_t schedule_version_ = 0;

  mutable std::mutex classes_mu_;  // guards classes_ incl. compilation
  std::map<std::string, ShapeClass> classes_;

  BoundedMpmcQueue<Request> submit_queue_;
  BoundedMpmcQueue<Batch> batch_queue_;
  std::atomic<bool> stopping_{false};
  std::mutex shutdown_mu_;  // serializes Shutdown callers (one-shot joins)
  mutable std::mutex stats_mu_;
  BatcherStats stats_;

  std::thread dispatcher_;
  std::vector<std::thread> workers_;
};

}  // namespace partir

#endif  // PARTIR_SERVE_BATCHER_H_
