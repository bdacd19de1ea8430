/**
 * @file
 * A persistent pool of device threads, created once per Executable on its
 * first threaded Run and reused by the compiled executor (executor.cc)
 * across every threaded Run after it.
 *
 * Before the pool, every Run spawned and joined one std::thread per
 * simulated device — a fixed per-call cost that dominates serving latency
 * once the compiled executor has flattened everything else. The pool turns
 * that into a wait/notify on long-lived workers; the per-device closures
 * still synchronize through the rendezvous primitives of
 * src/spmd/rendezvous.h (semaphore throttle + per-replica-group barriers)
 * exactly as before, so collective semantics are unchanged.
 *
 * Submissions are serialized: one Run drives the pool at a time, and
 * TryRun lets a second concurrent Run on the same Executable fall back to
 * spawning threads instead of queueing behind the first. Teardown is
 * drain-clean — the destructor can only acquire the submission lease when
 * no job is in flight, then stops and joins every worker — so TSan and the
 * serving tests never see a worker outlive its pool.
 */
#ifndef PARTIR_EXEC_WORKER_POOL_H_
#define PARTIR_EXEC_WORKER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace partir {
namespace exec {

/** A fixed-size pool of persistent device worker threads. */
class WorkerPool {
 public:
  /** Starts `num_workers` (>= 1) threads; they idle until Run/TryRun. */
  explicit WorkerPool(int64_t num_workers);

  /** Drain-clean: waits for any in-flight job, then stops and joins. */
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int64_t num_workers() const {
    return static_cast<int64_t>(workers_.size());
  }

  /**
   * Runs fn(i) for every i in [0, n) on the pool's workers and blocks
   * until all calls have returned. Requires n <= num_workers(). Concurrent
   * submitters are serialized in arrival order.
   */
  void Run(int64_t n, const std::function<void(int64_t)>& fn);

  /**
   * As Run, but returns false without executing anything when another
   * submitter currently holds the pool — the caller falls back to
   * spawning per-run threads instead of queueing.
   */
  bool TryRun(int64_t n, const std::function<void(int64_t)>& fn);

  /** Process-wide count of pool worker threads ever created (tests assert
   *  that repeated Runs stop growing this). */
  static int64_t threads_created();

 private:
  void RunLocked(int64_t n, const std::function<void(int64_t)>& fn);
  void WorkerLoop(int64_t index);

  std::mutex submit_mu_;  // held by the submitter for a whole job

  std::mutex mu_;
  std::condition_variable work_cv_;  // wakes workers on a new generation
  std::condition_variable done_cv_;  // wakes the submitter when drained
  const std::function<void(int64_t)>* job_ = nullptr;
  int64_t job_size_ = 0;
  uint64_t generation_ = 0;
  int64_t remaining_ = 0;  // workers yet to check in for this generation
  bool stop_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace exec
}  // namespace partir

#endif  // PARTIR_EXEC_WORKER_POOL_H_
