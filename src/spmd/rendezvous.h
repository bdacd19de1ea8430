/**
 * @file
 * The rendezvous machinery of the compiled executor's thread-per-device
 * runtime (src/exec/executor.cc): a counting semaphore that throttles how
 * many device threads run concurrently, and the per-replica-group barrier
 * through which a collective's participants exchange their contributions.
 *
 * A completed group is evaluated through EvalGroupCollective
 * (group-position order), which is what keeps threaded outputs
 * bit-identical to the sequential reference walker.
 */
#ifndef PARTIR_SPMD_RENDEZVOUS_H_
#define PARTIR_SPMD_RENDEZVOUS_H_

#include <condition_variable>
#include <mutex>
#include <vector>

#include "src/interp/tensor.h"
#include "src/spmd/collectives.h"

namespace partir {

/** Counting semaphore bounding how many device threads run concurrently. */
class Semaphore {
 public:
  explicit Semaphore(int permits) : permits_(permits) {}

  void Acquire() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return permits_ > 0; });
    --permits_;
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++permits_;
    }
    cv_.notify_one();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int permits_;
};

/**
 * Rendezvous state of one replica group of one collective op execution.
 * Every member deposits its contribution; the last arrival evaluates the
 * group (position-ordered, unless arrival-order folding was requested) and
 * wakes the others. One-shot: a runtime builds fresh sites per Run.
 */
struct GroupSite {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Tensor> inputs;   // by group position (deterministic path)
  std::vector<Tensor> outputs;  // by group position, valid once done
  Tensor accumulator;           // arrival-order reduction (non-deterministic)
  int arrived = 0;
  bool done = false;
};

/**
 * Deposits `input` as group position `position` of `site`, blocks until the
 * whole replica group has arrived (the last arrival evaluates the group),
 * and returns this position's output. With `deterministic` unset,
 * all_reduce / reduce_scatter fold in thread-arrival order instead of
 * group-position order. A blocked thread releases `throttle` (when
 * non-null) while it waits, so any positive concurrency cap stays
 * deadlock-free.
 */
Tensor RendezvousExchange(const CollectiveOp& col, GroupSite& site,
                          int64_t position, Tensor input, bool deterministic,
                          Semaphore* throttle);

}  // namespace partir

#endif  // PARTIR_SPMD_RENDEZVOUS_H_
