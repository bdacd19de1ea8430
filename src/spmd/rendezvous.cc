#include "src/spmd/rendezvous.h"

#include <utility>

namespace partir {

Tensor RendezvousExchange(const CollectiveOp& col, GroupSite& site,
                          int64_t position, Tensor input,
                          Semaphore* throttle) {
  const int64_t n = col.groups->group_size;
  std::unique_lock<std::mutex> lock(site.mu);
  if (site.inputs.empty()) site.inputs.resize(n);
  site.inputs[position] = std::move(input);
  if (++site.arrived == n) {
    // Last arrival: evaluate the whole group and wake the waiters. The
    // result is position-ordered, so *which* thread computes it does not
    // affect the outputs.
    site.outputs = EvalGroupCollective(col, site.inputs);
    site.inputs.clear();
    site.done = true;
    site.cv.notify_all();
    return std::move(site.outputs[position]);
  }
  // Waiting at a barrier: hand the execution slot to a runnable device so
  // any positive thread cap stays deadlock-free.
  if (throttle != nullptr) throttle->Release();
  site.cv.wait(lock, [&] { return site.done; });
  Tensor output = std::move(site.outputs[position]);
  lock.unlock();
  if (throttle != nullptr) throttle->Acquire();
  return output;
}

}  // namespace partir
