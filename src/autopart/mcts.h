/**
 * @file
 * The AutomaticPartition tactic's search algorithm: a Monte-Carlo tree
 * search (UCT) over tiling actions, scored by the analytical simulator —
 * the approach of the paper's Section 3 / Appendix A.3.3 (after AutoMap
 * [Alabed et al. 2022, Schaarschmidt et al. 2021]). The search proposes
 * tile<value, dim, axis> actions on function inputs, propagates after each,
 * and seeks minimal estimated step time subject to fitting in device memory.
 */
#ifndef PARTIR_AUTOPART_MCTS_H_
#define PARTIR_AUTOPART_MCTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/context.h"
#include "src/sim/device_spec.h"

namespace partir {

/** One discovered compiler action. */
struct AutoAction {
  int arg_index;
  int64_t dim;
  std::string axis;
};

/** Search options (the `options` dict of the Table 1 API). */
struct AutoOptions {
  int simulations = 64;      // MCTS iterations
  int max_actions = 6;       // search depth (actions per episode)
  int max_candidates = 24;   // action-space cap (largest tensors first)
  double exploration = 1.2;  // UCT constant
  uint64_t seed = 17;
};

/** Result of a search: chosen actions and their estimated step time. */
struct AutoResult {
  std::vector<AutoAction> actions;
  double est_step_seconds = 0;
  double est_peak_memory = 0;
  double search_seconds = 0;
  int evaluations = 0;
};

/**
 * Runs the search over the given mesh axes and *applies* the best action
 * sequence to `ctx` (TileValue + Propagate per action). Candidates are
 * scored by the simulator on `device`, whose HBM capacity bounds them.
 */
AutoResult AutomaticallyPartition(PartitionContext& ctx,
                                  const std::vector<std::string>& axes,
                                  const AutoOptions& options,
                                  const DeviceSpec& device);

}  // namespace partir

#endif  // PARTIR_AUTOPART_MCTS_H_
