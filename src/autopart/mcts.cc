#include "src/autopart/mcts.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>

#include "src/sim/cost_model.h"
#include "src/spmd/lowering.h"
#include "src/spmd/optimize.h"

namespace partir {
namespace {

/** Deterministic SplitMix64 RNG. */
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ += 0x9E3779B97F4A7C15ULL;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  int Uniform(int n) { return static_cast<int>(Next() % n); }
  double UnitReal() { return static_cast<double>(Next() % (1 << 20)) /
                             static_cast<double>(1 << 20); }

 private:
  uint64_t state_;
};

struct SearchShared {
  PartitionContext* root;
  std::vector<std::string> axes;
  AutoOptions options;
  DeviceSpec device;
  double ideal_seconds = 1e-9;
  int evaluations = 0;
};

// Enumerates actions applicable to a context copy (tile any function input
// on any divisible dim along any of the searched axes). The space is capped
// to the actions touching the largest tensors — the AutoMap-style
// prioritization that keeps the search budget on decisions that matter.
std::vector<AutoAction> LegalActions(const PartitionContext& ctx,
                                     const std::vector<std::string>& axes,
                                     int max_candidates) {
  std::vector<AutoAction> actions;
  const Func& func = *ctx.func();
  for (int i = 0; i < func.body().num_args(); ++i) {
    const Value* arg = func.body().arg(i);
    if (!arg->type().IsTensor()) continue;
    // Optimizer state follows its parameter through inference on the
    // update ops; searching it directly only blows up the action space.
    if (arg->name().rfind("opt_", 0) == 0) continue;
    const TensorType& type = arg->tensor_type();
    for (const std::string& axis : axes) {
      if (ctx.state(arg).HasAxis(axis)) continue;
      if (ctx.IsAtomic(arg, axis)) continue;
      for (int64_t dim = 0; dim < type.rank(); ++dim) {
        int64_t local = ctx.LocalDimSize(type.dims(), ctx.state(arg), dim);
        if (local % ctx.mesh().AxisSize(axis) == 0) {
          actions.push_back(AutoAction{i, dim, axis});
        }
      }
    }
  }
  // Rank data inputs (the classic parallelism handles) ahead of
  // parameters, then larger tensors first.
  auto rank = [&](const AutoAction& action) {
    const Value* arg = func.body().arg(action.arg_index);
    bool is_param = arg->name().rfind("params.", 0) == 0;
    return std::make_pair(is_param, -arg->tensor_type().ByteSize());
  };
  std::stable_sort(actions.begin(), actions.end(),
                   [&](const AutoAction& a, const AutoAction& b) {
                     return rank(a) < rank(b);
                   });
  if (static_cast<int>(actions.size()) > max_candidates) {
    actions.resize(max_candidates);
  }
  return actions;
}

bool Apply(PartitionContext& ctx, const AutoAction& action) {
  Value* arg = ctx.func()->body().arg(action.arg_index);
  if (!ctx.TileValue(arg, action.dim, action.axis)) return false;
  ctx.Propagate();
  return true;
}

// Simulator-backed reward in [0, 1]: ratio of ideal (perfectly scaled)
// step time to the estimated one, with a harsh penalty for exceeding HBM.
double Evaluate(SearchShared& shared, const PartitionContext& ctx) {
  ++shared.evaluations;
  SpmdModule spmd = LowerToSpmd(ctx);
  OptimizeSpmd(spmd);
  SimEstimate estimate = EstimateSpmd(spmd, shared.device);
  double reward =
      shared.ideal_seconds / std::max(estimate.step_seconds, 1e-12);
  reward = std::min(reward, 1.0);
  if (estimate.peak_memory_bytes > shared.device.hbm_bytes) {
    reward *= 0.05;  // does not fit: strongly discouraged
  }
  return reward;
}

struct Node {
  std::vector<AutoAction> legal;   // indexed action space (plus "stop")
  std::vector<std::unique_ptr<Node>> children;  // size legal+1; [0] = stop
  std::vector<int> visits;
  std::vector<double> value;
  int total_visits = 0;
  bool expanded = false;
};

class Mcts {
 public:
  Mcts(SearchShared& shared) : shared_(shared), rng_(shared.options.seed) {}

  std::vector<AutoAction> Run() {
    root_ = std::make_unique<Node>();
    {
      // Root prior sweep: score every root action (and "stop") once, so
      // the budget is never wasted rediscovering obviously good moves.
      PartitionContext base = *shared_.root;
      Expand(*root_, base);
      for (size_t c = 0; c < root_->children.size(); ++c) {
        PartitionContext state = *shared_.root;
        double reward;
        if (c == 0) {
          reward = Evaluate(shared_, state);
        } else {
          reward = Apply(state, root_->legal[c - 1])
                       ? Evaluate(shared_, state)
                       : 0.0;
        }
        root_->visits[c] += 1;
        root_->value[c] += reward;
        root_->total_visits += 1;
      }
    }
    for (int i = 0; i < shared_.options.simulations; ++i) {
      PartitionContext state = *shared_.root;  // copy analysis state
      Simulate(*root_, state, 0);
    }
    // Extract the best-mean-reward path among visited children.
    std::vector<AutoAction> best;
    Node* node = root_.get();
    PartitionContext state = *shared_.root;
    while (node != nullptr && node->expanded && node->total_visits > 0) {
      int best_index = -1;
      double best_mean = -1;
      for (size_t c = 0; c < node->children.size(); ++c) {
        if (node->visits[c] == 0) continue;
        double mean = node->value[c] / node->visits[c];
        if (mean > best_mean) {
          best_mean = mean;
          best_index = static_cast<int>(c);
        }
      }
      if (best_index <= 0) break;  // "stop" action or nothing visited
      const AutoAction& action = node->legal[best_index - 1];
      if (!Apply(state, action)) break;
      best.push_back(action);
      node = node->children[best_index].get();
    }
    return best;
  }

 private:
  void Expand(Node& node, const PartitionContext& state) {
    node.legal = LegalActions(state, shared_.axes,
                              shared_.options.max_candidates);
    size_t n = node.legal.size() + 1;  // + stop
    node.children.resize(n);
    node.visits.assign(n, 0);
    node.value.assign(n, 0.0);
    node.expanded = true;
  }

  double Simulate(Node& node, PartitionContext& state, int depth) {
    if (!node.expanded) {
      Expand(node, state);
      // Leaf evaluation via random rollout.
      double reward = Rollout(state, depth);
      node.total_visits += 1;
      return reward;
    }
    if (depth >= shared_.options.max_actions || node.legal.empty()) {
      return Evaluate(shared_, state);
    }
    // UCT selection over [stop] + actions.
    int chosen = -1;
    double best_score = -1;
    for (size_t c = 0; c < node.children.size(); ++c) {
      double exploit =
          node.visits[c] > 0 ? node.value[c] / node.visits[c] : 0.5;
      double explore = shared_.options.exploration *
                       std::sqrt(std::log(node.total_visits + 1.0) /
                                 (node.visits[c] + 1.0));
      double score = exploit + explore;
      if (score > best_score) {
        best_score = score;
        chosen = static_cast<int>(c);
      }
    }
    double reward;
    if (chosen == 0) {
      reward = Evaluate(shared_, state);
    } else {
      const AutoAction& action = node.legal[chosen - 1];
      if (!Apply(state, action)) {
        reward = 0.0;  // invalid transition: discourage
      } else {
        if (node.children[chosen] == nullptr) {
          node.children[chosen] = std::make_unique<Node>();
        }
        reward = Simulate(*node.children[chosen], state, depth + 1);
      }
    }
    node.visits[chosen] += 1;
    node.value[chosen] += reward;
    node.total_visits += 1;
    return reward;
  }

  double Rollout(PartitionContext& state, int depth) {
    while (depth < shared_.options.max_actions) {
      if (rng_.UnitReal() < 0.25) break;  // random stop
      std::vector<AutoAction> actions =
          LegalActions(state, shared_.axes, shared_.options.max_candidates);
      if (actions.empty()) break;
      const AutoAction& action =
          actions[rng_.Uniform(static_cast<int>(actions.size()))];
      if (!Apply(state, action)) break;
      ++depth;
    }
    return Evaluate(shared_, state);
  }

  SearchShared& shared_;
  Rng rng_;
  std::unique_ptr<Node> root_;
};

}  // namespace

AutoResult AutomaticallyPartition(PartitionContext& ctx,
                                  const std::vector<std::string>& axes,
                                  const AutoOptions& options,
                                  const DeviceSpec& device) {
  auto start = std::chrono::steady_clock::now();
  SearchShared shared{&ctx, axes, options, device};

  // Ideal time: the unpartitioned program spread perfectly over all
  // devices reachable through the searched axes.
  {
    SpmdModule unsharded = LowerToSpmd(ctx);
    OptimizeSpmd(unsharded);
    SimEstimate base = EstimateSpmd(unsharded, device);
    double axis_product = 1;
    for (const std::string& axis : axes) {
      axis_product *= static_cast<double>(ctx.mesh().AxisSize(axis));
    }
    shared.ideal_seconds = base.step_seconds / std::max(axis_product, 1.0);
  }

  Mcts mcts(shared);
  std::vector<AutoAction> best = mcts.Run();

  AutoResult result;
  for (const AutoAction& action : best) {
    if (Apply(ctx, action)) {
      result.actions.push_back(action);
    }
  }
  SpmdModule spmd = LowerToSpmd(ctx);
  OptimizeSpmd(spmd);
  SimEstimate estimate = EstimateSpmd(spmd, device);
  result.est_step_seconds = estimate.step_seconds;
  result.est_peak_memory = estimate.peak_memory_bytes;
  result.evaluations = shared.evaluations;
  result.search_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace partir
