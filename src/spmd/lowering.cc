#include "src/spmd/lowering.h"

#include <map>
#include <set>
#include <vector>

#include "src/ir/builder.h"
#include "src/support/str_util.h"

namespace partir {

std::string ValueSharding::ToString() const {
  return StrCat("[", StrJoin(axes, ",", [](const std::vector<std::string>& a) {
                  return StrCat("{", StrJoin(a, ","), "}");
                }),
                "]");
}

AxesPerDim TilesToAxesPerDim(const std::vector<ValueTile>& tiles, int rank) {
  AxesPerDim axes(rank);
  for (const ValueTile& tile : tiles) {
    axes[tile.dim].push_back(tile.axis);
  }
  return axes;
}

void VerifyShardings(
    const SpmdModule& spmd,
    const std::function<void(const std::string&, const std::string&)>&
        error) {
  auto check = [&](const std::string& where,
                   const std::vector<ValueSharding>& shardings,
                   const std::vector<const Value*>& values) {
    if (shardings.size() != values.size()) {
      error(where, StrCat(shardings.size(), " sharding(s) for ",
                          values.size(), " value(s)"));
      return;
    }
    for (size_t i = 0; i < values.size(); ++i) {
      const std::string at = StrCat(where, " ", i);
      if (!values[i]->type().IsTensor()) {
        error(at, "is not a tensor");
        continue;
      }
      const AxesPerDim& axes = shardings[i].axes;
      const int rank = values[i]->tensor_type().rank();
      if (!axes.empty() && static_cast<int>(axes.size()) != rank) {
        error(at, StrCat("sharding covers ", axes.size(),
                         " dim(s), the value has rank ", rank));
      }
      for (const auto& dim_axes : axes) {
        for (const std::string& axis : dim_axes) {
          if (!spmd.mesh.HasAxis(axis)) {
            error(at, StrCat("sharded along unknown mesh axis '", axis, "'"));
          }
        }
      }
    }
  };
  const Block& body = spmd.main()->body();
  std::vector<const Value*> args(body.num_args());
  for (int i = 0; i < body.num_args(); ++i) args[i] = body.arg(i);
  const std::vector<Value*>& results = body.terminator()->operands();
  check("input", spmd.input_shardings, args);
  check("output", spmd.output_shardings, {results.begin(), results.end()});
}

namespace {

class SpmdLowering {
 public:
  SpmdLowering(const PartitionContext& ctx, SpmdModule& out)
      : ctx_(ctx), out_(out), builder_(nullptr) {}

  void Run() {
    const Func& src = *ctx_.func();
    Func* dst = out_.module->AddFunc(src.name());
    builder_.SetInsertionBlock(&dst->body());
    builder_.SetMesh(&ctx_.mesh());

    for (const auto& arg : src.body().args()) {
      const TensorType& type = arg->tensor_type();
      std::vector<ValueTile> tiles = ctx_.RealizedTiles(arg.get());
      TensorType local(ctx_.LocalDims(arg.get()), type.dtype());
      Value* new_arg = dst->body().AddArg(local, arg->name());
      map_[arg.get()] = new_arg;
      placement_[arg.get()] = tiles;
      out_.input_shardings.push_back(
          ValueSharding{TilesToAxesPerDim(tiles, type.rank())});
    }
    MatchDeferredStat(src);
    for (const auto& op : src.body().ops()) {
      ++emit_seq_;
      EmitOp(*op);
    }
  }

 private:
  // Redistributes `value` (device-local) from placement `from` to `to`.
  // Emits all_to_all for axes that move dims, all_gather for axes to drop,
  // all_slice for axes to add.
  Value* Reshard(Value* value, std::vector<ValueTile> from,
                 const std::vector<ValueTile>& to) {
    auto dim_of = [](const std::vector<ValueTile>& tiles,
                     const std::string& axis) -> int64_t {
      for (const ValueTile& tile : tiles) {
        if (tile.axis == axis) return tile.dim;
      }
      return -1;
    };
    // 1. Axes present in both but on different dims: all_to_all.
    for (const ValueTile& target : to) {
      int64_t from_dim = dim_of(from, target.axis);
      if (from_dim < 0 || from_dim == target.dim) continue;
      value = builder_.AllToAll(value, /*slice_dim=*/target.dim,
                                /*concat_dim=*/from_dim, {target.axis});
      for (ValueTile& tile : from) {
        if (tile.axis == target.axis) tile.dim = target.dim;
      }
    }
    // 2. Axes to drop: one all_gather.
    AxesPerDim gather(value->tensor_type().rank());
    bool any_gather = false;
    // Gather innermost-first within each dim: reverse tile order.
    for (auto it = from.rbegin(); it != from.rend(); ++it) {
      if (dim_of(to, it->axis) < 0) {
        gather[it->dim].push_back(it->axis);
        any_gather = true;
      }
    }
    // Reverse each dim list back to outer-first order for the attribute.
    for (auto& list : gather) std::reverse(list.begin(), list.end());
    if (any_gather) value = builder_.AllGather(value, gather);
    // 3. Axes to add: one all_slice (communication-free).
    AxesPerDim slice(value->tensor_type().rank());
    bool any_slice = false;
    for (const ValueTile& target : to) {
      if (dim_of(from, target.axis) < 0) {
        slice[target.dim].push_back(target.axis);
        any_slice = true;
      }
    }
    if (any_slice) value = builder_.AllSlice(value, slice);
    return value;
  }

  Value* Mapped(const Value* value) {
    auto it = map_.find(value);
    PARTIR_CHECK(it != map_.end()) << "spmd lowering: unmapped value";
    return it->second;
  }

  const std::vector<ValueTile>& PlacementOf(const Value* value) {
    auto it = placement_.find(value);
    PARTIR_CHECK(it != placement_.end()) << "spmd lowering: no placement";
    return it->second;
  }

  static bool IsElementwiseLike(OpKind kind) {
    return IsUnaryElementwise(kind) || IsBinaryElementwise(kind) ||
           kind == OpKind::kTranspose || kind == OpKind::kBroadcastInDim ||
           kind == OpKind::kConstant || kind == OpKind::kReshape;
  }

  /**
   * True when every tile axis of `from` has a kScatter realization decision
   * on `src`'s defining op or on an op reachable from it through
   * elementwise/transpose/broadcast chains. Such a value is the (possibly
   * rearranged) output of a scatter-realized boundary, so a full gather of
   * it undoes a realization choice rather than redistributing independent
   * data; those gathers may be shared between nearby uses.
   */
  bool ScatterDescended(const Value* src, const std::vector<ValueTile>& from) {
    std::set<std::string> needed;
    for (const ValueTile& tile : from) needed.insert(tile.axis);
    const auto& realizations = ctx_.realizations();
    std::set<const Value*> visited;
    std::vector<const Value*> stack{src};
    int budget = 64;
    while (!stack.empty() && --budget > 0 && !needed.empty()) {
      const Value* v = stack.back();
      stack.pop_back();
      if (v->IsBlockArg() || !visited.insert(v).second) continue;
      const Operation* def = v->def();
      for (auto it = needed.begin(); it != needed.end();) {
        auto entry = realizations.find({def, *it});
        if (entry != realizations.end() &&
            entry->second == Realization::kScatter) {
          it = needed.erase(it);
        } else {
          ++it;
        }
      }
      if (IsElementwiseLike(def->kind())) {
        for (const Value* operand : def->operands()) stack.push_back(operand);
      }
    }
    return needed.empty();
  }

  /**
   * Bounded-liveness sharing of full gathers that undo a scatter
   * realization: when the same scatter-descended value is gathered to full
   * again within a short op window (adjacent backward-pass consumers), the
   * first gather's result is reused instead of re-gathering. The window
   * keeps the full buffer's live range short — distant re-gathers (e.g. a
   * forward value gathered again deep in the backward pass, or Z3-style
   * per-use parameter gathers, which are block args and never
   * scatter-descended) still gather per use.
   */
  Value* SharedRealizedGather(const Operation& op, int i,
                              const std::vector<ValueTile>& required) {
    static constexpr int kReuseWindow = 8;
    if (!required.empty()) return nullptr;
    const Value* src = op.operand(i);
    const std::vector<ValueTile>& from = PlacementOf(src);
    if (from.empty() || !ScatterDescended(src, from)) return nullptr;
    std::string key;
    for (const ValueTile& tile : from) {
      key = StrCat(key, tile.axis, ":", tile.dim, ",");
    }
    auto [it, inserted] = shared_gathers_.try_emplace({src, std::move(key)});
    if (!inserted && emit_seq_ - it->second.second <= kReuseWindow) {
      return it->second.first;
    }
    it->second = {Reshard(Mapped(src), from, {}), emit_seq_};
    return it->second.first;
  }

  /**
   * The deferred-statistic fusion at the model's closing normalization:
   * a parameter-free RMS norm whose output feeds exactly one contraction
   * over the normalized dim (the tied-embedding unembedding dot, realized
   * kReduce). Because the per-position scale rsqrt(mean(x^2)) is constant
   * across the contracted dim, it commutes with the dot:
   *
   *     norm(x) @ W  =  bcast(rsqrt(s)) * (x @ W),   s = mean(x^2)
   *
   * so the lowering computes the *raw* partial dot and the partial
   * second-moment statistic locally, concatenates them, and realizes both
   * with ONE all_reduce (the statistic rides the logits reduction: +1
   * element per vocab row instead of a standalone [B,S,D] all_gather).
   * On the gradient path the statistic gradient contracts twice with the
   * same tied weight, so the reductions reorder,
   *
   *     sum_d(dnorm * x)  =  sum_v(dlogits * (x @ W)),
   *
   * and both factors of the right-hand side are already replicated after
   * the fused all_reduce: the backward boundary needs no collective at
   * all. Sites that do not match exactly (normalize feeding several dots,
   * operands tiled on more than the boundary axis, missing gradient
   * reduce) keep the default per-boundary realization.
   */
  struct DeferredStat {
    const Operation* stat_reduce = nullptr;  // reduce(mul(x,x), {last})
    const Operation* logits_dot = nullptr;   // dot(norm(x), w)
    const Operation* grad_reduce = nullptr;  // reduce(mul(dot(dl,w), x))
    const Value* x = nullptr;
    const Value* w = nullptr;
    const Value* inv = nullptr;      // rsqrt(...) full scale
    const Value* dlogits = nullptr;  // replicated upstream gradient
    std::string axis;
    Value* raw_full = nullptr;  // all-reduced x @ w, set at emission
  };

  void MatchDeferredStat(const Func& src) {
    std::map<const Value*, std::vector<const Operation*>> users;
    WalkOps(src.body(), [&](const Operation& op) {
      for (const Value* operand : op.operands()) {
        users[operand].push_back(&op);
      }
    });
    const auto& realizations = ctx_.realizations();
    WalkOps(src.body(), [&](const Operation& op) {
      if (deferred_.logits_dot != nullptr || op.kind() != OpKind::kDot) return;
      if (op.num_operands() != 2 || op.num_results() != 1) return;
      const Value* n = op.operand(0);
      const Value* w = op.operand(1);
      if (n->IsBlockArg() || n->def()->kind() != OpKind::kMul) return;
      const Value* x = n->def()->operand(0);
      const Value* scale = n->def()->operand(1);
      if (scale->IsBlockArg() ||
          scale->def()->kind() != OpKind::kBroadcastInDim) {
        return;
      }
      // x tiled along exactly one axis, on its innermost dim.
      const std::vector<ValueTile>& x_tiles = ctx_.state(x).tiles;
      int64_t last = x->tensor_type().rank() - 1;
      if (x_tiles.size() != 1 || x_tiles[0].dim != last) return;
      const std::string& axis = x_tiles[0].axis;
      // The dot contracts that dim and was realized kReduce.
      auto dot_dec = realizations.find({&op, axis});
      if (dot_dec == realizations.end() ||
          dot_dec->second != Realization::kReduce) {
        return;
      }
      if (!ctx_.state(op.result()).tiles.empty()) return;
      if (op.result()->tensor_type().rank() != last + 1) return;
      // The scale is a replicated per-position statistic of x: find the
      // gather-realized second-moment reduce feeding it.
      const Value* inv = scale->def()->operand(0);
      if (!ctx_.state(inv).tiles.empty()) return;
      const Operation* stat_reduce = nullptr;
      for (const Operation* user : users[x]) {
        if (user->kind() != OpKind::kMul || user->operand(0) != x ||
            user->operand(1) != x) {
          continue;
        }
        for (const Operation* ruser : users[user->result()]) {
          if (ruser->kind() == OpKind::kReduce &&
              ruser->attrs().Get<std::vector<int64_t>>("dims") ==
                  std::vector<int64_t>{last}) {
            stat_reduce = ruser;
          }
        }
      }
      if (stat_reduce == nullptr) return;
      auto stat_dec = realizations.find({stat_reduce, axis});
      if (stat_dec == realizations.end() ||
          stat_dec->second != Realization::kGather) {
        return;
      }
      if (!ReachesThroughElementwise(inv, stat_reduce->result())) return;
      // The normalize feeds exactly one contraction over the normalized
      // dim (per-layer norms feed several projections and keep the
      // standard realization).
      int contracting_dots = 0;
      for (const Operation* user : users[n]) {
        if (user->kind() == OpKind::kDot && user->operand(0) == n &&
            user->attrs().Get<std::vector<int64_t>>("lhs_contract") ==
                std::vector<int64_t>{last}) {
          ++contracting_dots;
        }
      }
      if (contracting_dots != 1) return;
      // Gradient side: reduce(mul(dot(dlogits, w), x)) over the same dim,
      // also gather-realized, with a replicated dlogits.
      const Operation* grad_reduce = nullptr;
      const Value* dlogits = nullptr;
      for (const Operation* user : users[x]) {
        if (user->kind() != OpKind::kMul) continue;
        const Value* other = user->operand(0) == x ? user->operand(1)
                             : user->operand(1) == x ? user->operand(0)
                                                     : nullptr;
        if (other == nullptr) continue;
        // The upstream-gradient contraction, possibly behind a layout
        // transpose (sum_v then commutes with the permutation).
        if (!other->IsBlockArg() &&
            other->def()->kind() == OpKind::kTranspose) {
          other = other->def()->operand(0);
        }
        if (other->IsBlockArg() || other->def()->kind() != OpKind::kDot ||
            other->def()->num_operands() != 2 ||
            other->def()->operand(1) != w) {
          continue;
        }
        for (const Operation* ruser : users[user->result()]) {
          if (ruser->kind() != OpKind::kReduce ||
              ruser->attrs().Get<std::vector<int64_t>>("dims") !=
                  std::vector<int64_t>{last}) {
            continue;
          }
          auto grad_dec = realizations.find({ruser, axis});
          if (grad_dec == realizations.end() ||
              grad_dec->second != Realization::kGather) {
            continue;
          }
          const Value* dl = other->def()->operand(0);
          if (!ctx_.state(dl).tiles.empty()) continue;
          grad_reduce = ruser;
          dlogits = dl;
        }
      }
      if (grad_reduce == nullptr) return;
      deferred_.stat_reduce = stat_reduce;
      deferred_.logits_dot = &op;
      deferred_.grad_reduce = grad_reduce;
      deferred_.x = x;
      deferred_.w = w;
      deferred_.inv = inv;
      deferred_.dlogits = dlogits;
      deferred_.axis = axis;
    });
  }

  /** True if `to` is reachable from `from` walking up def chains through
   *  elementwise-like ops only (the rsqrt(mean + eps) statistic chain). */
  static bool ReachesThroughElementwise(const Value* from, const Value* to) {
    std::set<const Value*> visited;
    std::vector<const Value*> stack{from};
    int budget = 32;
    while (!stack.empty() && --budget > 0) {
      const Value* v = stack.back();
      stack.pop_back();
      if (v == to) return true;
      if (v->IsBlockArg() || !visited.insert(v).second) continue;
      const Operation* def = v->def();
      if (!IsElementwiseLike(def->kind())) continue;
      for (const Value* operand : def->operands()) stack.push_back(operand);
    }
    return false;
  }

  /** Emits the fused statistic + contraction all_reduce for the matched
   *  closing-norm site: one packed collective realizes both the raw dot
   *  and the second-moment partial. */
  void EmitDeferredStatReduce(const Operation& op) {
    // Raw partial contraction with the dot's own attributes, full result
    // type (both operands are locally complete along their shards).
    Value* x_local = Mapped(deferred_.x);
    Value* w_local = Mapped(deferred_.w);
    const Operation* dot = deferred_.logits_dot;
    Operation* raw = builder_.Create(OpKind::kDot, {x_local, w_local},
                                     {dot->result()->type()});
    for (const auto& [name, attr] : dot->attrs().raw()) {
      raw->attrs().Set(name, attr);
    }
    raw->result()->set_name(StrCat(dot->result()->name(), "_raw"));
    // Local second-moment partial, packed onto the raw dot's trailing dim.
    std::vector<int64_t> dims = dot->result()->tensor_type().dims();
    int64_t vocab = dims.back();
    Value* stat = builder_.Reduce(Mapped(op.operand(0)),
                                  {op.operand(0)->tensor_type().rank() - 1},
                                  "sum");
    std::vector<int64_t> stat3 = dims;
    stat3.back() = 1;
    Value* packed = builder_.Concatenate(
        {raw->result(), builder_.Reshape(stat, stat3)},
        static_cast<int64_t>(dims.size()) - 1);
    packed = builder_.AllReduce(packed, {deferred_.axis}, "sum");
    std::vector<int64_t> starts(dims.size(), 0);
    std::vector<int64_t> limits = dims;
    deferred_.raw_full = builder_.StaticSlice(packed, starts, limits);
    deferred_.raw_full->set_name(StrCat(dot->result()->name(), "_rawfull"));
    starts.back() = vocab;
    limits.back() = vocab + 1;
    Value* stat_full =
        builder_.Reshape(builder_.StaticSlice(packed, starts, limits),
                         op.result()->tensor_type().dims());
    stat_full->set_name(op.result()->name());
    map_[op.result()] = stat_full;
    placement_[op.result()] = {};
  }

  void EmitOp(const Operation& op) {
    if (&op == deferred_.stat_reduce) {
      EmitDeferredStatReduce(op);
      return;
    }
    if (&op == deferred_.logits_dot) {
      // logits = bcast(rsqrt(stat)) * raw_full; the statistic arrived with
      // the packed all_reduce, so this is pure local arithmetic.
      PARTIR_CHECK(deferred_.raw_full != nullptr);
      const Value* scale = op.operand(0)->def()->operand(1);
      Value* b = builder_.BroadcastInDim(
          Mapped(deferred_.inv), op.result()->tensor_type().dims(),
          scale->def()->attrs().Get<std::vector<int64_t>>("broadcast_dims"));
      Operation* logits = builder_.Create(
          OpKind::kMul, {deferred_.raw_full, b}, {op.result()->type()});
      logits->result()->set_name(op.result()->name());
      map_[op.result()] = logits->result();
      placement_[op.result()] = {};
      return;
    }
    if (&op == deferred_.grad_reduce) {
      // sum_d(dnorm * x) == sum_v(dlogits * (x @ w)): both factors are
      // replicated after the packed all_reduce, so the gradient statistic
      // is collective-free.
      PARTIR_CHECK(deferred_.raw_full != nullptr);
      Operation* m = builder_.Create(
          OpKind::kMul, {Mapped(deferred_.dlogits), deferred_.raw_full},
          {deferred_.raw_full->type()});
      Value* r = builder_.Reduce(
          m->result(), {m->result()->tensor_type().rank() - 1}, "sum");
      r->set_name(op.result()->name());
      map_[op.result()] = r;
      placement_[op.result()] = {};
      return;
    }
    if (op.kind() == OpKind::kReturn) {
      std::vector<Value*> results;
      for (const Value* operand : op.operands()) {
        // Reshard returned values to their full declared state so that
        // explicit output tilings (e.g. activation sharding) take effect.
        const std::vector<ValueTile>& want = ctx_.state(operand).tiles;
        Value* v = Reshard(Mapped(operand), PlacementOf(operand), want);
        results.push_back(v);
        out_.output_shardings.push_back(ValueSharding{
            TilesToAxesPerDim(want, operand->tensor_type().rank())});
      }
      builder_.Return(std::move(results));
      return;
    }

    if (op.kind() == OpKind::kTag) {
      // Tags are metadata: pass the value through, keeping its placement.
      // Consumers reshard from the producer's placement directly (which is
      // where barrier tags turn into all_to_all redistributions).
      map_[op.result()] = Mapped(op.operand(0));
      placement_[op.result()] = PlacementOf(op.operand(0));
      return;
    }

    const std::vector<OpAxisEntry>& nest = ctx_.nest(&op);
    OpShardingSpec spec = GetShardingSpec(op);

    // Required placement per operand, from the nest's factors.
    std::vector<Value*> local_operands;
    for (int i = 0; i < op.num_operands(); ++i) {
      std::vector<ValueTile> required;
      for (const OpAxisEntry& entry : nest) {
        const Factor& factor = spec.factors.at(entry.factor);
        if (i < static_cast<int>(factor.operand_dims.size()) &&
            factor.operand_dims[i] >= 0) {
          required.push_back(ValueTile{entry.axis, factor.operand_dims[i]});
        }
      }
      Value* local = SharedRealizedGather(op, i, required);
      if (local == nullptr) {
        local = Reshard(Mapped(op.operand(i)), PlacementOf(op.operand(i)),
                        required);
      }
      local_operands.push_back(local);
    }

    // Result placement: the nest's tile entries.
    std::vector<ValueTile> result_tiles;
    for (const OpAxisEntry& entry : nest) {
      if (entry.contracting) continue;
      const Factor& factor = spec.factors.at(entry.factor);
      result_tiles.push_back(ValueTile{entry.axis, factor.result_dim});
    }

    // Data constants cannot be shrunk: emit full, then all_slice.
    bool slice_result =
        op.kind() == OpKind::kConstant && op.attrs().Has("data");

    std::vector<Type> result_types;
    for (int i = 0; i < op.num_results(); ++i) {
      if (slice_result) {
        result_types.push_back(op.result(i)->type());
      } else {
        // Pre-realization local type: the nest's tile entries only. A
        // scatter-realized contracting axis slices *after* the all_reduce,
        // so its division must not apply to the op's own result.
        std::vector<int64_t> dims = op.result(i)->tensor_type().dims();
        for (const ValueTile& tile : result_tiles) {
          dims[tile.dim] /= ctx_.mesh().AxisSize(tile.axis);
        }
        result_types.push_back(
            TensorType(std::move(dims), op.result(i)->tensor_type().dtype()));
      }
    }
    Operation* emitted = builder_.Create(op.kind(), std::move(local_operands),
                                         std::move(result_types));
    CopyLocalAttrs(op, *emitted);
    PARTIR_CHECK(op.num_results() == 1);
    emitted->result()->set_name(op.result()->name());
    Value* result = emitted->result();

    if (slice_result && !result_tiles.empty()) {
      result = builder_.AllSlice(
          result,
          TilesToAxesPerDim(result_tiles, result->tensor_type().rank()));
    }

    // #sum axes: all_reduce, grouped by reduction kind.
    std::vector<std::string> sum_axes;
    std::vector<std::string> max_axes;
    for (const OpAxisEntry& entry : nest) {
      if (!entry.contracting) continue;
      const Factor& factor = spec.factors.at(entry.factor);
      (factor.reduction == "max" ? max_axes : sum_axes)
          .push_back(entry.axis);
    }
    if (!sum_axes.empty()) {
      result = builder_.AllReduce(result, sum_axes, "sum");
    }
    if (!max_axes.empty()) {
      result = builder_.AllReduce(result, max_axes, "max");
    }

    // Scatter-realized #sum axes (boundary realization): the result state
    // re-tiles the reduced value, so slice right after the all_reduce; the
    // SPMD peephole fuses the pair into a reduce_scatter.
    AxesPerDim scatter(result->tensor_type().rank());
    bool any_scatter = false;
    for (const OpAxisEntry& entry : nest) {
      if (!entry.contracting) continue;
      int64_t dim = ctx_.state(op.result()).DimOfAxis(entry.axis);
      if (dim < 0) continue;
      scatter[dim].push_back(entry.axis);
      result_tiles.push_back(ValueTile{entry.axis, dim});
      any_scatter = true;
    }
    if (any_scatter) {
      result = builder_.AllSlice(result, scatter);
    }

    map_[op.result()] = result;
    placement_[op.result()] = result_tiles;
  }

  const PartitionContext& ctx_;
  SpmdModule& out_;
  OpBuilder builder_;
  std::map<const Value*, Value*> map_;
  std::map<const Value*, std::vector<ValueTile>> placement_;
  std::map<std::pair<const Value*, std::string>, std::pair<Value*, int>>
      shared_gathers_;
  DeferredStat deferred_;
  int emit_seq_ = 0;
};

}  // namespace

namespace {

/** Preconditions under which the lowering's internal CHECKs cannot fire. */
Status ValidateLowerable(const PartitionContext& ctx) {
  if (ctx.mesh().num_axes() == 0) {
    return FailedPreconditionError(
        "cannot lower to SPMD over an empty mesh (no axes)");
  }
  const Func& func = *ctx.func();
  if (func.body().num_ops() == 0 ||
      func.body().ops().back()->kind() != OpKind::kReturn) {
    return FailedPreconditionError(
        "function '", func.name(),
        "' has no return terminator; finish building it before lowering");
  }
  // Tactics express loops as partitioning state; a loop op in the traced
  // function itself would lower to a region-less loop nothing can run.
  for (int i = 0; i < func.body().num_ops(); ++i) {
    const Operation& op = *func.body().ops()[i];
    if (op.num_regions() == 0 && !IsPartirCoreOp(op.kind())) continue;
    return InvalidArgumentError(
        "the traced program must be loop-free, but op ", i, " of '",
        func.name(), "' is a PartIR:Core '", OpKindName(op.kind()), "'");
  }
  Status status = Status::Ok();
  auto check_value = [&](const Value* value) {
    if (!status.ok() || !value->type().IsTensor()) return;
    const std::vector<int64_t>& dims = value->tensor_type().dims();
    std::vector<int64_t> local = dims;
    for (const ValueTile& tile : ctx.RealizedTiles(value)) {
      if (!ctx.mesh().HasAxis(tile.axis)) {
        status = InternalError("value '", value->name(),
                               "' is tiled along unknown mesh axis '",
                               tile.axis, "'");
        return;
      }
      if (tile.dim < 0 || tile.dim >= static_cast<int64_t>(local.size()) ||
          local[tile.dim] % ctx.mesh().AxisSize(tile.axis) != 0) {
        status = FailedPreconditionError(
            "value '", value->name(), "' cannot be sharded: dim ", tile.dim,
            " does not divide by axis '", tile.axis, "' of size ",
            ctx.mesh().AxisSize(tile.axis));
        return;
      }
      local[tile.dim] /= ctx.mesh().AxisSize(tile.axis);
    }
  };
  for (const auto& arg : func.body().args()) check_value(arg.get());
  WalkOps(func.body(), [&](const Operation& op) {
    for (int i = 0; i < op.num_results(); ++i) check_value(op.result(i));
  });
  return status;
}

}  // namespace

StatusOr<SpmdModule> LowerToSpmdOrError(const PartitionContext& ctx) {
  PARTIR_RETURN_IF_ERROR(ValidateLowerable(ctx));
  return LowerToSpmd(ctx);
}

SpmdModule LowerToSpmd(const PartitionContext& ctx) {
  SpmdModule result;
  result.module = std::make_unique<Module>();
  result.mesh = ctx.mesh();
  SpmdLowering(ctx, result).Run();
  return result;
}

}  // namespace partir
