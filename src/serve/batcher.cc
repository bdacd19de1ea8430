#include "src/serve/batcher.h"

#include <algorithm>
#include <utility>

#include "src/spmd/batching.h"

namespace partir {

namespace {
using Clock = std::chrono::steady_clock;
using Micros = std::chrono::microseconds;

/** Longest the dispatcher sleeps with nothing scheduled; Close() and fresh
 *  submissions wake it earlier, so this only bounds staleness of sweeps. */
constexpr Micros kIdleWait = Micros(5000);
}  // namespace

Batcher::Batcher(TraceFactory factory, std::vector<Tactic> schedule,
                 Mesh mesh, BatchOptions batch_options,
                 PartitionOptions partition_options,
                 std::shared_ptr<PartitionCache> cache)
    : factory_(std::move(factory)), mesh_(std::move(mesh)),
      options_(batch_options), partition_options_(partition_options),
      cache_(cache != nullptr ? std::move(cache)
                              : std::make_shared<PartitionCache>()),
      schedule_(std::move(schedule)),
      submit_queue_(std::max<int64_t>(1, batch_options.queue_capacity)),
      batch_queue_(std::max<int64_t>(1, batch_options.max_inflight)) {
  PARTIR_CHECK(factory_ != nullptr) << "Batcher: null trace factory";
  PARTIR_CHECK(options_.max_batch >= 1) << "Batcher: max_batch must be >= 1";
  dispatcher_ = std::thread([this] { DispatchLoop(); });
  int64_t workers = std::max<int64_t>(1, options_.max_inflight);
  workers_.reserve(workers);
  for (int64_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Batcher::~Batcher() { Shutdown(); }

void Batcher::Shutdown() {
  stopping_ = true;
  submit_queue_.Close();
  // Serialize concurrent Shutdown/destructor callers; joins are one-shot.
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (dispatcher_.joinable()) dispatcher_.join();
  // Only closed once the dispatcher can no longer push: every queued
  // request has been flushed into a batch by now, so workers drain the
  // batch queue and exit with every future resolved.
  batch_queue_.Close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

ServeFuture Batcher::Submit(const std::string& shape_key,
                            std::vector<Tensor> inputs,
                            std::chrono::microseconds timeout) {
  Request request;
  request.key = shape_key;
  request.inputs = std::move(inputs);
  request.enqueued = Clock::now();
  request.deadline = timeout == kNoDeadline
                         ? Clock::time_point::max()
                         : request.enqueued + timeout;
  ServeFuture future = request.promise.get_future();
  // Push blocks while the queue is full (backpressure); a closed queue
  // refuses without consuming the request, and the caller learns through
  // the future instead of an exception.
  if (stopping_ || !submit_queue_.Push(request)) {
    Resolve(request, UnavailableError("batcher is shut down"));
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.submitted;
  }
  return future;
}

void Batcher::Respecialize(std::vector<Tactic> new_schedule) {
  std::lock_guard<std::mutex> lock(schedule_mu_);
  schedule_ = std::move(new_schedule);
  ++schedule_version_;
}

BatcherStats Batcher::stats() const {
  BatcherStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
  }
  out.cache = cache_->stats();
  return out;
}

void Batcher::Resolve(Request& request, ServeResponse response) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (response.ok()) {
      ++stats_.completed;
    } else if (response.status().code() == StatusCode::kDeadlineExceeded) {
      ++stats_.expired;
    } else if (response.status().code() == StatusCode::kUnavailable) {
      ++stats_.rejected;
    } else {
      ++stats_.failed;
    }
  }
  request.promise.set_value(std::move(response));
}

// ---- Dispatcher ----

std::chrono::microseconds Batcher::NextWait(const Pending& pending) const {
  Clock::time_point now = Clock::now();
  Clock::time_point horizon = now + kIdleWait;
  const Micros max_delay(options_.max_delay_us);
  for (const auto& entry : pending) {
    const std::deque<Request>& queue = entry.second;
    if (queue.empty()) continue;
    horizon = std::min(horizon, queue.front().enqueued + max_delay);
    for (const Request& request : queue) {
      if (request.deadline != Clock::time_point::max()) {
        horizon = std::min(horizon, request.deadline);
      }
    }
  }
  if (horizon <= now) return Micros(0);
  return std::chrono::duration_cast<Micros>(horizon - now);
}

void Batcher::Sweep(Pending& pending, bool flush_all) {
  Clock::time_point now = Clock::now();
  const Micros max_delay(options_.max_delay_us);
  for (auto it = pending.begin(); it != pending.end();) {
    std::deque<Request>& queue = it->second;
    // Expired requests resolve kDeadlineExceeded — never silently dropped,
    // and never occupying a slot in a batch.
    for (auto rit = queue.begin(); rit != queue.end();) {
      if (rit->deadline <= now) {
        Resolve(*rit, DeadlineExceededError(
                          "request expired in the '",
                          it->first.empty() ? "default" : it->first,
                          "' queue before a batch was dispatched"));
        rit = queue.erase(rit);
      } else {
        ++rit;
      }
    }
    auto flush = [&](int64_t count) {
      Batch batch;
      batch.key = it->first;
      batch.requests.reserve(count);
      for (int64_t i = 0; i < count; ++i) {
        batch.requests.push_back(std::move(queue.front()));
        queue.pop_front();
      }
      if (!batch_queue_.Push(batch)) {
        // Unreachable in normal operation (the batch queue closes after
        // the dispatcher exits); resolve rather than break a promise.
        for (Request& request : batch.requests) {
          Resolve(request, UnavailableError("batcher is shut down"));
        }
      }
    };
    // A full batch dispatches immediately; a partial one dispatches once
    // its oldest member has waited max_delay_us (or at drain time).
    while (static_cast<int64_t>(queue.size()) >= options_.max_batch) {
      flush(options_.max_batch);
    }
    if (!queue.empty() &&
        (flush_all || queue.front().enqueued + max_delay <= now)) {
      flush(static_cast<int64_t>(queue.size()));
    }
    it = queue.empty() ? pending.erase(it) : std::next(it);
  }
}

void Batcher::DispatchLoop() {
  Pending pending;
  for (;;) {
    std::optional<Request> request = submit_queue_.PopFor(NextWait(pending));
    if (request.has_value()) {
      pending[request->key].push_back(std::move(*request));
      // Drain whatever else is already queued before forming batches, so
      // a burst coalesces in one sweep instead of one batch per request.
      while (std::optional<Request> more = submit_queue_.PopFor(Micros(0))) {
        pending[more->key].push_back(std::move(*more));
      }
    }
    const bool draining = submit_queue_.closed() && submit_queue_.size() == 0;
    Sweep(pending, /*flush_all=*/draining);
    if (draining && pending.empty()) break;
  }
}

// ---- Workers ----

void Batcher::WorkerLoop() {
  while (std::optional<Batch> batch = batch_queue_.Pop()) {
    ExecuteBatch(std::move(*batch));
  }
}

StatusOr<std::shared_ptr<const Batcher::UnitSignature>> Batcher::EnsureClass(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(classes_mu_);
  return EnsureClassLocked(key);
}

StatusOr<std::shared_ptr<const Batcher::UnitSignature>>
Batcher::EnsureClassLocked(const std::string& key) {
  auto it = classes_.find(key);
  if (it != classes_.end()) return it->second.unit;
  PARTIR_ASSIGN_OR_RETURN(Program unit_program, factory_(key, /*batch=*/1));
  if (!unit_program.sealed()) {
    return FailedPreconditionError("trace factory returned an unsealed "
                                   "program for shape class '", key, "'");
  }
  UnitSignature unit;
  for (int i = 0; i < unit_program.num_inputs(); ++i) {
    const Value* arg = unit_program.input(i);
    if (!arg->type().IsTensor()) {
      return UnimplementedError("shape class '", key, "' input ", i,
                                " is not a tensor");
    }
    unit.input_dims.push_back(arg->tensor_type().dims());
    unit.input_names.push_back(arg->name());
  }
  for (const Value* result : unit_program.func()->results()) {
    if (!result->type().IsTensor()) {
      return UnimplementedError("shape class '", key,
                                "' returns a non-tensor result");
    }
    unit.output_dims.push_back(result->tensor_type().dims());
  }
  ShapeClass& cls = classes_[key];
  cls.unit = std::make_shared<const UnitSignature>(std::move(unit));
  return cls.unit;
}

StatusOr<std::shared_ptr<const Batcher::CompiledBatch>> Batcher::GetOrCompile(
    const std::string& key, int64_t batch) {
  int64_t version;
  {
    std::lock_guard<std::mutex> lock(schedule_mu_);
    version = schedule_version_;
  }
  std::shared_ptr<const UnitSignature> unit;
  std::shared_ptr<const CompiledBatch> previous;
  {
    std::lock_guard<std::mutex> lock(classes_mu_);
    PARTIR_ASSIGN_OR_RETURN(unit, EnsureClassLocked(key));
    ShapeClass& cls = classes_.at(key);
    auto it = cls.by_batch.find(batch);
    if (it != cls.by_batch.end()) previous = it->second;
    if (previous != nullptr && previous->schedule_version == version) {
      return previous;
    }
  }
  PARTIR_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledBatch> compiled,
                          Compile(key, batch, *unit, previous));
  std::lock_guard<std::mutex> lock(classes_mu_);
  classes_.at(key).by_batch[batch] = compiled;
  return compiled;
}

StatusOr<std::shared_ptr<const Batcher::CompiledBatch>> Batcher::Compile(
    const std::string& key, int64_t batch, const UnitSignature& unit,
    const std::shared_ptr<const CompiledBatch>& previous) {
  std::vector<Tactic> schedule;
  int64_t version;
  {
    std::lock_guard<std::mutex> lock(schedule_mu_);
    schedule = schedule_;
    version = schedule_version_;
  }
  std::vector<bool> batched_inputs;
  std::vector<bool> batched_outputs;
  bool fallback = false;

  auto record = [&] {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.compiles;
    if (fallback) ++stats_.fallbacks;
  };

  if (previous != nullptr) {
    // Schedule swap on an already-built batch size: re-specialize the same
    // stacked trace (shared partition cache, so flipping back is a hit).
    StatusOr<Executable> exe =
        previous->exe.Respecialize(schedule, partition_options_);
    if (!exe.ok()) {
      exe = previous->exe.Respecialize({}, partition_options_);
      fallback = true;
    }
    if (!exe.ok()) return exe.status();
    record();
    return std::make_shared<const CompiledBatch>(
        CompiledBatch{std::move(exe).value(), previous->batched_inputs,
                      previous->batched_outputs, version, fallback});
  }

  PARTIR_ASSIGN_OR_RETURN(Program program, factory_(key, batch));
  if (!program.sealed()) {
    return FailedPreconditionError("trace factory returned an unsealed "
                                   "program for shape class '", key,
                                   "' at batch ", batch);
  }
  program.SharePartitionCache(cache_);

  if (program.num_inputs() != static_cast<int>(unit.input_dims.size())) {
    return InternalError("trace factory for shape class '", key,
                         "' produced ", program.num_inputs(),
                         " inputs at batch ", batch, " but ",
                         unit.input_dims.size(), " at batch 1");
  }
  for (int i = 0; i < program.num_inputs(); ++i) {
    StatusOr<BatchDimKind> kind = ClassifyBatchDims(
        unit.input_dims[i], program.input(i)->tensor_type().dims(), batch);
    if (!kind.ok()) {
      return Status(kind.status().code(),
                    StrCat("input '", unit.input_names[i], "': ",
                           kind.status().message()));
    }
    batched_inputs.push_back(kind.value() == BatchDimKind::kBatched);
  }
  std::vector<Value*> results = program.func()->results();
  if (results.size() != unit.output_dims.size()) {
    return InternalError("trace factory for shape class '", key,
                         "' produced ", results.size(), " outputs at batch ",
                         batch, " but ", unit.output_dims.size(),
                         " at batch 1");
  }
  for (size_t j = 0; j < results.size(); ++j) {
    StatusOr<BatchDimKind> kind = ClassifyBatchDims(
        unit.output_dims[j], results[j]->tensor_type().dims(), batch);
    if (!kind.ok()) {
      return Status(kind.status().code(),
                    StrCat("output ", j, ": ", kind.status().message()));
    }
    batched_outputs.push_back(kind.value() == BatchDimKind::kBatched);
  }

  StatusOr<Executable> exe =
      program.Partition(schedule, mesh_, partition_options_);
  if (!exe.ok()) {
    exe = program.Partition({}, mesh_, partition_options_);
    fallback = true;
  }
  if (!exe.ok()) return exe.status();
  record();
  return std::make_shared<const CompiledBatch>(
      CompiledBatch{std::move(exe).value(), std::move(batched_inputs),
                    std::move(batched_outputs), version, fallback});
}

void Batcher::ExecuteBatch(Batch batch) {
  StatusOr<std::shared_ptr<const UnitSignature>> unit_or =
      EnsureClass(batch.key);
  if (!unit_or.ok()) {
    for (Request& request : batch.requests) {
      Resolve(request, unit_or.status());
    }
    return;
  }
  const UnitSignature& unit = *unit_or.value();

  // Per-request validation: one malformed (or expired) request resolves
  // alone; the survivors still run as a (smaller) batch.
  std::vector<Request> live;
  live.reserve(batch.requests.size());
  Clock::time_point now = Clock::now();
  for (Request& request : batch.requests) {
    if (request.deadline <= now) {
      Resolve(request, DeadlineExceededError(
                           "request expired before its batch executed"));
      continue;
    }
    if (request.inputs.size() != unit.input_dims.size()) {
      Resolve(request,
              InvalidArgumentError("shape class '", batch.key, "' expects ",
                                   unit.input_dims.size(), " inputs, got ",
                                   request.inputs.size()));
      continue;
    }
    Status shape_ok = Status::Ok();
    for (size_t i = 0; i < request.inputs.size(); ++i) {
      if (request.inputs[i].dims() != unit.input_dims[i]) {
        shape_ok = InvalidArgumentError(
            "input '", unit.input_names[i], "' has shape [",
            StrJoin(request.inputs[i].dims(), ","),
            "], but shape class '", batch.key, "' expects [",
            StrJoin(unit.input_dims[i], ","), "]");
        break;
      }
    }
    if (!shape_ok.ok()) {
      Resolve(request, shape_ok);
      continue;
    }
    live.push_back(std::move(request));
  }
  if (live.empty()) return;
  const int64_t k = static_cast<int64_t>(live.size());

  StatusOr<std::shared_ptr<const CompiledBatch>> compiled_or =
      GetOrCompile(batch.key, k);
  if (!compiled_or.ok()) {
    for (Request& request : live) Resolve(request, compiled_or.status());
    return;
  }
  const CompiledBatch& compiled = *compiled_or.value();

  // Stack batched inputs along the batch axis; shared inputs (weights,
  // tables) are taken from the first request — identical per-class shared
  // inputs are the shape-class contract.
  std::vector<Tensor> global_inputs(unit.input_dims.size());
  for (size_t i = 0; i < global_inputs.size(); ++i) {
    if (compiled.batched_inputs[i]) {
      std::vector<const Tensor*> parts;
      parts.reserve(live.size());
      for (const Request& request : live) {
        parts.push_back(&request.inputs[i]);
      }
      StatusOr<Tensor> stacked = StackBatch(parts);
      if (!stacked.ok()) {
        for (Request& request : live) Resolve(request, stacked.status());
        return;
      }
      global_inputs[i] = std::move(stacked).value();
    } else {
      global_inputs[i] = std::move(live[0].inputs[i]);
    }
  }

  StatusOr<std::vector<Tensor>> run = compiled.exe.Run(global_inputs,
                                                       options_.run);
  if (!run.ok()) {
    for (Request& request : live) Resolve(request, run.status());
    return;
  }
  std::vector<Tensor>& outputs = run.value();

  // De-stack batched outputs into per-request slices; non-batched outputs
  // replicate to every request.
  std::vector<std::vector<Tensor>> responses(live.size());
  for (size_t j = 0; j < outputs.size(); ++j) {
    if (compiled.batched_outputs[j]) {
      StatusOr<std::vector<Tensor>> slices = UnstackBatch(outputs[j], k);
      if (!slices.ok()) {
        for (Request& request : live) Resolve(request, slices.status());
        return;
      }
      for (size_t r = 0; r < live.size(); ++r) {
        responses[r].push_back(std::move(slices.value()[r]));
      }
    } else {
      for (size_t r = 0; r < live.size(); ++r) {
        responses[r].push_back(outputs[j]);
      }
    }
  }
  for (size_t r = 0; r < live.size(); ++r) {
    Resolve(live[r], std::move(responses[r]));
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.batches;
    stats_.batched_requests += k;
    stats_.max_batch_observed = std::max(stats_.max_batch_observed, k);
  }
}

// ---- Program::Serve (declared in src/api/program.h) ----
//
// Defined here so the api layer does not depend on the serve layer's
// headers; the serve layer already depends on the api.

StatusOr<std::unique_ptr<Batcher>> Program::Serve(
    const std::vector<Tactic>& schedule, const Mesh& mesh,
    const BatchOptions& batch_options, const PartitionOptions& options) const {
  if (batch_builder_ == nullptr) {
    return FailedPreconditionError(
        "Program::Serve requires a batch-parameterized trace; capture the "
        "program with Program::Capture(builder, batch) so the batcher can "
        "re-trace it per coalesced batch size");
  }
  std::function<Func*(Module&, int64_t)> build = batch_builder_;
  Batcher::TraceFactory factory =
      [build](const std::string& shape_key,
              int64_t batch) -> StatusOr<Program> {
    (void)shape_key;  // one shape class: the program's own trace
    return Program::Capture(build, batch);
  };
  return std::make_unique<Batcher>(std::move(factory), schedule, mesh,
                                   batch_options, options, cache_);
}

}  // namespace partir
