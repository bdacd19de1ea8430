#include "src/api/partition_cache.h"

#include <cstdio>
#include <utility>

#include "src/exec/device_program.h"
#include "src/ir/passes.h"
#include "src/persist/serializer.h"
#include "src/persist/store.h"
#include "src/spmd/collectives.h"

namespace partir {

PartitionCache::~PartitionCache() {
  bool join;
  {
    std::lock_guard<std::mutex> lock(disk_mu_);
    disk_stop_ = true;
    join = disk_writer_.joinable();
  }
  disk_cv_.notify_all();
  // The writer drains the remaining queue before honoring stop, so results
  // computed just before destruction still reach the disk.
  if (join) disk_writer_.join();
}

void PartitionCache::ConfigureDisk(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  disk_dir_ = dir;
}

void PartitionCache::FlushDiskWrites() {
  std::unique_lock<std::mutex> lock(disk_mu_);
  disk_idle_cv_.wait(lock, [&] { return disk_queue_.empty() && !disk_busy_; });
}

std::shared_ptr<const PartitionResult> PartitionCache::TryLoadFromDisk(
    const std::string& dir, const std::string& key) {
  StatusOr<PartitionResult> loaded = [&]() -> StatusOr<PartitionResult> {
    PARTIR_ASSIGN_OR_RETURN(
        std::string payload,
        persist::ReadEntry(dir, persist::PayloadKind::kPartitionResult, key));
    return persist::DeserializePartitionResult(payload);
  }();
  std::lock_guard<std::mutex> lock(mu_);
  if (loaded.ok()) {
    ++disk_hits_;
    return std::make_shared<const PartitionResult>(std::move(loaded).value());
  }
  if (loaded.status().code() == StatusCode::kDataLoss) {
    ++disk_corrupt_;
  } else {
    ++disk_misses_;
  }
  return nullptr;
}

void PartitionCache::EnqueueDiskWrite(DiskWrite write) {
  {
    std::lock_guard<std::mutex> lock(disk_mu_);
    if (disk_stop_) return;
    if (!disk_writer_.joinable()) {
      disk_writer_ = std::thread(&PartitionCache::DiskWriterLoop, this);
    }
    disk_queue_.push_back(std::move(write));
  }
  disk_cv_.notify_one();
}

void PartitionCache::DiskWriterLoop() {
  std::unique_lock<std::mutex> lock(disk_mu_);
  for (;;) {
    disk_cv_.wait(lock, [&] { return disk_stop_ || !disk_queue_.empty(); });
    if (disk_queue_.empty()) {
      if (disk_stop_) return;
      continue;
    }
    DiskWrite write = std::move(disk_queue_.front());
    disk_queue_.pop_front();
    disk_busy_ = true;
    lock.unlock();
    // Serialize + write outside both locks; entries are immutable, so
    // reading the result concurrently with cache hits is safe.
    std::string payload = persist::SerializePartitionResult(*write.result);
    Status status =
        persist::WriteEntry(write.dir, persist::PayloadKind::kPartitionResult,
                            write.key, payload);
    {
      std::lock_guard<std::mutex> stats_lock(mu_);
      if (status.ok()) {
        ++disk_writes_;
      } else {
        ++disk_write_errors_;  // best-effort: a full disk is not an error
      }
    }
    lock.lock();
    disk_busy_ = false;
    if (disk_queue_.empty()) disk_idle_cv_.notify_all();
  }
}

std::shared_ptr<const PartitionResult> PartitionCache::LookupLocked(
    const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.recency);
  return it->second.result;
}

void PartitionCache::InsertLocked(
    const std::string& key, std::shared_ptr<const PartitionResult> result) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.result = std::move(result);
    lru_.splice(lru_.begin(), lru_, it->second.recency);
    return;
  }
  lru_.push_front(key);
  entries_[key] = Entry{std::move(result), lru_.begin()};
  while (static_cast<int64_t>(entries_.size()) > capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
  }
}

std::shared_ptr<const PartitionResult> PartitionCache::Lookup(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<const PartitionResult> result = LookupLocked(key);
  if (result == nullptr) {
    ++misses_;
  } else {
    ++hits_;
  }
  return result;
}

void PartitionCache::Insert(const std::string& key,
                            std::shared_ptr<const PartitionResult> result) {
  std::lock_guard<std::mutex> lock(mu_);
  InsertLocked(key, std::move(result));
}

StatusOr<std::shared_ptr<const PartitionResult>> PartitionCache::GetOrCompute(
    const std::string& key,
    const std::function<StatusOr<PartitionResult>()>& compute) {
  std::shared_ptr<Inflight> flight;
  bool leader = false;
  std::string disk_dir;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (std::shared_ptr<const PartitionResult> hit = LookupLocked(key)) {
      ++hits_;
      return hit;
    }
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      flight = it->second;
    } else {
      ++misses_;
      flight = std::make_shared<Inflight>();
      inflight_[key] = flight;
      leader = true;
      disk_dir = disk_dir_;
    }
  }

  if (!leader) {
    // Join the in-flight computation instead of running the pipeline again.
    std::unique_lock<std::mutex> lock(flight->mu);
    flight->cv.wait(lock, [&] { return flight->done; });
    if (!flight->status.ok()) return flight->status;
    {
      std::lock_guard<std::mutex> cache_lock(mu_);
      ++hits_;
      ++joins_;
    }
    return flight->result;
  }

  // Leader: consult the disk tier, else run the pipeline — both outside
  // every lock — then publish.
  std::shared_ptr<const PartitionResult> stored;
  Status failure = Status::Ok();
  if (!disk_dir.empty()) {
    stored = TryLoadFromDisk(disk_dir, key);
  }
  if (stored == nullptr) {
    StatusOr<PartitionResult> computed = compute();
    if (computed.ok()) {
      stored = std::make_shared<const PartitionResult>(
          std::move(computed).value());
      // Replenish the persistent tier asynchronously and best-effort.
      if (!disk_dir.empty()) {
        EnqueueDiskWrite(DiskWrite{disk_dir, key, stored});
      }
    } else {
      failure = computed.status();
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.erase(key);
    if (stored != nullptr) InsertLocked(key, stored);
  }
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->done = true;
    flight->status = failure;
    flight->result = stored;
  }
  flight->cv.notify_all();
  if (stored == nullptr) return failure;
  return stored;
}

PartitionCacheStats PartitionCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PartitionCacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.joins = joins_;
  stats.entries = static_cast<int64_t>(entries_.size());
  stats.capacity = capacity_;
  stats.disk_hits = disk_hits_;
  stats.disk_misses = disk_misses_;
  stats.disk_writes = disk_writes_;
  stats.disk_write_errors = disk_write_errors_;
  stats.disk_corrupt = disk_corrupt_;
  return stats;
}

namespace {

/** Round-trippable double serialization (StrCat would truncate digits). */
std::string DoubleKey(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return std::string(buffer);
}

/** Length-prefixed user string: delimiter characters inside tactic names,
 *  schedule keys or axis names cannot forge another request's key. */
std::string StrKey(const std::string& value) {
  return StrCat(value.size(), "~", value);
}

std::string DeviceKey(const DeviceSpec& device) {
  return StrCat(StrKey(device.name), ",", DoubleKey(device.peak_flops), ",",
                DoubleKey(device.hbm_bytes), ",",
                DoubleKey(device.mem_bandwidth), ",",
                DoubleKey(device.link_bandwidth), ",",
                DoubleKey(device.link_latency_s), ",",
                DoubleKey(device.compute_efficiency));
}

std::string TacticKey(const Tactic& tactic) {
  if (const auto* manual = std::get_if<ManualPartition>(&tactic)) {
    return StrCat("manual{", StrKey(manual->name), "|",
                  StrKey(manual->axis), "|",
                  StrJoin(manual->inputs, ";",
                          [](const std::pair<std::string, int64_t>& input) {
                            return StrCat(StrKey(input.first), ":",
                                          input.second);
                          }),
                  "}");
  }
  const auto& automatic = std::get<AutomaticPartition>(tactic);
  const AutoOptions& options = automatic.options;
  return StrCat("auto{", StrKey(automatic.name), "|",
                StrJoin(automatic.axes, ";", StrKey), "|",
                options.simulations, ",", options.max_actions, ",",
                options.max_candidates, ",", DoubleKey(options.exploration),
                ",", options.seed, "}");
}

std::string MeshKey(const Mesh& mesh) {
  return StrJoin(mesh.axes(), ",", [](const MeshAxis& axis) {
    return StrCat(StrKey(axis.name), ":", axis.size);
  });
}

}  // namespace

std::string PartitionCacheKey(uint64_t trace_fingerprint,
                              const std::vector<Tactic>& schedule,
                              const Mesh& mesh,
                              const PartitionOptions& options) {
  return StrCat(
      "trace:", trace_fingerprint, "|mesh:", MeshKey(mesh),
      "|opts:", DeviceKey(options.device), ",", options.incremental, ",",
      options.boundary_realization, ",", options.analyze,
      "|schedule:", StrJoin(schedule, ",", TacticKey));
}

PartitionResult ClonePartitionResult(
    const std::shared_ptr<const PartitionResult>& result) {
  PartitionResult out;
  out.spmd.module = CloneModule(*result->spmd.module);
  out.spmd.mesh = result->spmd.mesh;
  out.spmd.input_shardings = result->spmd.input_shardings;
  out.spmd.output_shardings = result->spmd.output_shardings;
  out.spmd.plan = BuildCollectivePlan(out.spmd.mesh, *out.spmd.module);
  if (result->spmd.exec_program != nullptr) {
    // The compiled program is immutable and points into the cached entry's
    // module, so clones share it instead of recompiling: the aliasing
    // shared_ptr keeps the entire cached result (module included) alive for
    // as long as any clone executes through the shared program.
    out.spmd.exec_program = std::shared_ptr<const exec::DeviceProgram>(
        result, result->spmd.exec_program.get());
  }
  out.collectives = result->collectives;
  out.estimate = result->estimate;
  out.tactics = result->tactics;
  out.partition_seconds = result->partition_seconds;
  out.conflicts = result->conflicts;
  out.pipeline = result->pipeline;
  out.analysis = result->analysis;
  return out;
}

StatusOr<PartitionResult> PartitionThroughCache(
    PartitionCache& cache, uint64_t trace_fingerprint, Func* traced,
    const Mesh& mesh, const std::vector<Tactic>& schedule,
    const PartitionOptions& options) {
  if (!options.use_cache) {
    PartitionContext ctx(traced, mesh);
    return PartirJitOrError(ctx, schedule, options);
  }
  const std::string disk_dir = persist::ResolveCacheDir(options.cache_dir);
  if (!disk_dir.empty()) cache.ConfigureDisk(disk_dir);
  const std::string key =
      PartitionCacheKey(trace_fingerprint, schedule, mesh, options);
  PARTIR_ASSIGN_OR_RETURN(
      std::shared_ptr<const PartitionResult> cached,
      cache.GetOrCompute(key, [&]() -> StatusOr<PartitionResult> {
        PartitionContext ctx(traced, mesh);
        return PartirJitOrError(ctx, schedule, options);
      }));
  return ClonePartitionResult(cached);
}

}  // namespace partir
