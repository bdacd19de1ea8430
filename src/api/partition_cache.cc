#include "src/api/partition_cache.h"

#include <cstdio>
#include <utility>

#include "src/persist/serializer.h"
#include "src/persist/store.h"

namespace partir {

void PartitionCache::ConfigureDisk(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  disk_dir_ = dir;
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

void PartitionCache::WriteToDisk(const std::string& dir,
                                 const std::string& key,
                                 const PartitionResult& result) {
  Status status =
      persist::WriteEntry(dir, persist::PayloadKind::kPartitionResult, key,
                          persist::SerializePartitionResult(result));
  std::lock_guard<std::mutex> lock(mu_);
  if (status.ok()) {
    ++disk_writes_;
  } else {
    ++disk_write_errors_;  // best-effort: a full disk is not an error
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
  lru_.push_front(key);
  entries_[key] = Entry{std::move(result), lru_.begin()};
  while (static_cast<int64_t>(entries_.size()) > capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
  }
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
  bool computed_here = false;
  if (!disk_dir.empty()) {
    stored = TryLoadFromDisk(disk_dir, key);
  }
  if (stored == nullptr) {
    StatusOr<PartitionResult> computed = compute();
    if (computed.ok()) {
      stored = std::make_shared<const PartitionResult>(
          std::move(computed).value());
      computed_here = true;
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
  // Followers are already running; the leader replenishes the persistent
  // tier before it returns.
  if (computed_here && !disk_dir.empty()) WriteToDisk(disk_dir, key, *stored);
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

StatusOr<std::shared_ptr<const PartitionResult>> PartitionThroughCache(
    PartitionCache& cache, Func* traced, const Mesh& mesh,
    const std::vector<Tactic>& schedule, const PartitionOptions& options) {
  auto compute = [&]() -> StatusOr<PartitionResult> {
    PartitionContext ctx(traced, mesh);
    return PartirJitOrError(ctx, schedule, options);
  };
  if (!options.use_cache) {
    PARTIR_ASSIGN_OR_RETURN(PartitionResult result, compute());
    return std::make_shared<const PartitionResult>(std::move(result));
  }
  const std::string disk_dir = persist::ResolveCacheDir(options.cache_dir);
  if (!disk_dir.empty()) cache.ConfigureDisk(disk_dir);
  // Fingerprint the live trace on every request, so a trace mutated since
  // an earlier Partition can never serve a stale entry.
  return cache.GetOrCompute(PartitionCacheKey(persist::FingerprintFunc(*traced),
                                              schedule, mesh, options),
                            compute);
}

}  // namespace partir
