/**
 * @file
 * The Program partition cache: memoizes the whole Partition pipeline
 * (actions -> propagation -> SPMD lowering -> collective optimization) on
 * the canonical key (trace fingerprint, schedule, mesh, options). Repeated
 * Partition / Respecialize calls with an identical request — the
 * multi-query serving pattern, where one traced program is specialized per
 * query shape or sharding strategy over and over — skip the pipeline
 * entirely and share the cached result.
 *
 * A PartitionResult is immutable once the pipeline or the disk decoder has
 * built it, and complete: it carries its collective plan and its compiled
 * device program. So a hit hands out the cache entry itself, and every
 * Executable built from one key runs the same module and program. The
 * cache itself is thread-safe.
 *
 * A second, persistent tier (src/persist/) sits behind the in-memory LRU
 * when a cache directory is configured (PartitionOptions::cache_dir or
 * PARTIR_CACHE_DIR): an in-memory miss first consults the content-addressed
 * on-disk store — a disk hit deserializes the stored result, recompiles the
 * process-local device program, and promotes the entry into memory. A
 * result the pipeline computed is written back by the caller that computed
 * it, before that call returns, and best-effort (a full disk or read-only
 * volume costs a counter bump, never an error), so a restarted or sibling
 * process warms from prior compilations.
 */
#ifndef PARTIR_API_PARTITION_CACHE_H_
#define PARTIR_API_PARTITION_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/schedule/schedule.h"

namespace partir {

/** Hit/miss counters of a partition cache. */
struct PartitionCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  /** Requests that arrived while another thread was already compiling the
   *  same key and were served by waiting for it (single-flight followers —
   *  a concurrent miss-storm runs the pipeline once, not N times). Joins
   *  also count as hits: the cache satisfied them without a pipeline run. */
  int64_t joins = 0;
  int64_t entries = 0;
  int64_t capacity = 0;

  // ---- Disk tier (zero unless a cache directory is configured) ----

  /** In-memory misses served by deserializing an on-disk entry. */
  int64_t disk_hits = 0;
  /** In-memory misses with no (or a stale) on-disk entry. */
  int64_t disk_misses = 0;
  /** Computed results written to disk. */
  int64_t disk_writes = 0;
  /** Persist attempts that failed (full disk, unwritable directory, ...);
   *  best-effort, so these cost nothing but this counter. */
  int64_t disk_write_errors = 0;
  /** On-disk entries rejected as damaged (truncation, checksum mismatch,
   *  malformed payload) — treated as misses, recompiled cleanly. */
  int64_t disk_corrupt = 0;
};

/**
 * Thread-safe LRU map from canonical partition-request keys to results.
 * Bounded: every entry pins a full lowered module, so a serving process
 * partitioning a stream of distinct strategies evicts the least recently
 * used entry instead of growing without bound.
 */
class PartitionCache {
 public:
  static constexpr int64_t kDefaultCapacity = 256;

  explicit PartitionCache(int64_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  PartitionCache(const PartitionCache&) = delete;
  PartitionCache& operator=(const PartitionCache&) = delete;

  /**
   * Enables the persistent disk tier under `dir` (idempotent; typically
   * called by PartitionThroughCache with the resolved
   * PartitionOptions::cache_dir / PARTIR_CACHE_DIR). Once enabled the tier
   * stays configured for the cache's lifetime; reconfiguring with a new
   * non-empty directory redirects subsequent reads and writes.
   */
  void ConfigureDisk(const std::string& dir);

  /**
   * Single-flight lookup-or-compile. A hit returns the cached entry and
   * refreshes its recency. On a miss, exactly one caller (the leader) runs
   * `compute` — outside any cache lock — and inserts the result, evicting
   * the least recently used entry when over capacity; concurrent callers
   * with the same key join the in-flight computation and wait for it
   * instead of running the pipeline again (the serving miss-storm: many
   * workers racing to warm the same shape class must yield ONE pipeline
   * run and ONE entry). Errors are not cached; followers of a failed
   * leader receive the leader's status, and the next call retries fresh.
   *
   * With a disk tier configured, the leader consults the on-disk store
   * before running `compute` — a valid entry is deserialized, promoted into
   * the in-memory LRU and returned (disk_hits); a damaged entry counts
   * disk_corrupt and falls through to `compute`; and the leader writes a
   * fresh `compute` result to disk itself, best-effort, after it has
   * published the entry in memory and woken its followers and before it
   * returns. So the entry is on disk when the leader's call returns.
   */
  StatusOr<std::shared_ptr<const PartitionResult>> GetOrCompute(
      const std::string& key,
      const std::function<StatusOr<PartitionResult>()>& compute);

  PartitionCacheStats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const PartitionResult> result;
    std::list<std::string>::iterator recency;  // position in lru_
  };

  /** Rendezvous for callers that joined an in-flight computation. */
  struct Inflight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status status = Status::Ok();
    std::shared_ptr<const PartitionResult> result;
  };

  /** Lookup under mu_ held, refreshing recency; does not touch counters. */
  std::shared_ptr<const PartitionResult> LookupLocked(const std::string& key);
  /** Inserts a key that is not cached (its leader's), evicting the least
   *  recently used entry when over capacity. */
  void InsertLocked(const std::string& key,
                    std::shared_ptr<const PartitionResult> result);

  /** Disk-tier read: load + deserialize the entry for `key`, counting
   *  disk_hits / disk_misses / disk_corrupt. Null on any miss. */
  std::shared_ptr<const PartitionResult> TryLoadFromDisk(
      const std::string& dir, const std::string& key);
  /** Disk-tier write of a computed result, counting disk_writes /
   *  disk_write_errors. */
  void WriteToDisk(const std::string& dir, const std::string& key,
                   const PartitionResult& result);

  mutable std::mutex mu_;
  int64_t capacity_;
  std::list<std::string> lru_;  // front = most recently used
  std::map<std::string, Entry> entries_;
  std::map<std::string, std::shared_ptr<Inflight>> inflight_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t joins_ = 0;
  std::string disk_dir_;  // empty = disk tier off
  int64_t disk_hits_ = 0;
  int64_t disk_misses_ = 0;
  int64_t disk_writes_ = 0;
  int64_t disk_write_errors_ = 0;
  int64_t disk_corrupt_ = 0;
};

/**
 * Canonical key of one partition request. Every field that changes the
 * pipeline's outcome (or its reported metadata) is serialized: the trace
 * fingerprint, each tactic with its full configuration, the mesh, and the
 * options including the device spec.
 */
std::string PartitionCacheKey(uint64_t trace_fingerprint,
                              const std::vector<Tactic>& schedule,
                              const Mesh& mesh,
                              const PartitionOptions& options);

/**
 * Runs a partition request through `cache`, keyed on the fingerprint of
 * `traced` as it is now (persist::FingerprintFunc): a hit returns the
 * cached result itself; a miss runs PartirJitOrError on a fresh context
 * over `traced` and populates the cache (single-flight: concurrent misses
 * on the same key run the pipeline once). Pipeline errors are not cached.
 * When the request resolves a cache directory (options.cache_dir or
 * PARTIR_CACHE_DIR) the cache's persistent disk tier is enabled first, so
 * in-memory misses consult — and results replenish — the cross-process
 * store. With options.use_cache off the pipeline runs without a key, and
 * its fresh result is returned unshared.
 */
StatusOr<std::shared_ptr<const PartitionResult>> PartitionThroughCache(
    PartitionCache& cache, Func* traced, const Mesh& mesh,
    const std::vector<Tactic>& schedule, const PartitionOptions& options);

}  // namespace partir

#endif  // PARTIR_API_PARTITION_CACHE_H_
