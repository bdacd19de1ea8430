/**
 * @file
 * The Program partition cache: memoizes the whole Partition pipeline
 * (actions -> propagation -> SPMD lowering -> collective optimization) on
 * the canonical key (trace fingerprint, schedule, mesh, options). Repeated
 * Partition / Respecialize calls with an identical request — the
 * multi-query serving pattern, where one traced program is specialized per
 * query shape or sharding strategy over and over — skip the pipeline
 * entirely and clone the cached device-local module instead.
 *
 * Entries are immutable; every hit hands out a fresh clone of the lowered
 * module (with its own collective plan), so executables stay independently
 * mutable. The cache itself is thread-safe.
 *
 * A second, persistent tier (src/persist/) sits behind the in-memory LRU
 * when a cache directory is configured (PartitionOptions::cache_dir or
 * PARTIR_CACHE_DIR): an in-memory miss first consults the content-addressed
 * on-disk store — a disk hit deserializes the stored result, recompiles the
 * process-local device program, and promotes the entry into memory —
 * and pipeline results are persisted back asynchronously and best-effort
 * (a full disk or read-only volume costs a counter bump, never an error),
 * so a restarted or sibling process warms from prior compilations.
 */
#ifndef PARTIR_API_PARTITION_CACHE_H_
#define PARTIR_API_PARTITION_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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
  /** Results persisted to disk by the background writer. */
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
 * Bounded: every entry pins a full cloned module, so a serving process
 * partitioning a stream of distinct strategies evicts the least recently
 * used entry instead of growing without bound.
 */
class PartitionCache {
 public:
  static constexpr int64_t kDefaultCapacity = 256;

  explicit PartitionCache(int64_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  /** Drains pending disk writes, then joins the background writer. */
  ~PartitionCache();

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

  /** Blocks until every enqueued background persist has hit the disk —
   *  for tests and for handing a warm cache directory to another process. */
  void FlushDiskWrites();

  /** Returns the cached result (refreshing its recency), counting a hit;
   *  null counts a miss. */
  std::shared_ptr<const PartitionResult> Lookup(const std::string& key);

  /** Inserts (or replaces) an entry, evicting the least recently used
   *  entry when over capacity. */
  void Insert(const std::string& key,
              std::shared_ptr<const PartitionResult> result);

  /**
   * Single-flight lookup-or-compile. A hit returns the cached entry. On a
   * miss, exactly one caller (the leader) runs `compute` — outside any cache
   * lock — and inserts the result; concurrent callers with the same key
   * join the in-flight computation and wait for it instead of running the
   * pipeline again (the serving miss-storm: many workers racing to warm the
   * same shape class must yield ONE pipeline run and ONE entry). Errors are
   * not cached; followers of a failed leader receive the leader's status,
   * and the next call retries fresh.
   *
   * With a disk tier configured, the leader consults the on-disk store
   * before running `compute` — a valid entry is deserialized, promoted into
   * the in-memory LRU and returned (disk_hits); a damaged entry counts
   * disk_corrupt and falls through to `compute`; and a fresh `compute`
   * result is enqueued for asynchronous best-effort persistence.
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

  /** One pending background persist. */
  struct DiskWrite {
    std::string dir;
    std::string key;
    std::shared_ptr<const PartitionResult> result;
  };

  /** Lookup under mu_ held, refreshing recency; does not touch counters. */
  std::shared_ptr<const PartitionResult> LookupLocked(const std::string& key);
  void InsertLocked(const std::string& key,
                    std::shared_ptr<const PartitionResult> result);

  /** Disk-tier read: load + deserialize the entry for `key`, counting
   *  disk_hits / disk_misses / disk_corrupt. Null on any miss. */
  std::shared_ptr<const PartitionResult> TryLoadFromDisk(
      const std::string& dir, const std::string& key);
  /** Hands a result to the background writer (starting it lazily). */
  void EnqueueDiskWrite(DiskWrite write);
  void DiskWriterLoop();

  // Lock ordering: mu_ and disk_mu_ are never held together (counter
  // updates from the writer thread release disk_mu_ first).
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

  // Background persist queue; the writer thread starts on first enqueue.
  std::mutex disk_mu_;
  std::condition_variable disk_cv_;       // wakes the writer
  std::condition_variable disk_idle_cv_;  // wakes FlushDiskWrites waiters
  std::deque<DiskWrite> disk_queue_;
  bool disk_busy_ = false;  // a write is in progress (queue may be empty)
  bool disk_stop_ = false;
  std::thread disk_writer_;
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
 * Deep copy of a partition result: re-clones the device-local module and
 * rebuilds its collective plan, so a cache-hit executable never shares a
 * module with another executable (or the cache entry).
 *
 * The compiled device program is NOT recompiled: it is immutable and pinned
 * to the cached entry's module, so every clone shares it (an aliasing
 * shared_ptr keeps the whole cached result alive). Mutable access to a
 * clone's module drops the shared program (SpmdModule::InvalidatePlan), and
 * the next Run compiles a private one against the mutated module.
 */
PartitionResult ClonePartitionResult(
    const std::shared_ptr<const PartitionResult>& result);

/**
 * Runs a partition request through `cache`: a hit returns a clone of the
 * cached result; a miss runs PartirJitOrError on a fresh context over
 * `traced` and populates the cache (single-flight: concurrent misses on the
 * same key run the pipeline once). Pipeline errors are not cached. When the
 * request resolves a cache directory (options.cache_dir or PARTIR_CACHE_DIR)
 * the cache's persistent disk tier is enabled first, so in-memory misses
 * consult — and results replenish — the cross-process store.
 */
StatusOr<PartitionResult> PartitionThroughCache(
    PartitionCache& cache, uint64_t trace_fingerprint, Func* traced,
    const Mesh& mesh, const std::vector<Tactic>& schedule,
    const PartitionOptions& options);

}  // namespace partir

#endif  // PARTIR_API_PARTITION_CACHE_H_
