/**
 * @file
 * Content-addressed on-disk store of serialized compilation artifacts — the
 * file layer of the persistent cross-process compilation cache. Entries are
 * keyed by the same composite string the in-memory PartitionCache uses
 * (trace fingerprint + schedule + mesh + options); the file name is derived
 * from two independent 64-bit hashes of the key, and the full key is stored
 * inside the entry so a (vanishingly unlikely) file-name collision decodes
 * as a clean miss, never as a wrong result.
 *
 * Concurrency: writers serialize through the filesystem — each write goes
 * to a unique temp file in the cache directory and is published with an
 * atomic rename, so readers (and concurrent writers of the same key) only
 * ever observe complete entries. There are no locks and no cross-process
 * coordination beyond rename atomicity.
 *
 * Failure taxonomy (all typed, never an abort):
 *   - kNotFound: no entry on disk, or a stale/foreign entry (format version
 *     or stored key mismatch) — callers treat it as a cache miss.
 *   - kDataLoss: the entry is damaged (truncated payload, checksum
 *     mismatch, malformed framing) — also a miss, but counted separately
 *     so operators can spot a corrupting cache volume.
 */
#ifndef PARTIR_PERSIST_STORE_H_
#define PARTIR_PERSIST_STORE_H_

#include <cstdint>
#include <string>

#include "src/support/status.h"

namespace partir {
namespace persist {

/** Bumped whenever the serialized format changes shape; entries written by
 *  other versions decode as kNotFound (stale), not as data loss.
 *  v2: PartitionResult carries the static-analysis report and the pipeline
 *  analysis counts.
 *  v3: PartitionResult no longer carries stage snapshots.
 *  v4: TacticReport no longer carries collective counts or an estimate. */
inline constexpr uint32_t kFormatVersion = 4;

/** What an entry's payload contains. Stored in the header so a file saved
 *  through one facade cannot be misinterpreted by another. */
enum class PayloadKind : uint32_t {
  kModule = 1,           // Program::Save / Program::Load
  kPartitionResult = 2,  // the partition-cache disk tier, Executable::SaveResult
};

/** FNV-1a 64-bit hash of a byte string (the store's checksum function). */
uint64_t HashBytes(const std::string& bytes);

/**
 * Frames a payload into a self-validating entry:
 * magic, format version, payload kind, the full cache key, payload length
 * and checksum, then the payload bytes.
 */
std::string EncodeEntry(PayloadKind kind, const std::string& key,
                        const std::string& payload);

/**
 * Validates an entry end-to-end and returns the payload. kNotFound for a
 * version or key mismatch (stale/foreign entry == miss); kDataLoss for bad
 * magic, truncation, or a checksum mismatch (damaged entry).
 */
StatusOr<std::string> DecodeEntry(const std::string& bytes, PayloadKind kind,
                                  const std::string& key);

/** File path of a key's entry under `dir`: two independent hashes of the
 *  key, hex-encoded, plus a fixed extension. */
std::string EntryPath(const std::string& dir, const std::string& key);

/**
 * Atomically publishes an entry for `key` under `dir` (creating the
 * directory if needed): the framed bytes are written to a unique temp file
 * and renamed over the final path, so concurrent readers and writers never
 * observe a partial entry. Any filesystem error is returned as a Status
 * (best-effort callers log-and-drop it).
 */
Status WriteEntry(const std::string& dir, PayloadKind kind,
                  const std::string& key, const std::string& payload);

/** Reads and validates the entry for `key` under `dir`. kNotFound when the
 *  file does not exist or holds a stale/foreign entry; kDataLoss when it is
 *  damaged. */
StatusOr<std::string> ReadEntry(const std::string& dir, PayloadKind kind,
                                const std::string& key);

/**
 * Writes `bytes` to `path` via a unique sibling temp file and an atomic
 * rename (the primitive WriteEntry and the Save facades build on).
 */
Status WriteFileAtomic(const std::string& path, const std::string& bytes);

/** Reads a whole file; kNotFound when it does not exist or cannot open. */
StatusOr<std::string> ReadFileToString(const std::string& path);

/** Resolves the effective cache directory: `option` when non-empty, else
 *  the PARTIR_CACHE_DIR environment variable, else "" (disk tier off). */
std::string ResolveCacheDir(const std::string& option);

}  // namespace persist
}  // namespace partir

#endif  // PARTIR_PERSIST_STORE_H_
