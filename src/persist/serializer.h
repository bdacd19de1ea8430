/**
 * @file
 * Binary (de)serialization of the traced IR and full PartitionResults — the
 * payload layer of the persistent cross-process compilation cache
 * (src/persist/store.h) and of the user-facing Program::Save /
 * Program::Load / Executable::SaveResult features.
 *
 * The format is a flat little-endian byte stream: values are numbered in
 * definition order (arguments first, then op results, recursing into
 * regions after each op), so operand wiring round-trips as dense indices.
 * Everything the printer or the runtime can observe is preserved
 * bit-for-bit: value names, types, attributes, mesh axes, shardings,
 * per-tactic reports and pipeline statistics. The same bytes fingerprint
 * a traced function for the partition-cache key (FingerprintFunc).
 *
 * Deserialization never trusts the input: every read is bounds-checked and
 * every enum/range is validated, so a truncated or corrupted payload is a
 * typed kDataLoss Status — never an abort or an out-of-bounds access.
 */
#ifndef PARTIR_PERSIST_SERIALIZER_H_
#define PARTIR_PERSIST_SERIALIZER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/ir/ir.h"
#include "src/schedule/schedule.h"
#include "src/support/status.h"

namespace partir {
namespace persist {

/** Appends fixed-width little-endian scalars and length-prefixed strings
 *  to a growing byte buffer. */
class ByteWriter {
 public:
  void WriteU8(uint8_t value) { out_.push_back(static_cast<char>(value)); }
  void WriteU32(uint32_t value);
  void WriteU64(uint64_t value);
  void WriteI64(int64_t value) { WriteU64(static_cast<uint64_t>(value)); }
  void WriteF64(double value);
  void WriteStr(const std::string& value);

  const std::string& bytes() const { return out_; }
  std::string TakeBytes() { return std::move(out_); }

 private:
  std::string out_;
};

/**
 * Bounds-checked reader over a byte buffer. The first failed read latches a
 * kDataLoss status; subsequent reads return zero values, so decode code can
 * read a whole record and check `status()` once (interleaved with explicit
 * validation of enums and counts).
 */
class ByteReader {
 public:
  explicit ByteReader(const std::string& bytes) : bytes_(bytes) {}

  uint8_t ReadU8();
  uint32_t ReadU32();
  uint64_t ReadU64();
  int64_t ReadI64() { return static_cast<int64_t>(ReadU64()); }
  double ReadF64();
  std::string ReadStr();

  /** Marks the stream corrupt with a message (for semantic validation
   *  failures: bad enum tags, out-of-range indices, negative counts). */
  void Corrupt(const std::string& reason);

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  bool Need(size_t n);

  const std::string& bytes_;
  size_t pos_ = 0;
  Status status_ = Status::Ok();
};

// ---- IR modules ----

/** Serializes a whole module (every function, with value names). */
std::string SerializeModule(const Module& module);

/** Rebuilds a module from SerializeModule bytes; kDataLoss on corrupt or
 *  truncated input. */
StatusOr<std::unique_ptr<Module>> DeserializeModule(const std::string& bytes);

/**
 * Fingerprint of a traced function: HashBytes of its serialized bytes, so
 * it covers everything a saved trace holds — op kinds, operand wiring,
 * types, attributes (tag names included), regions and every value name.
 * Two traces with equal fingerprints partition and print identically under
 * the same (schedule, mesh, options); it is the trace component of the
 * partition-cache key. Cached on the Func keyed on its body's mutation
 * version (Block::version), so repeated Partition calls on an unchanged
 * trace serialize it once; any mutation in the region tree invalidates
 * the cached digest.
 */
uint64_t FingerprintFunc(const Func& func);

// ---- Partition results ----

/**
 * Serializes the full PartitionResult: the device-local SPMD module with
 * mesh and shardings, collective counts, simulator estimate, per-tactic
 * reports, pipeline statistics, recorded conflicts (axis and reason; the
 * op pointer is process-local and restored as null), and the
 * static-analysis report with its pipeline counts. Loop-form stages are
 * not stored: Executable::Print recomputes them from the schedule.
 */
std::string SerializePartitionResult(const PartitionResult& result);

/**
 * Rebuilds a PartitionResult from SerializePartitionResult bytes and
 * rebuilds its process-local derived state, the collective plan and the
 * compiled device program, so a loaded result is as complete as one the
 * pipeline built. kDataLoss on corrupt input, including a well-formed
 * payload whose module does not verify over its mesh or does not compile
 * (a device-local program that is not flat).
 */
StatusOr<PartitionResult> DeserializePartitionResult(
    const std::string& bytes);

}  // namespace persist
}  // namespace partir

#endif  // PARTIR_PERSIST_SERIALIZER_H_
