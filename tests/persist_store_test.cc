// Robustness tests for the persistent compilation cache's storage layer and
// disk tier: entry framing (magic, version, key, checksum), truncated and
// bit-flipped payloads decoding as typed misses (never a crash or a wrong
// result), concurrent writers on one key, the PartitionCache disk tier's
// hit/miss/corrupt/write counters, cross-"process" warm starts via fresh
// caches over one directory, and PARTIR_CACHE_DIR environment configuration.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "src/api/partir.h"
#include "src/api/partition_cache.h"
#include "src/ir/printer.h"
#include "src/persist/serializer.h"
#include "src/persist/store.h"

namespace partir {
namespace {

using persist::DecodeEntry;
using persist::EncodeEntry;
using persist::EntryPath;
using persist::PayloadKind;
using persist::ReadEntry;
using persist::WriteEntry;

/** Unique temp directory removed on scope exit. */
struct ScopedDir {
  explicit ScopedDir(const std::string& tag) {
    static int counter = 0;
    path = (std::filesystem::temp_directory_path() /
            (tag + "." + std::to_string(::getpid()) + "." +
             std::to_string(counter++)))
               .string();
    std::filesystem::create_directories(path);
  }
  ~ScopedDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

Program MakeChain() {
  Program program("main");
  Value* x = program.AddInput(TensorType({16, 8}), "x");
  Value* w1 = program.AddInput(TensorType({8, 12}), "w1");
  Value* w2 = program.AddInput(TensorType({12, 8}), "w2");
  OpBuilder& builder = program.builder();
  program.Return({builder.MatMul(builder.MatMul(x, w1), w2)});
  return program;
}

std::vector<Tactic> BpSchedule() {
  return {ManualPartition{"BP", {{"x", 0}}, "B"}};
}

// ---- Entry framing ----

TEST(PersistStoreTest, EncodeDecodeRoundTrips) {
  std::string payload = "the quick brown payload";
  std::string bytes = EncodeEntry(PayloadKind::kModule, "key-1", payload);
  StatusOr<std::string> decoded =
      DecodeEntry(bytes, PayloadKind::kModule, "key-1");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, payload);
}

TEST(PersistStoreTest, TruncationIsDataLoss) {
  std::string bytes =
      EncodeEntry(PayloadKind::kModule, "key", "payload-bytes");
  // Every strict prefix must decode as a typed kDataLoss — never a crash.
  for (size_t len : {size_t{0}, size_t{4}, size_t{11}, bytes.size() - 1}) {
    StatusOr<std::string> decoded =
        DecodeEntry(bytes.substr(0, len), PayloadKind::kModule, "key");
    ASSERT_FALSE(decoded.ok()) << "prefix length " << len;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss)
        << decoded.status().ToString();
  }
}

TEST(PersistStoreTest, FlippedPayloadByteIsDataLoss) {
  std::string bytes = EncodeEntry(PayloadKind::kModule, "key", "payload");
  bytes[bytes.size() - 3] ^= 0x40;  // flip a bit inside the payload
  StatusOr<std::string> decoded =
      DecodeEntry(bytes, PayloadKind::kModule, "key");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(PersistStoreTest, FlippedChecksumByteIsDataLoss) {
  std::string payload = "payload";
  std::string bytes = EncodeEntry(PayloadKind::kModule, "key", payload);
  // The checksum is the 8 bytes immediately before the payload.
  bytes[bytes.size() - payload.size() - 1] ^= 0x01;
  StatusOr<std::string> decoded =
      DecodeEntry(bytes, PayloadKind::kModule, "key");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(PersistStoreTest, WrongVersionIsAMissNotDamage) {
  // Format 2 partition results still carried stage snapshots, and format 3
  // tactic reports carried collective counts and an estimate; like any
  // other version, such an entry must read as a miss.
  ASSERT_NE(persist::kFormatVersion, 2u);
  ASSERT_NE(persist::kFormatVersion, 3u);
  for (char low_byte : {static_cast<char>(persist::kFormatVersion ^ 0xFF),
                        static_cast<char>(2), static_cast<char>(3)}) {
    std::string bytes = EncodeEntry(PayloadKind::kModule, "key", "payload");
    // The little-endian format version follows the 8-byte magic.
    bytes[8] = low_byte;
    StatusOr<std::string> decoded =
        DecodeEntry(bytes, PayloadKind::kModule, "key");
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kNotFound);
  }
}

TEST(PersistStoreTest, WrongKindAndWrongKeyAreMisses) {
  std::string bytes = EncodeEntry(PayloadKind::kModule, "key", "payload");
  StatusOr<std::string> wrong_kind =
      DecodeEntry(bytes, PayloadKind::kPartitionResult, "key");
  ASSERT_FALSE(wrong_kind.ok());
  EXPECT_EQ(wrong_kind.status().code(), StatusCode::kNotFound);

  StatusOr<std::string> wrong_key =
      DecodeEntry(bytes, PayloadKind::kModule, "other-key");
  ASSERT_FALSE(wrong_key.ok());
  EXPECT_EQ(wrong_key.status().code(), StatusCode::kNotFound);
}

TEST(PersistStoreTest, BadMagicIsDataLoss) {
  StatusOr<std::string> decoded = DecodeEntry(
      "definitely not a PartIR cache entry", PayloadKind::kModule, "key");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

// ---- Files ----

TEST(PersistStoreTest, WriteReadEntryRoundTrips) {
  ScopedDir dir("partir-store");
  ASSERT_TRUE(
      WriteEntry(dir.path, PayloadKind::kModule, "key", "payload").ok());
  StatusOr<std::string> read =
      ReadEntry(dir.path, PayloadKind::kModule, "key");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, "payload");
  // No temp files left behind after a successful publish.
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    ++files;
    EXPECT_EQ(entry.path().extension(), ".partir") << entry.path();
  }
  EXPECT_EQ(files, 1);
}

TEST(PersistStoreTest, MissingEntryIsNotFound) {
  ScopedDir dir("partir-store");
  StatusOr<std::string> read =
      ReadEntry(dir.path, PayloadKind::kModule, "absent");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(PersistStoreTest, EntryPathIsStablePerKeyAndDistinctAcrossKeys) {
  EXPECT_EQ(EntryPath("d", "k1"), EntryPath("d", "k1"));
  EXPECT_NE(EntryPath("d", "k1"), EntryPath("d", "k2"));
}

TEST(PersistStoreTest, WriteEntryCreatesTheDirectory) {
  ScopedDir dir("partir-store");
  std::string nested = dir.path + "/a/b";
  ASSERT_TRUE(
      WriteEntry(nested, PayloadKind::kModule, "key", "payload").ok());
  EXPECT_TRUE(ReadEntry(nested, PayloadKind::kModule, "key").ok());
}

TEST(PersistStoreTest, UnwritableDirectoryIsATypedError) {
  Status status = WriteEntry("/proc/definitely-not-writable",
                             PayloadKind::kModule, "key", "payload");
  EXPECT_FALSE(status.ok());  // typed, not an abort
}

// ---- Concurrent writers ----

TEST(PersistStoreTest, ConcurrentWritersNeverYieldTornReads) {
  ScopedDir dir("partir-store");
  const std::string key = "contended-key";
  // Writers race distinct payloads onto one key while readers poll: every
  // read must be a clean miss or one of the complete payloads — rename
  // atomicity means a torn/mixed entry can never be observed.
  std::vector<std::string> payloads;
  for (int i = 0; i < 4; ++i) {
    payloads.push_back(std::string(1000 + 100 * i, 'a' + i));
  }
  std::vector<std::thread> writers;
  for (int i = 0; i < 4; ++i) {
    writers.emplace_back([&, i] {
      for (int round = 0; round < 25; ++round) {
        ASSERT_TRUE(WriteEntry(dir.path, PayloadKind::kModule, key,
                               payloads[i])
                        .ok());
      }
    });
  }
  // A hit must be one of the complete payloads; returns whether it hit.
  auto check_read = [&] {
    StatusOr<std::string> read =
        ReadEntry(dir.path, PayloadKind::kModule, key);
    if (!read.ok()) {
      EXPECT_EQ(read.status().code(), StatusCode::kNotFound)
          << read.status().ToString();
      return false;
    }
    bool known = false;
    for (const std::string& payload : payloads) known |= (*read == payload);
    EXPECT_TRUE(known) << "torn read of " << read->size() << " bytes";
    return true;
  };
  std::atomic<bool> writers_done{false};
  std::thread reader([&] {
    while (!writers_done.load()) check_read();
  });
  for (std::thread& writer : writers) writer.join();
  writers_done = true;
  reader.join();
  // Every rename has landed, so a final read must hit a complete payload.
  EXPECT_TRUE(check_read()) << "no entry after all writers finished";
}

// ---- The PartitionCache disk tier ----

TEST(PersistDiskTierTest, RestartedProcessHitsDisk) {
  ScopedDir dir("partir-disk");
  Mesh mesh({{"B", 4}, {"M", 2}});
  PartitionOptions options;
  options.cache_dir = dir.path;

  std::vector<Tensor> cold_outputs;
  std::vector<Tensor> inputs;
  std::string cold_after_bp;
  {
    // "Process A": cold compile, persisted on the way out.
    Program program = MakeChain();
    inputs = program.RandomInputs(3);
    Executable exe = program.Partition(BpSchedule(), mesh, options).value();
    cold_outputs = exe.Run(inputs).value();
    cold_after_bp = exe.Print(Stage::AfterTactic(0)).value();
    PartitionCacheStats stats = program.cache_stats();
    EXPECT_EQ(stats.misses, 1);
    EXPECT_EQ(stats.disk_hits, 0);
    EXPECT_EQ(stats.disk_misses, 1);
    program.partition_cache()->FlushDiskWrites();
    stats = program.cache_stats();
    EXPECT_EQ(stats.disk_writes, 1);
    EXPECT_EQ(stats.disk_write_errors, 0);
  }
  {
    // "Process B": fresh Program + fresh cache, same trace and directory —
    // must be served from disk, bit-identically.
    Program program = MakeChain();
    Executable exe = program.Partition(BpSchedule(), mesh, options).value();
    PartitionCacheStats stats = program.cache_stats();
    EXPECT_EQ(stats.disk_hits, 1);
    EXPECT_EQ(stats.disk_misses, 0);
    EXPECT_EQ(stats.disk_corrupt, 0);
    std::vector<Tensor> warm_outputs = exe.Run(inputs).value();
    ASSERT_EQ(cold_outputs.size(), warm_outputs.size());
    for (size_t i = 0; i < cold_outputs.size(); ++i) {
      EXPECT_EQ(cold_outputs[i].data(), warm_outputs[i].data());
    }
    // Entries carry no loop forms; the disk hit recomputes its stages.
    EXPECT_EQ(exe.Print(Stage::AfterTactic(0)).value(), cold_after_bp);
    // The disk hit was promoted into memory: a repeat is an in-memory hit.
    program.Partition(BpSchedule(), mesh, options).value();
    stats = program.cache_stats();
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.disk_hits, 1);
  }
}

TEST(PersistDiskTierTest, CorruptEntryRecompilesCleanly) {
  ScopedDir dir("partir-disk");
  Mesh mesh({{"B", 4}, {"M", 2}});
  PartitionOptions options;
  options.cache_dir = dir.path;

  {
    Program program = MakeChain();
    program.Partition(BpSchedule(), mesh, options).value();
    program.partition_cache()->FlushDiskWrites();
  }
  // Flip a byte in the middle of every stored entry.
  int damaged = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    std::fstream file(entry.path(),
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(0, std::ios::end);
    auto size = static_cast<long>(file.tellg());
    file.seekp(size / 2);
    char byte;
    file.seekg(size / 2);
    file.get(byte);
    byte = static_cast<char>(byte ^ 0x7F);
    file.seekp(size / 2);
    file.put(byte);
    ++damaged;
  }
  ASSERT_GT(damaged, 0);

  // A fresh "process" must detect the damage, count it, and recompile — a
  // successful Partition with correct outputs, never a crash.
  Program program = MakeChain();
  Executable exe = program.Partition(BpSchedule(), mesh, options).value();
  EXPECT_TRUE(exe.Run(program.RandomInputs(5)).ok());
  PartitionCacheStats stats = program.cache_stats();
  EXPECT_EQ(stats.disk_hits, 0);
  EXPECT_EQ(stats.disk_corrupt, 1);
  // And the recompiled result replaces the damaged entry.
  program.partition_cache()->FlushDiskWrites();
  EXPECT_EQ(program.cache_stats().disk_writes, 1);

  Program verify = MakeChain();
  verify.Partition(BpSchedule(), mesh, options).value();
  EXPECT_EQ(verify.cache_stats().disk_hits, 1);
}

TEST(PersistDiskTierTest, TruncatedEntryIsCorrupt) {
  ScopedDir dir("partir-disk");
  Mesh mesh({{"B", 4}, {"M", 2}});
  PartitionOptions options;
  options.cache_dir = dir.path;
  {
    Program program = MakeChain();
    program.Partition(BpSchedule(), mesh, options).value();
    program.partition_cache()->FlushDiskWrites();
  }
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    std::filesystem::resize_file(
        entry.path(), std::filesystem::file_size(entry.path()) / 2);
  }
  Program program = MakeChain();
  ASSERT_TRUE(program.Partition(BpSchedule(), mesh, options).ok());
  EXPECT_EQ(program.cache_stats().disk_corrupt, 1);
}

TEST(PersistDiskTierTest, DiskDisabledWithoutDirectory) {
  // No cache_dir, no PARTIR_CACHE_DIR: all disk counters stay zero.
  ::unsetenv("PARTIR_CACHE_DIR");
  Program program = MakeChain();
  program.Partition(BpSchedule(), Mesh({{"B", 4}, {"M", 2}})).value();
  PartitionCacheStats stats = program.cache_stats();
  EXPECT_EQ(stats.disk_hits, 0);
  EXPECT_EQ(stats.disk_misses, 0);
  EXPECT_EQ(stats.disk_writes, 0);
}

TEST(PersistDiskTierTest, EnvironmentVariableEnablesTheTier) {
  ScopedDir dir("partir-disk-env");
  ASSERT_EQ(::setenv("PARTIR_CACHE_DIR", dir.path.c_str(), 1), 0);
  Mesh mesh({{"B", 4}, {"M", 2}});
  {
    Program program = MakeChain();
    program.Partition(BpSchedule(), mesh).value();
    EXPECT_EQ(program.cache_stats().disk_misses, 1);
    program.partition_cache()->FlushDiskWrites();
    EXPECT_EQ(program.cache_stats().disk_writes, 1);
  }
  {
    Program program = MakeChain();
    program.Partition(BpSchedule(), mesh).value();
    EXPECT_EQ(program.cache_stats().disk_hits, 1);
  }
  ::unsetenv("PARTIR_CACHE_DIR");
  EXPECT_EQ(persist::ResolveCacheDir(""), "");
  EXPECT_EQ(persist::ResolveCacheDir("/explicit"), "/explicit");
}

TEST(PersistDiskTierTest, ConcurrentProcessesShareOneDirectory) {
  // Several caches (process stand-ins) race the same key on one directory:
  // every Partition must succeed, nothing may ever decode as corrupt, and
  // at least the leaders' writes land.
  ScopedDir dir("partir-disk-race");
  Mesh mesh({{"B", 4}, {"M", 2}});
  PartitionOptions options;
  options.cache_dir = dir.path;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  std::atomic<long> corrupt{0};
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      for (int round = 0; round < 3; ++round) {
        Program program = MakeChain();
        if (!program.Partition(BpSchedule(), mesh, options).ok()) {
          ++failures;
        }
        program.partition_cache()->FlushDiskWrites();
        corrupt += program.cache_stats().disk_corrupt;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(corrupt.load(), 0);

  Program program = MakeChain();
  program.Partition(BpSchedule(), mesh, options).value();
  EXPECT_EQ(program.cache_stats().disk_hits, 1);
}

// ---- Facade error paths ----

TEST(PersistFacadeTest, LoadMissingFileIsNotFound) {
  StatusOr<Program> loaded = Program::Load("/nonexistent/path/program.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(PersistFacadeTest, LoadGarbageFileIsDataLoss) {
  ScopedDir dir("partir-facade");
  std::string path = dir.path + "/garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a serialized program at all, not even close";
  }
  StatusOr<Program> loaded = Program::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(PersistFacadeTest, LoadRejectsAPartitionResultFile) {
  ScopedDir dir("partir-facade");
  std::string path = dir.path + "/result.bin";
  Program program = MakeChain();
  Executable exe =
      program.Partition(BpSchedule(), Mesh({{"B", 4}, {"M", 2}})).value();
  ASSERT_TRUE(exe.SaveResult(path).ok());
  StatusOr<Program> loaded = Program::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);  // foreign kind
}

TEST(PersistFacadeTest, CorruptPartitionResultPayloadIsTyped) {
  // Damage *inside* a valid frame: the checksum passes framing but the
  // payload decode must still fail typed (never crash) — exercised by
  // fuzzing the structural deserializer directly with truncations.
  Program program = MakeChain();
  PartitionContext ctx(program.func(), Mesh({{"B", 4}, {"M", 2}}));
  std::string payload = persist::SerializePartitionResult(
      PartirJitOrError(ctx, BpSchedule()).value());
  for (size_t fraction = 1; fraction < 8; ++fraction) {
    std::string truncated =
        payload.substr(0, payload.size() * fraction / 8);
    StatusOr<PartitionResult> restored =
        persist::DeserializePartitionResult(truncated);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss)
        << "fraction " << fraction << ": " << restored.status().ToString();
  }
}

}  // namespace
}  // namespace partir
