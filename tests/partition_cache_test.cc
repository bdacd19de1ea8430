// Tests for the Program partition cache: trace fingerprinting, hit/miss
// keying on (trace, schedule, mesh, options), Respecialize sharing the
// cache, hits sharing the miss's immutable result (run concurrently), LRU
// eviction, and single-flight coalescing of concurrent misses on one key.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/api/partir.h"
#include "src/api/partition_cache.h"
#include "src/support/mpmc_queue.h"

namespace partir {
namespace {

Program MakeChain(const std::string& x_name = "x") {
  Program program("main");
  Value* x = program.AddInput(TensorType({16, 8}), x_name);
  Value* w1 = program.AddInput(TensorType({8, 12}), "w1");
  Value* w2 = program.AddInput(TensorType({12, 8}), "w2");
  OpBuilder& builder = program.builder();
  program.Return({builder.MatMul(builder.MatMul(x, w1), w2)});
  return program;
}

std::vector<Tactic> BpSchedule(const std::string& key = "x") {
  return {ManualPartition{"BP", {{key, 0}}, "B"}};
}

TEST(TraceFingerprintTest, IdenticalTracesAgree) {
  Program a = MakeChain();
  Program b = MakeChain();
  EXPECT_EQ(a.TraceFingerprint(), b.TraceFingerprint());
}

TEST(TraceFingerprintTest, ArgumentNamesAndShapesMatter) {
  // Argument names are schedule keys, so renaming must change the key.
  Program renamed = MakeChain("queries");
  EXPECT_NE(MakeChain().TraceFingerprint(), renamed.TraceFingerprint());

  Program reshaped("main");
  Value* x = reshaped.AddInput(TensorType({32, 8}), "x");
  Value* w1 = reshaped.AddInput(TensorType({8, 12}), "w1");
  Value* w2 = reshaped.AddInput(TensorType({12, 8}), "w2");
  OpBuilder& builder = reshaped.builder();
  reshaped.Return({builder.MatMul(builder.MatMul(x, w1), w2)});
  EXPECT_NE(MakeChain().TraceFingerprint(), reshaped.TraceFingerprint());
}

TEST(TraceFingerprintTest, ValueNamesMatter) {
  // Two traces that differ only in an intermediate value's name lower to
  // modules that print differently, so they must not share a cache entry:
  // a hit would print the other trace's names.
  auto build = [](const std::string& hidden_name) {
    Program program("main");
    Value* x = program.AddInput(TensorType({16, 8}), "x");
    Value* w1 = program.AddInput(TensorType({8, 12}), "w1");
    Value* w2 = program.AddInput(TensorType({12, 8}), "w2");
    OpBuilder& builder = program.builder();
    Value* hidden = builder.MatMul(x, w1);
    hidden->set_name(hidden_name);
    program.Return({builder.MatMul(hidden, w2)});
    return program;
  };
  Program alpha = build("alpha");
  Program beta = build("beta");
  EXPECT_NE(alpha.TraceFingerprint(), beta.TraceFingerprint());

  beta.SharePartitionCache(alpha.partition_cache());
  Mesh mesh({{"B", 4}});
  (void)alpha.Partition(BpSchedule(), mesh).value();
  std::string printed =
      beta.Partition(BpSchedule(), mesh).value().Print(Stage::Spmd()).value();
  EXPECT_NE(printed.find("beta"), std::string::npos) << printed;
  EXPECT_EQ(printed.find("alpha"), std::string::npos) << printed;
  EXPECT_EQ(alpha.cache_stats().misses, 2);
}

TEST(PartitionCacheTest, RepeatedPartitionIsAHit) {
  Program program = MakeChain();
  Mesh mesh({{"B", 4}, {"M", 2}});
  PartitionCacheStats stats = program.cache_stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 0);
  EXPECT_EQ(stats.entries, 0);

  Executable first = program.Partition(BpSchedule(), mesh).value();
  stats = program.cache_stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1);

  Executable second = program.Partition(BpSchedule(), mesh).value();
  stats = program.cache_stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1);

  // The hit serves the cached module itself, with identical behavior.
  EXPECT_EQ(first.spmd().module.get(), second.spmd().module.get());
  std::vector<Tensor> inputs = program.RandomInputs(3);
  std::vector<Tensor> want = first.Run(inputs).value();
  std::vector<Tensor> got = second.Run(inputs).value();
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].data(), got[i].data());
  }
  // Metadata survives the round trip.
  EXPECT_EQ(first.Collectives().all_reduce, second.Collectives().all_reduce);
  ASSERT_EQ(first.tactics().size(), second.tactics().size());
  EXPECT_EQ(first.tactics()[0].name, second.tactics()[0].name);
}

TEST(PartitionCacheTest, DifferentRequestsMiss) {
  Program program = MakeChain();
  Mesh mesh({{"B", 4}, {"M", 2}});
  (void)program.Partition(BpSchedule(), mesh).value();

  // Different schedule.
  (void)program
      .Partition({ManualPartition{"MP", {{"w1", 1}}, "M"}}, mesh)
      .value();
  // Different mesh.
  (void)program.Partition(BpSchedule(), Mesh({{"B", 2}, {"M", 2}})).value();
  // Different options (the PartIR-st ablation propagates differently).
  PartitionOptions st;
  st.incremental = false;
  (void)program.Partition(BpSchedule(), mesh, st).value();
  // Flipped analysis: a hit would carry the analysis its miss ran (or
  // skipped) instead of the one requested.
  PartitionOptions flipped;
  flipped.analyze = !flipped.analyze;
  (void)program.Partition(BpSchedule(), mesh, flipped).value();

  PartitionCacheStats stats = program.cache_stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 5);
  EXPECT_EQ(stats.entries, 5);
}

TEST(PartitionCacheTest, RespecializeSharesTheCache) {
  Program program = MakeChain();
  Mesh mesh({{"B", 4}, {"M", 2}});
  Executable exe = program.Partition(BpSchedule(), mesh).value();

  // Same schedule through Respecialize: a hit.
  (void)exe.Respecialize(BpSchedule()).value();
  PartitionCacheStats stats = program.cache_stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);

  // A new schedule misses, then the same request through the Program hits.
  std::vector<Tactic> mp = {ManualPartition{"MP", {{"w1", 1}}, "M"}};
  (void)exe.Respecialize(mp).value();
  (void)program.Partition(mp, mesh).value();
  stats = program.cache_stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.entries, 2);
}

TEST(PartitionCacheTest, StagesPrintOnACacheHit) {
  Program program = MakeChain();
  Mesh mesh({{"B", 4}, {"M", 2}});
  Executable miss = program.Partition(BpSchedule(), mesh).value();
  Executable hit = program.Partition(BpSchedule(), mesh).value();
  EXPECT_EQ(program.cache_stats().hits, 1);
  StatusOr<std::string> loops = hit.Print(Stage::Loops());
  ASSERT_TRUE(loops.ok()) << loops.status().ToString();
  EXPECT_EQ(*loops, miss.Print(Stage::Loops()).value());
  StatusOr<std::string> after_bp = hit.Print(Stage::AfterTactic(0));
  ASSERT_TRUE(after_bp.ok()) << after_bp.status().ToString();
  EXPECT_EQ(*after_bp, miss.Print(Stage::AfterTactic(0)).value());
}

TEST(PartitionCacheTest, AHitSharesTheMissResultAcrossConcurrentRuns) {
  Program program = MakeChain();
  Mesh mesh({{"B", 4}, {"M", 2}});
  Executable miss = program.Partition(BpSchedule(), mesh).value();
  Executable hit = program.Partition(BpSchedule(), mesh).value();
  EXPECT_EQ(program.cache_stats().hits, 1);

  // The hit hands out the cache entry itself: no module clone, no re-plan,
  // no recompile.
  EXPECT_EQ(&hit.spmd(), &miss.spmd());
  ASSERT_NE(miss.spmd().exec_program, nullptr);
  EXPECT_EQ(hit.spmd().exec_program, miss.spmd().exec_program);
  EXPECT_EQ(hit.spmd().plan, miss.spmd().plan);

  // Both executables run the one shared module and program at once, on
  // device threads and sequentially, with bitwise-equal outputs.
  std::vector<Tensor> inputs = program.RandomInputs(7);
  std::vector<Tensor> want = miss.Run(inputs).value();
  constexpr int kThreads = 4;
  std::vector<StatusOr<std::vector<Tensor>>> got;
  for (int t = 0; t < kThreads; ++t) got.emplace_back(InternalError("not run"));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const Executable& exe = t % 2 == 0 ? miss : hit;
      RunOptions options;
      options.num_threads = t < 2 ? 0 : 1;
      for (int round = 0; round < 5; ++round) {
        got[t] = exe.Run(inputs, options);
        if (!got[t].ok()) break;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(got[t].ok()) << got[t].status().ToString();
    ASSERT_EQ(got[t]->size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ((*got[t])[i].data().size(), want[i].data().size());
      EXPECT_EQ(std::memcmp((*got[t])[i].data().data(), want[i].data().data(),
                            want[i].data().size() * sizeof(float)),
                0)
          << "thread " << t << " output " << i;
    }
  }
}

TEST(PartitionCacheTest, LruEvictionBoundsEntries) {
  PartitionCache cache(/*capacity=*/2);
  int computes = 0;
  auto get = [&](const std::string& key) {
    ASSERT_TRUE(cache
                    .GetOrCompute(key,
                                  [&]() -> StatusOr<PartitionResult> {
                                    ++computes;
                                    return PartitionResult();
                                  })
                    .ok());
  };
  get("a");
  get("b");
  get("a");  // a hit refreshes "a"
  get("c");  // evicts "b", the LRU entry
  EXPECT_EQ(computes, 3);
  get("a");
  get("c");
  EXPECT_EQ(computes, 3);  // both still cached
  get("b");
  EXPECT_EQ(computes, 4);  // evicted, so computed again
  PartitionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3);
  EXPECT_EQ(stats.misses, 4);
  EXPECT_EQ(stats.entries, 2);
  EXPECT_EQ(stats.capacity, 2);
}

TEST(PartitionCacheTest, TraceMutationAfterPartitionChangesTheKey) {
  // The fingerprint is recomputed per Partition call, so growing the trace
  // through the builder (even though sealed programs normally never
  // change) can never serve the old trace's cached module.
  Program program("main");
  Value* x = program.AddInput(TensorType({16, 8}), "x");
  Value* w = program.AddInput(TensorType({8, 8}), "w");
  Value* h = program.builder().MatMul(x, w);
  program.Return({h});
  Mesh mesh({{"B", 4}});
  uint64_t before = program.TraceFingerprint();
  (void)program.Partition(BpSchedule(), mesh).value();

  // Pathological but possible: the builder is still exposed.
  program.builder().Tanh(h);
  EXPECT_NE(program.TraceFingerprint(), before);
}

TEST(PartitionCacheTest, DelimitersInNamesCannotForgeKeys) {
  // User strings are length-prefixed: moving a '|' between the tactic
  // name and the axis must not produce the same canonical key.
  Mesh mesh({{"B", 4}});
  std::vector<Tactic> a = {ManualPartition{"t|x", {{"k", 0}}, "y"}};
  std::vector<Tactic> b = {ManualPartition{"t", {{"k", 0}}, "x|y"}};
  EXPECT_NE(PartitionCacheKey(1, a, mesh, {}),
            PartitionCacheKey(1, b, mesh, {}));
}

TEST(PartitionCacheTest, RespecializeAfterTraceMutationMisses) {
  Program program("main");
  Value* x = program.AddInput(TensorType({16, 8}), "x");
  Value* w = program.AddInput(TensorType({8, 8}), "w");
  Value* h = program.builder().MatMul(x, w);
  program.Return({h});
  Mesh mesh({{"B", 4}});
  Executable exe = program.Partition(BpSchedule(), mesh).value();

  // Pathological: grow the (normally immutable) trace behind the facade.
  // Respecialize fingerprints the live trace, so the same schedule must
  // miss — and then fail on the now-invalid function — rather than hit
  // the cache and silently serve the pre-mutation module.
  program.builder().Tanh(h);
  StatusOr<Executable> stale = exe.Respecialize(BpSchedule());
  EXPECT_FALSE(stale.ok());
  PartitionCacheStats stats = program.cache_stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 2);
}

TEST(PartitionCacheTest, UseCacheOffBypassesTheCache) {
  Program program = MakeChain();
  Mesh mesh({{"B", 4}});
  PartitionOptions options;
  options.use_cache = false;
  Executable first = program.Partition(BpSchedule(), mesh, options).value();
  Executable second = program.Partition(BpSchedule(), mesh, options).value();
  PartitionCacheStats stats = program.cache_stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 0);
  EXPECT_EQ(stats.entries, 0);
  std::vector<Tensor> inputs = program.RandomInputs(4);
  std::vector<Tensor> want = first.Run(inputs).value();
  std::vector<Tensor> got = second.Run(inputs).value();
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].data(), got[i].data());
  }
}

TEST(PartitionCacheTest, ConcurrentMissStormRunsThePipelineOnce) {
  // Two threads racing to compile the same key: the first becomes the
  // leader and runs `compute`; the second joins the in-flight computation
  // and waits instead of computing again — one run, one entry.
  PartitionCache cache;
  std::atomic<int> compute_runs{0};
  Latch leader_entered(1);
  Latch release_leader(1);
  auto compute = [&]() -> StatusOr<PartitionResult> {
    ++compute_runs;
    leader_entered.CountDown();
    release_leader.Wait();
    return PartitionResult();
  };

  std::shared_ptr<const PartitionResult> leader_result;
  std::thread leader([&] {
    leader_result = cache.GetOrCompute("key", compute).value();
  });
  leader_entered.Wait();  // the leader is inside compute
  std::shared_ptr<const PartitionResult> follower_result;
  std::thread follower([&] {
    follower_result = cache.GetOrCompute("key", compute).value();
  });
  // Give the follower time to reach the join path, then let the leader
  // finish (a late follower would just hit the completed entry — still one
  // pipeline run either way).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release_leader.CountDown();
  leader.join();
  follower.join();

  EXPECT_EQ(compute_runs, 1);
  EXPECT_EQ(leader_result.get(), follower_result.get());
  PartitionCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.entries, 1);
}

TEST(PartitionCacheTest, FollowersOfAFailedLeaderGetItsErrorUncached) {
  PartitionCache cache;
  std::atomic<int> compute_runs{0};
  Latch leader_entered(1);
  Latch release_leader(1);
  std::atomic<bool> first_run{true};
  auto failing = [&]() -> StatusOr<PartitionResult> {
    ++compute_runs;
    // Only the first run drives the latches: a follower that arrives after
    // the (uncached) failure legitimately becomes a second leader.
    if (first_run.exchange(false)) {
      leader_entered.CountDown();
      release_leader.Wait();
    }
    return InternalError("pipeline exploded");
  };
  Status leader_status = Status::Ok();
  Status follower_status = Status::Ok();
  std::thread leader([&] {
    leader_status = cache.GetOrCompute("key", failing).status();
  });
  leader_entered.Wait();
  std::thread follower([&] {
    follower_status = cache.GetOrCompute("key", failing).status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release_leader.CountDown();
  leader.join();
  follower.join();

  EXPECT_EQ(leader_status.code(), StatusCode::kInternal);
  EXPECT_EQ(follower_status.code(), StatusCode::kInternal);
  EXPECT_LE(compute_runs, 2);  // never more than one run per caller
  EXPECT_EQ(cache.stats().entries, 0);  // errors are not cached

  // The storm is over; the next call retries fresh and can succeed.
  auto recovered = [&]() -> StatusOr<PartitionResult> {
    return PartitionResult();
  };
  EXPECT_TRUE(cache.GetOrCompute("key", recovered).ok());
  EXPECT_EQ(cache.stats().entries, 1);
}

TEST(PartitionCacheTest, FacadeMissStormYieldsOnePipelineRunAndOneEntry) {
  // The serving regime: many workers racing Program::Partition with the
  // identical request. Exactly one pipeline run (one miss); everyone else
  // hits — either by joining the in-flight run or by arriving after it.
  Program program = MakeChain();
  Mesh mesh({{"B", 4}, {"M", 2}});
  const int kThreads = 6;
  std::vector<std::thread> threads;
  std::vector<StatusOr<Executable>> results;
  results.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    results.emplace_back(InternalError("not run"));
  }
  Latch start(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.CountDown();
      start.Wait();
      results[t] = program.Partition(BpSchedule(), mesh);
    });
  }
  for (std::thread& thread : threads) thread.join();

  PartitionCacheStats stats = program.cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, kThreads - 1);
  EXPECT_EQ(stats.entries, 1);

  std::vector<Tensor> inputs = program.RandomInputs(5);
  std::vector<Tensor> want = program.Evaluate(inputs).value();
  for (StatusOr<Executable>& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::vector<Tensor> got = result->Run(inputs).value();
    EXPECT_LT(Tensor::MaxAbsDiff(want[0], got[0]), 1e-3f);
  }
}

TEST(PartitionCacheTest, PipelineErrorsAreNotCached) {
  Program program = MakeChain();
  Mesh mesh({{"B", 4}});
  StatusOr<Executable> bad =
      program.Partition(BpSchedule("no_such_input"), mesh);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  PartitionCacheStats stats = program.cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 0);
}

}  // namespace
}  // namespace partir
