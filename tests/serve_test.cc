// Concurrency stress tests for the serving batcher: mixed-shape traffic
// from many producer threads, bit-identical outputs vs unbatched sequential
// Run, per-request error isolation, deadline expiry, live schedule swaps,
// and clean shutdown with in-flight requests. This suite runs under the
// ThreadSanitizer CI job — the rendezvous runtime, the single-flight
// partition cache and the batcher's queues are all exercised concurrently.
#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <thread>

#include "src/models/serving.h"
#include "src/serve/batcher.h"
#include "src/support/mpmc_queue.h"

namespace partir {
namespace {

using Micros = std::chrono::microseconds;

// ---- The mixed-shape serving family ----
//
// Three shape classes over one schedule/mesh (same schedule keys resolve in
// each class): a 4-row and an 8-row matmul chain plus a tanh MLP. An
// unknown key is a typed error that must fail only its own requests.

Func* BuildChainRows(Module& module, int64_t rows, int64_t batch) {
  Func* func = module.AddFunc("chain");
  Block& body = func->body();
  Value* x = body.AddArg(TensorType({batch * rows, 8}), "x");
  Value* w1 = body.AddArg(TensorType({8, 16}), "w1");
  Value* w2 = body.AddArg(TensorType({16, 8}), "w2");
  OpBuilder builder(&body);
  builder.Return({builder.MatMul(builder.MatMul(x, w1), w2)});
  return func;
}

Func* BuildDeep(Module& module, int64_t batch) {
  Func* func = module.AddFunc("deep");
  Block& body = func->body();
  Value* x = body.AddArg(TensorType({batch * 4, 8}), "x");
  Value* w1 = body.AddArg(TensorType({8, 16}), "w1");
  Value* w2 = body.AddArg(TensorType({16, 8}), "w2");
  OpBuilder builder(&body);
  Value* hidden = builder.Tanh(builder.MatMul(x, w1));
  builder.Return({builder.MatMul(hidden, w2)});
  return func;
}

StatusOr<Program> MixedFactory(const std::string& key, int64_t batch) {
  if (key == "rows4") {
    return Program::Capture(
        [batch](Module& m) { return BuildChainRows(m, 4, batch); });
  }
  if (key == "rows8") {
    return Program::Capture(
        [batch](Module& m) { return BuildChainRows(m, 8, batch); });
  }
  if (key == "deep") {
    return Program::Capture(
        [batch](Module& m) { return BuildDeep(m, batch); });
  }
  return NotFoundError("unknown shape class '", key, "'");
}

std::vector<Tactic> MixedSchedule() {
  return {ManualPartition{"BP", {{"x", 0}}, "B"},
          ManualPartition{"MP", {{"w1", 1}}, "M"}};
}

Mesh MixedMesh() { return Mesh({{"B", 4}, {"M", 2}}); }

/** Unit-request inputs for a class: shared weights (seed 0), per-seed x. */
std::vector<Tensor> MixedRequest(const std::string& key, uint64_t seed) {
  int64_t rows = key == "rows8" ? 8 : 4;
  Tensor x = Tensor::Random({rows, 8}, seed);
  Tensor w1 = Tensor::Random({8, 16}, 1);
  Tensor w2 = Tensor::Random({16, 8}, 2);
  return {x, w1, w2};
}

/** Unbatched reference walk for one request of a class. */
std::vector<Tensor> MixedReference(const std::string& key,
                                   const std::vector<Tensor>& inputs) {
  Program unit = MixedFactory(key, 1).value();
  Executable exe = unit.Partition(MixedSchedule(), MixedMesh()).value();
  RunOptions walker;
  walker.backend = ExecBackend::kInterpret;
  return exe.Run(inputs, walker).value();
}

bool BitIdentical(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].dims() != b[i].dims() || a[i].data() != b[i].data()) return false;
  }
  return true;
}

// ---- Stress: N producers x mixed shape classes x random delays ----

TEST(ServeStressTest, ConcurrentMixedTrafficMatchesUnbatchedSequentialRun) {
  const std::vector<std::string> kClasses = {"rows4", "rows8", "deep"};
  // Per-class references, computed once per seed pool up front.
  const int kProducers = 6;
  const int kPerProducer = 12;
  std::map<std::string, std::vector<std::vector<Tensor>>> want;
  std::map<std::string, std::vector<std::vector<Tensor>>> requests;
  for (const std::string& key : kClasses) {
    for (int s = 0; s < kProducers * kPerProducer; ++s) {
      requests[key].push_back(MixedRequest(key, 100 + s));
      want[key].push_back(MixedReference(key, requests[key].back()));
    }
  }

  BatchOptions options;
  options.max_batch = 5;
  options.max_delay_us = 500;
  options.max_inflight = 3;
  Batcher batcher(MixedFactory, MixedSchedule(), MixedMesh(), options);

  struct Issued {
    std::string key;
    int seed_index;
    ServeFuture future;
  };
  std::vector<std::vector<Issued>> issued(kProducers);
  std::vector<std::thread> producers;
  Latch start(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::mt19937 rng(p);
      std::uniform_int_distribution<int> pick_class(0, 2);
      std::uniform_int_distribution<int> delay_us(0, 300);
      start.CountDown();
      start.Wait();  // all producers fire together
      for (int r = 0; r < kPerProducer; ++r) {
        const std::string& key = kClasses[pick_class(rng)];
        int seed_index = p * kPerProducer + r;
        issued[p].push_back(Issued{
            key, seed_index,
            batcher.Submit(key, requests[key][seed_index])});
        std::this_thread::sleep_for(Micros(delay_us(rng)));
      }
    });
  }
  for (std::thread& producer : producers) producer.join();

  // Every future resolves, every output is bit-identical to the unbatched
  // sequential reference.
  int resolved = 0;
  for (std::vector<Issued>& from_producer : issued) {
    for (Issued& request : from_producer) {
      ServeResponse response = request.future.get();
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_TRUE(BitIdentical(response.value(),
                               want[request.key][request.seed_index]));
      ++resolved;
    }
  }
  EXPECT_EQ(resolved, kProducers * kPerProducer);

  batcher.Shutdown();
  BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.submitted, kProducers * kPerProducer);
  EXPECT_EQ(stats.completed, kProducers * kPerProducer);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_EQ(stats.expired, 0);
  EXPECT_LE(stats.max_batch_observed, options.max_batch);
  // Coalescing happened: fewer batches than requests.
  EXPECT_LT(stats.batches, stats.batched_requests);
  // Each (class, batch size) compiled at most once per schedule version.
  EXPECT_LE(stats.compiles,
            static_cast<int64_t>(kClasses.size()) * options.max_batch);
}

TEST(ServeStressTest, ShutdownWithInflightRequestsDrainsCleanly) {
  BatchOptions options;
  options.max_batch = 4;
  options.max_delay_us = 200000;  // far longer than the test: drain flushes
  options.max_inflight = 2;
  Batcher batcher(MixedFactory, MixedSchedule(), MixedMesh(), options);

  std::vector<ServeFuture> futures;
  for (int r = 0; r < 30; ++r) {
    futures.push_back(batcher.Submit("rows4", MixedRequest("rows4", 7 + r)));
  }
  // Shut down immediately: queued and pending requests must still execute
  // (drain), not hang on max_delay and not resolve as errors.
  batcher.Shutdown();
  for (ServeFuture& future : futures) {
    ServeResponse response = future.get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
  }
  BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.completed, 30);
  EXPECT_EQ(stats.submitted, 30);
}

TEST(ServeStressTest, SubmitAfterShutdownResolvesUnavailable) {
  Batcher batcher(MixedFactory, MixedSchedule(), MixedMesh(), {});
  batcher.Shutdown();
  ServeResponse response =
      batcher.Submit("rows4", MixedRequest("rows4", 1)).get();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(batcher.stats().rejected, 1);
}

TEST(ServeStressTest, UnknownShapeClassFailsOnlyItsOwnRequests) {
  BatchOptions options;
  options.max_delay_us = 200;
  Batcher batcher(MixedFactory, MixedSchedule(), MixedMesh(), options);
  std::vector<Tensor> good_inputs = MixedRequest("rows4", 11);
  ServeFuture good = batcher.Submit("rows4", good_inputs);
  ServeFuture bad = batcher.Submit("bogus", MixedRequest("rows4", 12));
  ServeResponse bad_response = bad.get();
  ASSERT_FALSE(bad_response.ok());
  EXPECT_EQ(bad_response.status().code(), StatusCode::kNotFound);
  ServeResponse good_response = good.get();
  ASSERT_TRUE(good_response.ok()) << good_response.status().ToString();
  EXPECT_TRUE(BitIdentical(good_response.value(),
                           MixedReference("rows4", good_inputs)));
}

TEST(ServeStressTest, MalformedRequestDoesNotPoisonItsBatch) {
  BatchOptions options;
  options.max_batch = 3;
  options.max_delay_us = 20000;  // hold the batch open for all three
  Batcher batcher(MixedFactory, MixedSchedule(), MixedMesh(), options);

  std::vector<Tensor> first = MixedRequest("rows4", 21);
  std::vector<Tensor> third = MixedRequest("rows4", 23);
  std::vector<Tensor> malformed = MixedRequest("rows4", 22);
  malformed[0] = Tensor({3, 7}, 1.0f);  // wrong x shape

  ServeFuture f1 = batcher.Submit("rows4", first);
  ServeFuture f2 = batcher.Submit("rows4", malformed);
  ServeFuture f3 = batcher.Submit("rows4", third);

  ServeResponse r2 = f2.get();
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r2.status().message().find("x"), std::string::npos);

  ServeResponse r1 = f1.get();
  ServeResponse r3 = f3.get();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r3.ok()) << r3.status().ToString();
  EXPECT_TRUE(BitIdentical(r1.value(), MixedReference("rows4", first)));
  EXPECT_TRUE(BitIdentical(r3.value(), MixedReference("rows4", third)));
  batcher.Shutdown();
  EXPECT_EQ(batcher.stats().failed, 1);
  EXPECT_EQ(batcher.stats().completed, 2);
}

TEST(ServeStressTest, RespecializeSwapsScheduleUnderLiveTraffic) {
  // BP over B and BP over M keep every row's arithmetic identical (no
  // contraction is ever split), so responses stay bit-identical to one
  // reference across the swap regardless of which schedule served them.
  std::vector<Tactic> over_b = {ManualPartition{"BP", {{"x", 0}}, "B"}};
  std::vector<Tactic> over_m = {ManualPartition{"BP", {{"x", 0}}, "M"}};
  BatchOptions options;
  options.max_batch = 4;
  options.max_delay_us = 300;
  options.max_inflight = 2;
  Batcher batcher(MixedFactory, over_b, MixedMesh(), options);

  std::vector<std::vector<Tensor>> inputs;
  std::vector<std::vector<Tensor>> want;
  for (int r = 0; r < 24; ++r) {
    inputs.push_back(MixedRequest("rows4", 400 + r));
    Program unit = MixedFactory("rows4", 1).value();
    Executable exe = unit.Partition(over_b, MixedMesh()).value();
    RunOptions walker;
    walker.backend = ExecBackend::kInterpret;
    want.push_back(exe.Run(inputs.back(), walker).value());
  }

  // Request 0 runs alone, so over_b compiles the batch-of-one executable
  // before any swap.
  std::vector<ServeFuture> futures;
  futures.push_back(batcher.Submit("rows4", inputs[0]));
  futures[0].wait();
  for (int r = 1; r < 24; ++r) {
    if (r == 16) {
      // Flip back on a drained batcher and serve request 16 alone: it forms
      // a batch of one, which over_b already compiled, so the recompile is
      // a hit in the shared partition cache whatever batches formed live.
      for (ServeFuture& future : futures) future.wait();
      batcher.Respecialize(over_b);
      futures.push_back(batcher.Submit("rows4", inputs[r]));
      futures.back().wait();
      continue;
    }
    futures.push_back(batcher.Submit("rows4", inputs[r]));
    if (r == 8) batcher.Respecialize(over_m);
    std::this_thread::sleep_for(Micros(150));
  }
  for (int r = 0; r < 24; ++r) {
    ServeResponse response = futures[r].get();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_TRUE(BitIdentical(response.value(), want[r]));
  }
  batcher.Shutdown();
  BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.completed, 24);
  EXPECT_EQ(stats.fallbacks, 0);
  // The flip-back respecialized through the shared partition cache.
  EXPECT_GT(stats.cache.hits, 0);
}

TEST(ServeStressTest, BackpressureUnderTinyQueueStillCompletesEverything) {
  BatchOptions options;
  options.max_batch = 4;
  options.max_delay_us = 100;
  options.queue_capacity = 2;  // Submit blocks when full
  options.max_inflight = 2;
  Batcher batcher(MixedFactory, MixedSchedule(), MixedMesh(), options);
  std::vector<std::thread> producers;
  std::vector<std::vector<ServeFuture>> per_producer(4);
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&batcher, &per_producer, p] {
      for (int r = 0; r < 8; ++r) {
        per_producer[p].push_back(
            batcher.Submit("rows4", MixedRequest("rows4", 600 + p * 8 + r)));
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  for (auto& from_producer : per_producer) {
    for (ServeFuture& future : from_producer) {
      EXPECT_TRUE(future.get().ok());
    }
  }
  batcher.Shutdown();
  EXPECT_EQ(batcher.stats().completed, 32);
}

// ---- The support primitives underneath ----

TEST(MpmcQueueTest, CloseDrainsThenStopsConsumers) {
  BoundedMpmcQueue<int> queue(4);
  int item = 1;
  EXPECT_TRUE(queue.TryPush(item));
  item = 2;
  EXPECT_TRUE(queue.Push(item));
  queue.Close();
  item = 3;
  EXPECT_FALSE(queue.Push(item));
  EXPECT_EQ(item, 3);  // refused items stay with the caller
  EXPECT_EQ(queue.Pop().value(), 1);
  EXPECT_EQ(queue.PopFor(Micros(1)).value(), 2);
  EXPECT_FALSE(queue.Pop().has_value());  // closed and drained
}

TEST(MpmcQueueTest, ConcurrentProducersAndConsumersSeeEveryItem) {
  BoundedMpmcQueue<int> queue(8);
  const int kProducers = 4, kConsumers = 3, kPerProducer = 200;
  std::atomic<int64_t> sum{0};
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        int item = p * kPerProducer + i;
        ASSERT_TRUE(queue.Push(item));
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (std::optional<int> item = queue.Pop()) {
        sum += *item;
        ++consumed;
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  queue.Close();
  for (int c = 0; c < kConsumers; ++c) threads[kProducers + c].join();
  const int total = kProducers * kPerProducer;
  EXPECT_EQ(consumed, total);
  EXPECT_EQ(sum, static_cast<int64_t>(total) * (total - 1) / 2);
}

TEST(LatchTest, ReleasesAllWaitersAtZero) {
  Latch latch(3);
  std::atomic<int> released{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 4; ++i) {
    waiters.emplace_back([&] {
      latch.Wait();
      ++released;
    });
  }
  EXPECT_FALSE(latch.Done());
  latch.CountDown();
  latch.CountDown();
  EXPECT_EQ(released, 0);
  latch.CountDown();
  for (std::thread& waiter : waiters) waiter.join();
  EXPECT_EQ(released, 4);
  EXPECT_TRUE(latch.Done());
}

}  // namespace
}  // namespace partir
