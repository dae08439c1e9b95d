// Chaos suite (docs/ROBUSTNESS.md): every registered failpoint fired
// against a live engine, asserting the degradation ladder holds —
// no aborts, no corruption (full oracle parity once injection clears),
// queries that keep answering from stale snapshots after a quarantine,
// and producer latency bounded by the configured deadline.
//
// The whole suite needs the injection sites compiled in
// (-DSPROFILE_FAILPOINTS=ON, the CI gcc-failpoints leg). In the default
// build every site folds to `false`, so the suite reduces to one SKIP —
// registered either way to keep the test list identical across configs.

#include <gtest/gtest.h>

#if !defined(SPROFILE_FAILPOINTS)

namespace {
TEST(EngineChaosTest, RequiresFailpointBuild) {
  GTEST_SKIP() << "chaos suite needs -DSPROFILE_FAILPOINTS=ON; the default "
                  "build compiles every injection site out";
}
}  // namespace

#else  // SPROFILE_FAILPOINTS

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "sprofile/engine/checked_engine.h"
#include "sprofile/engine/sharded_profiler.h"
#include "sprofile/engine/snapshot_io.h"
#include "sprofile/obs/metrics.h"
#include "util/failpoint.h"

namespace sprofile {
namespace engine {
namespace {

constexpr uint32_t kCapacity = 96;
// The most ids a shard can hold and still publish by copy.
constexpr uint32_t kCopyIds =
    static_cast<uint32_t>(kCopyPublishMaxBytes / ProfileFootprintBytes(1));

failpoint::Registry& Fail() { return failpoint::Registry::Global(); }

EngineOptions ChaosOptions() {
  return EngineOptions{.shards = 3,
                       .queue_capacity = 256,
                       .drain_batch = 32,
                       .snapshot_interval = 0};
}

std::vector<int64_t> FrequenciesOf(const ShardedProfiler& engine) {
  std::vector<int64_t> out;
  out.reserve(engine.capacity());
  for (uint32_t id = 0; id < engine.capacity(); ++id) {
    out.push_back(engine.Frequency(id));
  }
  return out;
}

/// Cumulative process-global counter value; 0 if never registered.
uint64_t CounterValue(const char* name) {
  const auto snap = obs::Registry::Global().Snapshot();
  const obs::MetricSample* s = snap.Find(name);
  return s == nullptr ? 0 : s->count;
}

/// `threads` producers push `per_thread` +1 events each through
/// ApplyBatch in spans of 64, ids striding every shard. Returns the
/// oracle: expected per-id frequencies ON TOP of `expected` (so callers
/// can layer rounds).
void RunProducers(ShardedProfiler& engine, int threads, int per_thread,
                  std::vector<int64_t>* expected) {
  const uint32_t capacity = engine.capacity();
  for (int t = 0; t < threads; ++t) {
    for (int i = 0; i < per_thread; ++i) {
      (*expected)[static_cast<uint32_t>(i * 7 + t) % capacity] += 1;
    }
  }
  std::vector<std::thread> producers;
  producers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    producers.emplace_back([&engine, t, per_thread, capacity] {
      std::vector<Event> span;
      span.reserve(64);
      for (int i = 0; i < per_thread; ++i) {
        span.push_back(
            Event{static_cast<uint32_t>(i * 7 + t) % capacity, +1});
        if (span.size() == 64 || i + 1 == per_thread) {
          engine.ApplyBatch(span);
          span.clear();
        }
      }
    });
  }
  for (std::thread& p : producers) p.join();
}

class EngineChaosTest : public testing::Test {
 protected:
  void TearDown() override { Fail().DeactivateAll(); }
};

// The recoverable rungs all at once, under live multi-producer load:
// arena refusals fall back to heap pages, injected ring-full rejections
// are absorbed by kBlock's backoff — nothing lost, nothing bent. Oracle
// parity is checked after injection clears (the acceptance bar).
TEST_F(EngineChaosTest, RecoverableFaultsUnderLiveIngestionKeepParity) {
  ShardedProfiler engine(kCapacity, ChaosOptions());
  std::vector<int64_t> expected(kCapacity, 0);

  Fail().Activate("arena_alloc_fail", failpoint::Trigger::EveryNth(5));
  Fail().Activate("arena_mmap_fail", failpoint::Trigger::EveryNth(2));
  Fail().Activate("cow_page_alloc_fail", failpoint::Trigger::EveryNth(7));
  Fail().Activate("engine_ring_push_full",
                  failpoint::Trigger::Probability(0.2, /*seed=*/31));

  RunProducers(engine, /*threads=*/4, /*per_thread=*/3000, &expected);

  Fail().DeactivateAll();
  engine.Drain();

  EXPECT_TRUE(engine.Healthy());
  EXPECT_EQ(engine.ShedEvents(), 0u) << "kBlock must never drop";
  EXPECT_EQ(FrequenciesOf(engine), expected);

  // The injection actually happened (the allocator-independent points at
  // least; the arena ones are silent in forced-heap/ASan builds).
  EXPECT_GT(Fail().FireCount("engine_ring_push_full"), 0u);
  EXPECT_GT(Fail().FireCount("cow_page_alloc_fail"), 0u);
}

// kShed: a persistently full ring drops instead of blocking, the checked
// facade reports Unavailable, and the drop is exactly accounted. After
// disarming, ingestion and parity recover.
TEST_F(EngineChaosTest, ShedPolicyDropsAndReportsUnavailable) {
  EngineOptions options = ChaosOptions();
  options.overload_policy = OverloadPolicy::kShed;
  CheckedShardedProfiler checked(ShardedProfiler(kCapacity, options));

  std::vector<Event> batch;
  for (uint32_t i = 0; i < 100; ++i) batch.push_back(Event{i % kCapacity, +1});

  Fail().Activate("engine_ring_push_full", failpoint::Trigger::Always());
  const Status shed = checked.TryApplyBatch(batch);
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable) << shed.ToString();
  EXPECT_EQ(checked.ShedEvents(), batch.size());

  Fail().DeactivateAll();
  ASSERT_TRUE(checked.TryApplyBatch(batch).ok());
  checked.Drain();
  // Only the second batch landed.
  EXPECT_EQ(checked.total_count(), static_cast<int64_t>(batch.size()));
  EXPECT_TRUE(checked.Healthy());
}

// kDeadline: a producer facing a ring that never empties gives up within
// its budget — the "no producer blocks past the deadline" acceptance
// criterion, with the wait visible in sprofile_engine_ring_push_wait_ns.
TEST_F(EngineChaosTest, DeadlinePolicyBoundsProducerLatency) {
  EngineOptions options = ChaosOptions();
  options.overload_policy = OverloadPolicy::kDeadline;
  options.push_deadline_us = 2000;
  ShardedProfiler engine(kCapacity, options);

  const uint64_t waits_before =
      CounterValue("sprofile_engine_ring_push_wait_ns");

  Fail().Activate("engine_ring_push_full", failpoint::Trigger::Always());
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(engine.Add(0));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  Fail().DeactivateAll();

  const auto elapsed_us =
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count();
  EXPECT_GE(elapsed_us, 2000) << "the budget should be spent before dropping";
  // Generous ceiling: deadline + scheduler noise, nowhere near unbounded
  // blocking (kBlock would hang forever here).
  EXPECT_LT(elapsed_us, 2'000'000);
  EXPECT_EQ(engine.ShedEvents(), 1u);
  EXPECT_GT(CounterValue("sprofile_engine_ring_push_wait_ns"), waits_before);

  // Off the failpoint, the same engine ingests normally.
  EXPECT_TRUE(engine.Add(0));
  engine.Drain();
  EXPECT_EQ(engine.Frequency(0), 1);
}

// A worker dying mid-drain is quarantined, not process-fatal: its shard
// keeps answering from the last published snapshot (counted as stale
// serves), barriers return, healthy shards keep ingesting, and pushes
// against the dead shard shed.
TEST_F(EngineChaosTest, DrainFailureQuarantinesShardAndServesStale) {
  ShardedProfiler engine(kCapacity, ChaosOptions());
  std::vector<int64_t> expected(kCapacity, 0);
  RunProducers(engine, /*threads=*/2, /*per_thread=*/500, &expected);
  engine.Drain();
  ASSERT_TRUE(engine.Healthy());
  ASSERT_EQ(FrequenciesOf(engine), expected);

  // One injected drain failure; id 0 routes to shard 0, whose worker is
  // the only one with queued work, so the Once trigger lands there.
  Fail().Activate("engine_worker_drain_fail", failpoint::Trigger::Once());
  engine.Add(0);
  engine.Flush();  // returns via the quarantine escape, not the epoch

  EXPECT_FALSE(engine.Healthy());
  EXPECT_EQ(engine.QuarantinedShards(), 1u);
  const ShardHealth health = engine.HealthOf(0);
  EXPECT_TRUE(health.quarantined);
  EXPECT_NE(health.message.find("engine_worker_drain_fail"),
            std::string::npos)
      << health.message;

  // Queries still answer — the dead shard from its frozen snapshot (the
  // poisoned event died with the drain, so the oracle is unchanged) —
  // and each such read is tallied as a stale serve.
  const uint64_t stale_before =
      CounterValue("sprofile_engine_stale_query_serves");
  EXPECT_EQ(FrequenciesOf(engine), expected);
  EXPECT_GT(CounterValue("sprofile_engine_stale_query_serves"), stale_before);

  // Pushes against the dead shard shed under every policy; healthy
  // shards keep full service. (ids: 0 -> shard 0 (dead), 1 -> shard 1.)
  const uint64_t shed_before = engine.ShedEvents();
  EXPECT_FALSE(engine.Add(0));
  EXPECT_EQ(engine.ShedEvents(), shed_before + 1);
  EXPECT_TRUE(engine.Add(1));
  engine.Flush();
  expected[1] += 1;
  EXPECT_EQ(FrequenciesOf(engine), expected);
}

// The ladder's last rung before quarantine: when even the heap fallback
// throws bad_alloc, exactly the worker that hit it quarantines — the
// process survives and the other shards stay healthy. The shards are
// over the copy bound, so they publish by COW page grab and the failing
// page is a write fault inside ApplyBatch, mid-batch.
TEST_F(EngineChaosTest, UnrecoverableAllocFailureQuarantinesOneShard) {
  const EngineOptions options = ChaosOptions();
  const uint32_t capacity = options.shards * (kCopyIds + 1);
  ShardedProfiler engine(capacity, options);
  std::vector<int64_t> expected(capacity, 0);
  RunProducers(engine, /*threads=*/2, /*per_thread=*/500, &expected);
  engine.Drain();
  ASSERT_TRUE(engine.Healthy());

  // Force every block allocation onto the heap rung, then poison the
  // heap once: the first worker that needs a page dies of bad_alloc.
  // Every shard's published snapshot shares its pages, so that page is
  // the copy its first write faults for.
  Fail().Activate("cow_page_alloc_fail", failpoint::Trigger::Always());
  Fail().Activate("heap_page_alloc_fail", failpoint::Trigger::Once());
  RunProducers(engine, /*threads=*/2, /*per_thread=*/500, &expected);
  engine.Flush();
  Fail().DeactivateAll();

  ASSERT_EQ(engine.QuarantinedShards(), 1u);
  // The failure hit while applying events, not inside a publish: the
  // quarantined shard's last publish record before its quarantine is an
  // end.
  uint32_t dead = 0;
  while (!engine.HealthOf(dead).quarantined) ++dead;
  bool publish_open = false;
  bool quarantined = false;
  for (const obs::TraceRecord& r : engine.DumpTrace()) {
    if (r.shard != dead || quarantined) continue;
    if (r.event == obs::TraceEvent::kPublishBegin) publish_open = true;
    if (r.event == obs::TraceEvent::kPublishEnd) publish_open = false;
    if (r.event == obs::TraceEvent::kQuarantine) quarantined = true;
  }
  EXPECT_TRUE(quarantined);
  EXPECT_FALSE(publish_open) << "the shard quarantined mid-publish";

  // The engine still serves every query without aborting; exact parity
  // is not owed (the dead shard lost its in-flight events) but no id may
  // exceed its oracle count and healthy shards must not be behind it.
  const std::vector<int64_t> served = FrequenciesOf(engine);
  int64_t total = 0;
  for (uint32_t id = 0; id < capacity; ++id) {
    EXPECT_LE(served[id], expected[id]) << "id " << id;
    total += served[id];
  }
  EXPECT_EQ(total, engine.total_count());
}

// A shard under the copy bound allocates its whole next snapshot when it
// publishes. If that allocation throws, it throws before the swap: the
// shard quarantines and keeps serving the snapshot it had, while its
// siblings keep ingesting.
TEST_F(EngineChaosTest, CopyPublishAllocFailureServesThePreviousSnapshot) {
  EngineOptions options = ChaosOptions();
  options.page_allocator = PageAllocatorKind::kHeap;
  ShardedProfiler engine(kCapacity, options);
  std::vector<int64_t> expected(kCapacity, 0);
  RunProducers(engine, /*threads=*/2, /*per_thread=*/500, &expected);
  // Replaces every epoch-0 page grab, so no live page is shared and the
  // writes below allocate nothing: the next allocation is a publish's.
  engine.Drain();
  ASSERT_TRUE(engine.Healthy());
  ASSERT_EQ(FrequenciesOf(engine), expected);
  const uint64_t epoch = engine.HealthOf(0).published_epoch;

  // Events for shard 0 only, so its publish is the one that allocates.
  std::vector<Event> burst;
  for (uint32_t id = 0; id < kCapacity; id += engine.num_shards()) {
    burst.push_back(Event::Add(id));
  }
  Fail().Activate("heap_page_alloc_fail", failpoint::Trigger::Once());
  engine.ApplyBatch(burst);
  engine.Flush();
  Fail().DeactivateAll();

  const ShardHealth health = engine.HealthOf(0);
  ASSERT_TRUE(health.quarantined);
  EXPECT_EQ(engine.QuarantinedShards(), 1u);
  EXPECT_FALSE(health.message.empty());
  EXPECT_EQ(health.published_epoch, epoch);
  // The previous snapshot still answers, unchanged.
  EXPECT_EQ(FrequenciesOf(engine), expected);

  // The failure hit inside the publish: shard 0's last publish record
  // before its quarantine is a begin with no end.
  bool publish_open = false;
  bool quarantined = false;
  for (const obs::TraceRecord& r : engine.DumpTrace()) {
    if (r.shard != 0 || quarantined) continue;
    if (r.event == obs::TraceEvent::kPublishBegin) publish_open = true;
    if (r.event == obs::TraceEvent::kPublishEnd) publish_open = false;
    if (r.event == obs::TraceEvent::kQuarantine) quarantined = true;
  }
  EXPECT_TRUE(quarantined);
  EXPECT_TRUE(publish_open) << "the shard did not quarantine mid-publish";

  // The siblings are untouched and keep read-your-writes.
  EXPECT_TRUE(engine.Add(1));
  EXPECT_TRUE(engine.Add(2));
  engine.Flush();
  expected[1] += 1;
  expected[2] += 1;
  EXPECT_EQ(FrequenciesOf(engine), expected);
}

// Snapshot IO failpoints degrade to clean Status: a poisoned save leaves
// the previous generation loadable; a poisoned load reports IOError and
// a retry succeeds with full parity.
TEST_F(EngineChaosTest, SnapshotIoFaultsDegradeToCleanStatus) {
  const std::string dir = testing::TempDir() + "/sprofile_chaos_snapshot";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  ShardedProfiler engine(kCapacity, ChaosOptions());
  std::vector<int64_t> expected(kCapacity, 0);
  RunProducers(engine, /*threads=*/2, /*per_thread=*/400, &expected);
  engine.Drain();
  ASSERT_TRUE(SaveAll(engine, dir).ok());

  // More state, then a save that dies on its first write: the commit
  // point is never reached, so the first generation must still load.
  RunProducers(engine, /*threads=*/1, /*per_thread=*/100, &expected);
  engine.Drain();
  Fail().Activate("snapshot_save_write_fail", failpoint::Trigger::Once());
  const Status crashed = SaveAll(engine, dir);
  EXPECT_EQ(crashed.code(), StatusCode::kIOError) << crashed.ToString();

  Fail().Activate("snapshot_load_read_fail", failpoint::Trigger::Once());
  EXPECT_EQ(LoadAll(dir, ChaosOptions()).status().code(),
            StatusCode::kIOError);

  // Injection cleared: the retry loads the committed generation intact
  // and a fresh save commits the latest state.
  auto reloaded = LoadAll(dir, ChaosOptions());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ASSERT_TRUE(SaveAll(engine, dir).ok());
  auto latest = LoadAll(dir, ChaosOptions());
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(FrequenciesOf(*latest), expected);

  std::filesystem::remove_all(dir, ec);
}

// Bookkeeping for the catalog: the fires counter aggregates across every
// point, and the registry lists each site this suite exercised — the
// same names docs/ROBUSTNESS.md catalogs (splint's failpoint-docs rule).
TEST_F(EngineChaosTest, EveryExercisedFailpointIsRegisteredAndCounted) {
  const std::vector<std::string> names = Fail().Names();
  for (const char* required :
       {"engine_ring_push_full", "cow_page_alloc_fail",
        "engine_worker_drain_fail", "heap_page_alloc_fail",
        "snapshot_save_write_fail", "snapshot_load_read_fail"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << required << " never registered — was its site removed?";
    EXPECT_GT(Fail().FireCount(required), 0u) << required;
  }
  EXPECT_GT(CounterValue("sprofile_failpoint_fires"), 0u);
}

}  // namespace
}  // namespace engine
}  // namespace sprofile

#endif  // SPROFILE_FAILPOINTS
