// Engine ↔ obs integration: ingestion/publish/query counters, the
// per-engine callback gauges, DumpTrace() lifecycle ordering, the
// pause-ring capacity cap vs the unbounded obs histogram, and torn-read
// tolerance of MemoryStats()/Registry::Snapshot() under live ingestion
// (the CI TSan job runs this file with the engine race gates).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "sprofile/obs/export.h"
#include "sprofile/obs/metrics.h"
#include "sprofile/obs/trace_ring.h"
#include "sprofile/sprofile.h"

namespace sprofile {
namespace engine {
namespace {

uint64_t CounterValue(std::string_view name) {
  const obs::MetricsSnapshot snap = obs::Registry::Global().Snapshot();
  const obs::MetricSample* s = snap.Find(name);
  return s == nullptr ? 0 : s->count;
}

int64_t GaugeValue(std::string_view name) {
  const obs::MetricsSnapshot snap = obs::Registry::Global().Snapshot();
  const obs::MetricSample* s = snap.Find(name);
  return s == nullptr ? 0 : s->value;
}

std::vector<Event> AddEvents(uint32_t capacity, uint32_t n) {
  std::vector<Event> events;
  events.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    events.push_back(Event{i % capacity, +1});
  }
  return events;
}

TEST(EngineObsTest, IngestionAndQueryCountersAdvance) {
  constexpr uint32_t kCapacity = 256;
  constexpr uint32_t kEvents = 4096;
  const uint64_t drained0 = CounterValue("sprofile_engine_events_drained");
  const uint64_t batches0 = CounterValue("sprofile_engine_drain_batches");
  const uint64_t publishes0 = CounterValue("sprofile_engine_publishes");
  const uint64_t drain_ns0 = CounterValue("sprofile_engine_drain_batch_ns");

  ShardedProfiler engine(
      kCapacity, EngineOptions{.shards = 2,
                               .queue_capacity = 1024,
                               .drain_batch = 64,
                               .snapshot_interval = 0});
  const std::vector<Event> events = AddEvents(kCapacity, kEvents);
  engine.ApplyBatch(events);
  engine.Drain();

  // This test's engine is the only writer between the two readings.
  EXPECT_EQ(CounterValue("sprofile_engine_events_drained") - drained0,
            kEvents);
  const uint64_t batches =
      CounterValue("sprofile_engine_drain_batches") - batches0;
  EXPECT_GE(batches, kEvents / 64);  // drain_batch bounds batch size
  EXPECT_LE(batches, uint64_t{kEvents});
  // Two epoch-0 publishes at construction plus at least one per shard
  // at the Drain barrier (interval publishing is off).
  EXPECT_GE(CounterValue("sprofile_engine_publishes") - publishes0, 4u);
  // The drain-latency histogram records exactly once per non-empty batch.
  EXPECT_EQ(CounterValue("sprofile_engine_drain_batch_ns") - drain_ns0,
            batches);

  // Each facade query bumps its own per-kind counter by exactly one; rank
  // and top-k queries read the shards' order statistics, never the
  // merged histogram.
  const uint64_t q_total0 = CounterValue("sprofile_engine_query_total");
  const uint64_t q_point0 = CounterValue("sprofile_engine_query_point");
  const uint64_t q_mode0 = CounterValue("sprofile_engine_query_mode");
  const uint64_t q_hist0 = CounterValue("sprofile_engine_query_histogram");
  const uint64_t q_quant0 = CounterValue("sprofile_engine_query_quantile");
  const uint64_t q_count0 = CounterValue("sprofile_engine_query_count");
  const uint64_t q_topk0 = CounterValue("sprofile_engine_query_topk");

  EXPECT_EQ(engine.total_count(), static_cast<int64_t>(kEvents));
  (void)engine.Frequency(0);
  (void)engine.MergedMode();
  (void)engine.Histogram();
  (void)engine.KthSmallest(1);
  (void)engine.CountAtLeast(1);
  (void)engine.TopK(3);

  EXPECT_EQ(CounterValue("sprofile_engine_query_total") - q_total0, 1u);
  EXPECT_EQ(CounterValue("sprofile_engine_query_point") - q_point0, 1u);
  EXPECT_EQ(CounterValue("sprofile_engine_query_mode") - q_mode0, 1u);
  EXPECT_EQ(CounterValue("sprofile_engine_query_quantile") - q_quant0, 1u);
  EXPECT_EQ(CounterValue("sprofile_engine_query_count") - q_count0, 1u);
  EXPECT_EQ(CounterValue("sprofile_engine_query_topk") - q_topk0, 1u);
  EXPECT_EQ(CounterValue("sprofile_engine_query_histogram") - q_hist0, 1u);
}

// A barrier over shards already published at their targets costs one load
// per shard: it posts no request, so it wakes none of the parked workers,
// and each call still records one sprofile_engine_flush_ns sample.
TEST(EngineObsTest, IdleFlushWakesNoWorker) {
  constexpr uint32_t kCapacity = 256;
  ShardedProfiler engine(
      kCapacity, EngineOptions{.shards = 2,
                               .queue_capacity = 1024,
                               .drain_batch = 64,
                               .snapshot_interval = 0});
  engine.ApplyBatch(AddEvents(kCapacity, 1000));
  engine.Drain();
  // Let both workers run out of work and park.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const uint64_t wakes0 = CounterValue("sprofile_engine_wakes");
  const uint64_t flushes0 = CounterValue("sprofile_engine_flush_ns");
  for (int i = 0; i < 100; ++i) engine.Flush();
  EXPECT_EQ(CounterValue("sprofile_engine_wakes"), wakes0);
  EXPECT_EQ(CounterValue("sprofile_engine_flush_ns") - flushes0, 100u);
  EXPECT_EQ(engine.total_count(), 1000);
}

TEST(EngineObsTest, CallbackGaugesTrackEngineStorageAndUnregister) {
  constexpr uint32_t kCapacity = 4096;
  const int64_t pages_base = GaugeValue("sprofile_engine_pages_live");
  const int64_t bytes_base = GaugeValue("sprofile_engine_page_bytes_live");
  {
    ShardedProfiler engine(
        kCapacity, EngineOptions{.shards = 2,
                                 .queue_capacity = 1024,
                                 .drain_batch = 64});
    engine.ApplyBatch(AddEvents(kCapacity, 2048));
    engine.Drain();

    // The registry view and the engine's own aggregation read the same
    // allocator counters (both race the workers; with the engine
    // drained and no other engine alive they agree exactly).
    const EngineMemoryStats stats = engine.MemoryStats();
    EXPECT_EQ(GaugeValue("sprofile_engine_pages_live") - pages_base,
              static_cast<int64_t>(stats.totals.pages_live()));
    EXPECT_EQ(GaugeValue("sprofile_engine_page_bytes_live") - bytes_base,
              static_cast<int64_t>(stats.totals.page_bytes_live));
    EXPECT_GT(GaugeValue("sprofile_engine_pages_live"), pages_base);
    // Ring gauges exist from registration even while zero.
    const obs::MetricsSnapshot snap = obs::Registry::Global().Snapshot();
    ASSERT_NE(snap.Find("sprofile_engine_ring_enqueue_retries"), nullptr);
    ASSERT_NE(snap.Find("sprofile_engine_ring_full_rejections"), nullptr);
    // Engine destruction unregisters its callbacks here.
  }
  EXPECT_EQ(GaugeValue("sprofile_engine_pages_live"), pages_base);
  EXPECT_EQ(GaugeValue("sprofile_engine_page_bytes_live"), bytes_base);
}

TEST(EngineObsTest, DumpTraceShowsPublishLifecyclePerShard) {
  // One id over the copy bound: the shard publishes by COW page grab, so
  // the writes after each publish fault.
  constexpr uint32_t kCapacity =
      static_cast<uint32_t>(kCopyPublishMaxBytes / ProfileFootprintBytes(1)) +
      1;
  ShardedProfiler engine(
      kCapacity, EngineOptions{.shards = 1,
                               .queue_capacity = 1024,
                               .drain_batch = 64,
                               .snapshot_interval = 64});
  engine.ApplyBatch(AddEvents(kCapacity, 2048));
  engine.Drain();

  const std::vector<obs::TraceRecord> trace = engine.DumpTrace();
  ASSERT_FALSE(trace.empty());

  uint64_t begins = 0;
  uint64_t ends = 0;
  uint64_t faults = 0;
  uint32_t last_end_epoch = 0;
  for (const obs::TraceRecord& r : trace) {
    if (r.event == obs::TraceEvent::kPublishBegin && r.shard == 0) ++begins;
    if (r.event == obs::TraceEvent::kPublishEnd && r.shard == 0) {
      ++ends;
      last_end_epoch = r.arg;
    }
    if (r.event == obs::TraceEvent::kCowFault && r.shard == 0) ++faults;
  }
  // The 1024-slot ring may have evicted early records, but the drained
  // engine's newest publish pair must survive, in begin-before-end order.
  EXPECT_GE(begins, 1u);
  EXPECT_GE(ends, 1u);
  // Quiesced engine: the newest publish carries the final applied epoch.
  EXPECT_EQ(last_end_epoch, static_cast<uint32_t>(engine.TotalApplied()));
  // COW publishing with a publish per batch: post-publish writes must
  // fault.
  EXPECT_GE(faults, 1u);

  // The merged timeline is time-ordered and renderable.
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i - 1].ns, trace[i].ns);
  }
  EXPECT_FALSE(obs::FormatTrace(trace).empty());
}

TEST(EngineObsTest, PauseRingCapsSamplesWhileHistogramKeepsAll) {
  constexpr uint32_t kCapacity = 512;
  const uint64_t hist0 = CounterValue("sprofile_engine_publish_pause_ns");
  ShardedProfiler engine(
      kCapacity, EngineOptions{.shards = 1,
                               .queue_capacity = 1024,
                               .drain_batch = 16,
                               .snapshot_interval = 16,
                               .pause_sample_capacity = 4});
  // 2048 events at drain_batch 16 force far more than 4 publishes.
  engine.ApplyBatch(AddEvents(kCapacity, 2048));
  engine.Drain();

  const std::vector<uint64_t> samples = engine.SnapshotPauseSamplesNs();
  EXPECT_LE(samples.size(), 4u);
  const uint64_t recorded =
      CounterValue("sprofile_engine_publish_pause_ns") - hist0;
  // The histogram saw every recorded pause, not just the ring window
  // (epoch-0 publishes skip pause recording, so recorded < publishes).
  EXPECT_GT(recorded, samples.size());
  EXPECT_GE(recorded, 8u);
}

TEST(EngineObsTest, StatsReadersTolerateLiveIngestion) {
  constexpr uint32_t kCapacity = 1024;
  constexpr uint32_t kPerRound = 512;
  constexpr int kRounds = 64;
  ShardedProfiler engine(
      kCapacity, EngineOptions{.shards = 2,
                               .queue_capacity = 2048,
                               .drain_batch = 64,
                               .snapshot_interval = 1024});
  std::atomic<bool> done{false};
  std::thread producer([&engine, &done] {
    const std::vector<Event> round = AddEvents(kCapacity, kPerRound);
    for (int i = 0; i < kRounds; ++i) engine.ApplyBatch(round);
    done.store(true, std::memory_order_release);
  });

  // Readers race the workers on purpose: allocator counters and metric
  // stripes are sampled relaxed, so views may be stale but each series
  // must stay monotone and in-range. TSan gates the "no data race" half.
  uint64_t prev_drained = 0;
  while (!done.load(std::memory_order_acquire)) {
    const EngineMemoryStats stats = engine.MemoryStats();
    EXPECT_EQ(stats.shards_reporting, 2u);
    EXPECT_LE(stats.totals.pages_freed, stats.totals.pages_allocated);
    const uint64_t drained = CounterValue("sprofile_engine_events_drained");
    EXPECT_GE(drained, prev_drained);
    prev_drained = drained;
    (void)engine.SnapshotPauseSamplesNs();
    (void)engine.DumpTrace();
  }
  producer.join();
  engine.Drain();
  EXPECT_EQ(engine.total_count(),
            static_cast<int64_t>(kPerRound) * kRounds);
}

}  // namespace
}  // namespace engine
}  // namespace sprofile
