// The engine's correctness gates:
//
//   - merged queries against the NaiveProfiler oracle over the GLOBAL id
//     space (single- and multi-shard, divisible and ragged capacities),
//   - the concurrent parity test: K producer threads hammering the engine,
//     final state diffed against the oracle (±1 events commute, so any
//     interleaving must land on the same frequencies) — the CI TSan job
//     runs this file as the data-race gate,
//   - Flush() read-your-writes (also checked from concurrent producer and
//     reader histories), per-shard epoch monotonicity (also under
//     concurrent ingestion, and for lock-free point reads), the
//     Flush/Drain barrier split, hazard-slot reclamation,
//   - SaveAll/LoadAll round-trip and manifest validation,
//   - the checked Try* twins' error codes,
//   - facade construction (MakeShardedProfiler) validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/page_arena.h"
#include "sprofile/sprofile.h"
#include "stream/log_stream.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace sprofile {
namespace engine {
namespace {

using adapters::Naive;

static_assert(FullProfiler<ShardedProfiler>);
static_assert(ShardBackend<adapters::SProfile>);
static_assert(ShardBackend<Naive>);

EngineOptions SmallOptions(uint32_t shards) {
  return EngineOptions{.shards = shards,
                       .queue_capacity = 1024,
                       .drain_batch = 64,
                       .snapshot_interval = 0};
}

std::vector<Event> RandomEvents(uint32_t capacity, uint32_t n, uint64_t seed) {
  stream::LogStreamGenerator gen(
      stream::MakePaperStreamConfig(2, capacity, seed));
  std::vector<Event> events;
  events.reserve(n);
  gen.GenerateEvents(n, &events);
  return events;
}

/// Applies `events` (global ids) to a fresh oracle of size `capacity`.
baselines::NaiveProfiler OracleOf(uint32_t capacity,
                                  const std::vector<Event>& events) {
  baselines::NaiveProfiler oracle(capacity);
  for (const Event& e : events) {
    for (int32_t d = e.delta; d > 0; --d) oracle.Add(e.id);
    for (int32_t d = e.delta; d < 0; ++d) oracle.Remove(e.id);
  }
  return oracle;
}

void ExpectMatchesOracle(const ShardedProfiler& engine,
                         const baselines::NaiveProfiler& oracle) {
  ASSERT_EQ(engine.capacity(), oracle.capacity());
  EXPECT_EQ(engine.total_count(), oracle.total_count());
  const uint32_t m = oracle.capacity();
  std::vector<int64_t> sorted;
  sorted.reserve(m);
  for (uint32_t id = 0; id < m; ++id) {
    ASSERT_EQ(engine.Frequency(id), oracle.Frequency(id)) << "id " << id;
    sorted.push_back(oracle.Frequency(id));
  }
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(engine.Mode(), oracle.ModeFrequency());
  EXPECT_EQ(engine.Histogram(), oracle.Histogram());
  EXPECT_EQ(engine.Median(), oracle.MedianFrequency());
  for (uint64_t k = 1; k <= m; ++k) {
    ASSERT_EQ(engine.KthSmallest(k), sorted[k - 1]) << "k " << k;
    ASSERT_EQ(engine.KthLargest(k), sorted[m - k]) << "k " << k;
  }
  for (double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    EXPECT_EQ(engine.Quantile(q), sorted[static_cast<size_t>(q * (m - 1))])
        << "q " << q;
  }
  for (int64_t f : {int64_t{-1}, int64_t{0}, int64_t{1}, int64_t{3}}) {
    EXPECT_EQ(engine.CountAtLeast(f), oracle.CountAtLeast(f)) << "f " << f;
    EXPECT_EQ(engine.CountEqual(f), oracle.CountEqual(f)) << "f " << f;
  }
  for (uint32_t k : {0u, 1u, 25u, m - 1, m, m + 7}) {
    EXPECT_EQ(engine.TopK(k), oracle.TopKFrequencies(k)) << "k " << k;
  }
}

TEST(ShardRoutingTest, StridePartitionCoversEveryIdOnce) {
  for (uint32_t capacity : {0u, 1u, 2u, 7u, 64u, 1001u}) {
    for (uint32_t shards : {1u, 2u, 4u, 5u, 16u}) {
      uint64_t sum = 0;
      for (uint32_t s = 0; s < shards; ++s) {
        sum += ShardedProfiler::ShardCapacity(capacity, shards, s);
      }
      EXPECT_EQ(sum, capacity) << capacity << "/" << shards;
    }
  }
}

TEST(ShardedProfilerTest, MergedQueriesMatchOracleAcrossShardCounts) {
  constexpr uint32_t kCapacity = 300;
  const std::vector<Event> events = RandomEvents(kCapacity, 20000, 42);
  const baselines::NaiveProfiler oracle = OracleOf(kCapacity, events);

  // 7 and 32 exercise ragged partitions (300 % shards != 0), 1 the
  // degenerate single-shard path.
  for (uint32_t shards : {1u, 2u, 4u, 7u, 32u}) {
    ShardedProfiler engine(kCapacity, SmallOptions(shards));
    engine.ApplyBatch(events);
    engine.Drain();
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ExpectMatchesOracle(engine, oracle);
  }
}

TEST(ShardedProfilerTest, MoreShardsThanIdsLeavesEmptyShards) {
  constexpr uint32_t kCapacity = 3;
  ShardedProfiler engine(kCapacity, SmallOptions(8));
  engine.Add(0);
  engine.Add(0);
  engine.Add(2);
  engine.Remove(1);
  engine.Drain();
  EXPECT_EQ(engine.Frequency(0), 2);
  EXPECT_EQ(engine.Frequency(1), -1);
  EXPECT_EQ(engine.Frequency(2), 1);
  EXPECT_EQ(engine.Mode(), 2);
  EXPECT_EQ(engine.total_count(), 2);
  const std::vector<int64_t> sorted = {-1, 1, 2};
  for (uint64_t k = 1; k <= kCapacity; ++k) {
    EXPECT_EQ(engine.KthSmallest(k), sorted[k - 1]) << "k " << k;
    EXPECT_EQ(engine.KthLargest(k), sorted[kCapacity - k]) << "k " << k;
  }
  EXPECT_EQ(engine.Median(), 1);
  EXPECT_EQ(engine.TopK(8), (std::vector<int64_t>{2, 1, -1}));
}

// Rank queries drop whole runs of equal frequencies from one shard at a
// time; here every frequency in [-3, 3] is shared by ids on every shard,
// so each discard round ties across shards.
TEST(ShardedProfilerTest, EqualFrequenciesStraddlingShardsMatchOracle) {
  constexpr uint32_t kCapacity = 70;
  std::vector<Event> events;
  for (uint32_t id = 0; id < kCapacity; ++id) {
    const int32_t f = static_cast<int32_t>(id % 7) - 3;
    if (f != 0) events.push_back(Event{id, f});
  }
  const baselines::NaiveProfiler oracle = OracleOf(kCapacity, events);
  for (uint32_t shards : {2u, 3u, 5u, 9u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedProfiler engine(kCapacity, SmallOptions(shards));
    ExpectMatchesOracle(engine, baselines::NaiveProfiler(kCapacity));
    engine.ApplyBatch(events);
    engine.Drain();
    ExpectMatchesOracle(engine, oracle);
  }
}

TEST(ShardedProfilerTest, FlushIsReadYourWrites) {
  ShardedProfiler engine(64, SmallOptions(4));
  for (int round = 0; round < 50; ++round) {
    engine.Add(7);
    engine.Add(13);
    engine.Remove(13);
    engine.Flush();
    EXPECT_EQ(engine.Frequency(7), round + 1);
    EXPECT_EQ(engine.Frequency(13), 0);
  }
  EXPECT_EQ(engine.total_count(), 50);
}

TEST(ShardedProfilerTest, SnapshotEpochsAreMonotonic) {
  // Per shard, not summed: a sum can rise while one shard's epoch falls.
  ShardedProfiler engine(16, SmallOptions(2));
  std::vector<uint64_t> last(2, 0);
  for (int round = 0; round < 10; ++round) {
    for (uint32_t id = 0; id < 16; ++id) engine.Add(id);
    engine.Flush();
    const auto snaps = engine.SnapshotAll();
    ASSERT_EQ(snaps.size(), 2u);
    for (uint32_t s = 0; s < 2; ++s) {
      EXPECT_GE(snaps[s]->epoch, last[s]) << "shard " << s;
      // 8 of each round's 16 ids route to each shard.
      EXPECT_EQ(snaps[s]->epoch, static_cast<uint64_t>(8 * (round + 1)))
          << "shard " << s;
      last[s] = snaps[s]->epoch;
    }
  }
}

// The concurrent half of the epoch contract: while producers ingest with
// frequent interval publishes, a reader polling every shard never sees
// that shard's snapshot epoch or published epoch go backwards, never sees
// the published epoch ahead of the snapshot it can grab, and after a
// final Flush both equal the events routed to the shard. Run under TSan.
TEST(ShardedProfilerTest, ShardEpochsNeverGoBackwardsUnderConcurrentIngestion) {
  constexpr uint32_t kCapacity = 300;
  constexpr uint32_t kShards = 3;
  constexpr uint32_t kProducers = 2;
  constexpr uint32_t kEventsPerProducer = 20000;
  ShardedProfiler engine(kCapacity,
                         EngineOptions{.shards = kShards,
                                       .queue_capacity = 1024,
                                       .drain_batch = 32,
                                       .snapshot_interval = 64});
  std::vector<std::vector<Event>> slices;
  std::vector<uint64_t> routed(kShards, 0);
  for (uint32_t p = 0; p < kProducers; ++p) {
    std::vector<Event>& slice = slices.emplace_back();
    for (uint32_t i = 0; i < kEventsPerProducer; ++i) {
      const uint32_t id = (i * 31 + p * 7) % kCapacity;
      slice.push_back(Event::Add(id));
      ++routed[id % kShards];
    }
  }

  std::atomic<bool> done{false};
  std::thread reader([&engine, &done] {
    std::vector<uint64_t> last_snapshot(kShards, 0);
    std::vector<uint64_t> last_published(kShards, 0);
    while (!done.load(std::memory_order_acquire)) {
      for (uint32_t s = 0; s < kShards; ++s) {
        const uint64_t published = engine.HealthOf(s).published_epoch;
        const uint64_t snapshot = engine.ShardSnapshotOf(s)->epoch;
        EXPECT_GE(published, last_published[s]) << "shard " << s;
        EXPECT_GE(snapshot, last_snapshot[s]) << "shard " << s;
        // The snapshot is swapped in before its epoch is published.
        EXPECT_LE(published, snapshot) << "shard " << s;
        last_published[s] = published;
        last_snapshot[s] = snapshot;
      }
    }
  });
  std::vector<std::thread> producers;
  for (uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine, &slices, p] {
      const std::vector<Event>& slice = slices[p];
      for (size_t i = 0; i < slice.size(); i += 100) {
        const size_t n = std::min<size_t>(100, slice.size() - i);
        engine.ApplyBatch(std::span<const Event>(slice.data() + i, n));
      }
    });
  }
  for (auto& t : producers) t.join();
  engine.Flush();
  done.store(true, std::memory_order_release);
  reader.join();

  for (uint32_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(engine.ShardSnapshotOf(s)->epoch, routed[s]) << "shard " << s;
    EXPECT_EQ(engine.HealthOf(s).published_epoch, routed[s]) << "shard " << s;
  }
}

// Read-your-writes checked from concurrent histories. Each producer owns
// the ids id % kProducers == p and adds to them round-robin, so "n events
// pushed" fixes every one of its ids' frequencies. After each ApplyBatch
// returns it release-stores n. Readers loop: acquire-load every
// producer's n, Flush, then require every id's Frequency() and
// total_count() to cover at least what those n pushed, and every shard's
// published epoch to never go backwards. Producers keep pushing until
// every reader has run all its barriers, and every producer's ids span
// every shard, so a Flush that skips any shard's wait is caught. Run
// under TSan.
TEST(ShardedProfilerTest, FlushSeesEveryPushThatReturnedBeforeIt) {
  constexpr uint32_t kShards = 3;
  constexpr uint32_t kProducers = 2;
  constexpr uint32_t kReaders = 2;
  constexpr uint32_t kBarriersPerReader = 200;
  constexpr uint32_t kIdsPerProducer = 30;
  constexpr uint32_t kCapacity = kProducers * kIdsPerProducer;
  constexpr uint32_t kBatch = 12;
  ShardedProfiler engine(kCapacity, SmallOptions(kShards));
  // Frequency of producer p's j-th id (global id p + j * kProducers)
  // once p has pushed n events.
  const auto expected = [](uint64_t n, uint32_t j) -> int64_t {
    return static_cast<int64_t>((n + kIdsPerProducer - 1 - j) /
                                kIdsPerProducer);
  };

  std::vector<std::atomic<uint64_t>> pushed(kProducers);
  std::atomic<uint32_t> readers_left{kReaders};
  std::vector<std::thread> readers;
  for (uint32_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::vector<uint64_t> last_epoch(kShards, 0);
      std::vector<uint64_t> before(kProducers);
      for (uint32_t b = 0; b < kBarriersPerReader; ++b) {
        for (uint32_t p = 0; p < kProducers; ++p) {
          // orders: acquire pairs with the producer's release store.
          before[p] = pushed[p].load(std::memory_order_acquire);
        }
        engine.Flush();
        int64_t total = 0;
        bool ok = true;
        for (uint32_t p = 0; p < kProducers && ok; ++p) {
          total += static_cast<int64_t>(before[p]);
          for (uint32_t j = 0; j < kIdsPerProducer && ok; ++j) {
            const uint32_t id = p + j * kProducers;
            const int64_t f = engine.Frequency(id);
            ok = f >= expected(before[p], j);
            EXPECT_TRUE(ok) << "id " << id << " (shard " << engine.ShardOf(id)
                            << ") reads " << f << " after a Flush called once "
                            << before[p] << " events of producer " << p
                            << " had returned; expected at least "
                            << expected(before[p], j);
          }
        }
        const int64_t seen = engine.total_count();
        EXPECT_GE(seen, total) << "total_count after a Flush called once "
                               << total << " events had returned";
        for (uint32_t s = 0; s < kShards; ++s) {
          const uint64_t epoch = engine.HealthOf(s).published_epoch;
          EXPECT_GE(epoch, last_epoch[s]) << "shard " << s;
          last_epoch[s] = epoch;
        }
        if (!ok || seen < total) break;
      }
      readers_left.fetch_sub(1, std::memory_order_release);
    });
  }
  std::vector<std::thread> producers;
  for (uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<Event> batch;
      uint64_t n = 0;
      while (readers_left.load(std::memory_order_acquire) > 0) {
        batch.clear();
        for (uint32_t i = 0; i < kBatch; ++i, ++n) {
          batch.push_back(Event::Add(p + (n % kIdsPerProducer) * kProducers));
        }
        engine.ApplyBatch(batch);
        // orders: release pairs with the readers' acquire loads.
        pushed[p].store(n, std::memory_order_release);
      }
    });
  }
  for (auto& t : readers) t.join();
  for (auto& t : producers) t.join();

  engine.Flush();
  int64_t total = 0;
  for (uint32_t p = 0; p < kProducers; ++p) {
    const uint64_t n = pushed[p].load(std::memory_order_relaxed);
    total += static_cast<int64_t>(n);
    for (uint32_t j = 0; j < kIdsPerProducer; ++j) {
      EXPECT_EQ(engine.Frequency(p + j * kProducers), expected(n, j));
    }
  }
  EXPECT_EQ(engine.total_count(), total);
}

// The point-read half of the epoch contract, from concurrent histories:
// Frequency() serves the lock-free hazard path while interval publishes
// (every 64 events) replace and free snapshots under it. Producers add
// to disjoint ids and release-store their pushed counts, as above. Each
// reader loops over every id: a value never decreases between two of its
// reads (a lookup never lands on an older snapshot than the last one it
// saw), and after each of its Flush calls every id covers what its
// producer had returned. Run under TSan (and 20x in the tsan CI job).
TEST(ShardedProfilerTest, PointReadsNeverGoBackwardsAndCoverReturnedPushes) {
  constexpr uint32_t kShards = 2;
  constexpr uint32_t kProducers = 2;
  constexpr uint32_t kReaders = 2;
  constexpr uint32_t kRoundsPerReader = 200;
  constexpr uint32_t kIdsPerProducer = 40;
  constexpr uint32_t kCapacity = kProducers * kIdsPerProducer;
  constexpr uint32_t kBatch = 16;
  ShardedProfiler engine(kCapacity, EngineOptions{.shards = kShards,
                                                  .queue_capacity = 1024,
                                                  .drain_batch = 32,
                                                  .snapshot_interval = 64});
  const auto expected = [](uint64_t n, uint32_t j) -> int64_t {
    return static_cast<int64_t>((n + kIdsPerProducer - 1 - j) /
                                kIdsPerProducer);
  };

  std::vector<std::atomic<uint64_t>> pushed(kProducers);
  std::atomic<uint32_t> readers_left{kReaders};
  std::vector<std::thread> readers;
  for (uint32_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::vector<int64_t> last(kCapacity, 0);
      std::vector<uint64_t> before(kProducers);
      bool ok = true;
      // Reads every id once; false on the first value below its floor.
      const auto read_all = [&](bool after_flush) {
        for (uint32_t id = 0; id < kCapacity; ++id) {
          const int64_t f = engine.Frequency(id);
          const uint32_t p = id % kProducers;
          const int64_t covered = expected(before[p], id / kProducers);
          const int64_t floor =
              after_flush ? std::max(last[id], covered) : last[id];
          if (f < floor) {
            ADD_FAILURE() << "id " << id << " reads " << f << " below "
                          << floor << (after_flush ? " after a Flush" : "")
                          << " (previous read " << last[id] << ", producer "
                          << p << " had returned " << before[p] << ")";
            return false;
          }
          last[id] = f;
        }
        return true;
      };
      for (uint32_t round = 0; round < kRoundsPerReader && ok; ++round) {
        ok = read_all(/*after_flush=*/false);
        for (uint32_t p = 0; p < kProducers; ++p) {
          // orders: acquire pairs with the producer's release store.
          before[p] = pushed[p].load(std::memory_order_acquire);
        }
        engine.Flush();
        ok = ok && read_all(/*after_flush=*/true);
      }
      readers_left.fetch_sub(1, std::memory_order_release);
    });
  }
  std::vector<std::thread> producers;
  for (uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      std::vector<Event> batch;
      uint64_t n = 0;
      while (readers_left.load(std::memory_order_acquire) > 0) {
        batch.clear();
        for (uint32_t i = 0; i < kBatch; ++i, ++n) {
          batch.push_back(Event::Add(p + (n % kIdsPerProducer) * kProducers));
        }
        engine.ApplyBatch(batch);
        // orders: release pairs with the readers' acquire loads.
        pushed[p].store(n, std::memory_order_release);
      }
    });
  }
  for (auto& t : readers) t.join();
  for (auto& t : producers) t.join();

  engine.Flush();
  for (uint32_t p = 0; p < kProducers; ++p) {
    const uint64_t n = pushed[p].load(std::memory_order_relaxed);
    for (uint32_t j = 0; j < kIdsPerProducer; ++j) {
      EXPECT_EQ(engine.Frequency(p + j * kProducers), expected(n, j));
    }
  }
}

// ---------------------------------------------------------------------
// Barrier split: Flush waits for visibility, Drain also for the retire.
// ---------------------------------------------------------------------

/// Holds the worker-side retire of one snapshot until the test opens it.
/// Arm() closes the gate for the next gated destructor only; every other
/// snapshot passes straight through.
class RetireGate {
 public:
  void Arm() SPROFILE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    armed_ = true;
    blocked_ = false;
    open_ = false;
  }

  void Open() SPROFILE_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      open_ = true;
    }
    cv_.NotifyAll();
  }

  /// Called from a snapshot destructor: blocks the armed retire.
  void Pass() SPROFILE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (!armed_) return;
    armed_ = false;
    blocked_ = true;
    cv_.NotifyAll();
    while (!open_) cv_.Wait(mu_);
  }

  /// True once the armed retire is held at the gate, within `limit`.
  bool WaitBlocked(std::chrono::milliseconds limit) SPROFILE_EXCLUDES(mu_) {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    MutexLock lock(mu_);
    while (!blocked_ && std::chrono::steady_clock::now() < deadline) {
      cv_.WaitFor(mu_, deadline - std::chrono::steady_clock::now());
    }
    return blocked_;
  }

 private:
  Mutex mu_;
  CondVar cv_;
  bool armed_ SPROFILE_GUARDED_BY(mu_) = false;
  bool blocked_ SPROFILE_GUARDED_BY(mu_) = false;
  bool open_ SPROFILE_GUARDED_BY(mu_) = true;
};

RetireGate& Gate() {
  static RetireGate gate;
  return gate;
}

/// adapters::Naive whose snapshot copies pass through Gate() when they
/// are destroyed. The engine's worker destroys the replaced snapshot in
/// Publish, so an armed gate stalls exactly that retire. Moved-from
/// copies and live profiles are not gated.
class GatedNaive : public Naive {
 public:
  explicit GatedNaive(uint32_t num_objects) : Naive(num_objects) {}
  GatedNaive(GatedNaive&& other) noexcept
      : Naive(std::move(other)), gated_(std::exchange(other.gated_, false)) {}
  ~GatedNaive() {
    if (gated_) Gate().Pass();
  }

  GatedNaive Clone() const { return GatedNaive(Naive::Clone()); }
  GatedNaive Snapshot() const { return GatedNaive(Naive::Snapshot()); }

 private:
  explicit GatedNaive(Naive copy) : Naive(std::move(copy)), gated_(true) {}

  bool gated_ = false;
};

static_assert(ShardBackend<GatedNaive>);

/// Runs `barrier` on a helper thread; true when it returns within
/// `limit`. On a timeout the gate is opened so the helper can finish
/// before this returns.
bool ReturnsWithin(std::chrono::milliseconds limit,
                   const std::function<void()>& barrier) {
  auto done = std::async(std::launch::async, barrier);
  if (done.wait_for(limit) == std::future_status::ready) return true;
  Gate().Open();
  done.wait();
  return false;
}

TEST(ShardedProfilerTest, FlushSkipsTheRetireThatDrainWaitsFor) {
  constexpr auto kPatience = std::chrono::milliseconds(5000);
  // Two shards: id 0 routes to shard 0, id 1 to shard 1.
  ShardedProfilerT<GatedNaive> engine(8, SmallOptions(2));

  // Shard 0's next publish retires its epoch-0 snapshot; hold that
  // retire at the gate.
  Gate().Arm();
  engine.Add(0);
  ASSERT_TRUE(ReturnsWithin(kPatience, [&engine] { engine.Flush(); }))
      << "Flush waited for the retire of the replaced snapshot";
  ASSERT_TRUE(Gate().WaitBlocked(kPatience));
  EXPECT_EQ(engine.Frequency(0), 1);  // visible while the retire is held

  // A barrier over events routed only to the other shard does not wait
  // on shard 0's held retire either.
  engine.Add(1);
  EXPECT_TRUE(ReturnsWithin(kPatience, [&engine] { engine.Flush(); }))
      << "Flush of shard 1 waited for shard 0's retire";
  EXPECT_EQ(engine.Frequency(1), 1);

  // Drain means quiescent: it returns only after the retire completes.
  auto drain = std::async(std::launch::async, [&engine] { engine.Drain(); });
  EXPECT_EQ(drain.wait_for(std::chrono::milliseconds(200)),
            std::future_status::timeout)
      << "Drain returned while a worker-side retire was pending";
  Gate().Open();
  EXPECT_EQ(drain.wait_for(kPatience), std::future_status::ready);
  EXPECT_EQ(engine.total_count(), 2);
}

uint64_t CounterValue(std::string_view name) {
  const obs::MetricsSnapshot snap = obs::Registry::Global().Snapshot();
  const obs::MetricSample* s = snap.Find(name);
  return s == nullptr ? 0 : s->count;
}

// The reclamation side of the lock-free point read: a hazard slot that
// names a snapshot keeps it alive however many publishes replace it, the
// worker frees it on its first pass after the slot clears, and Drain
// does not return while the free is pending. The slot is this thread's,
// set the way Frequency() sets it (watched through a weak_ptr).
TEST(ShardedProfilerTest, HazardSlotDefersTheFreeOfTheSnapshotItNames) {
  using Snap = ShardedProfiler::Snapshot;
  constexpr auto kPatience = std::chrono::milliseconds(5000);
  ShardedProfiler engine(8, SmallOptions(1));
  // Names shard 0's current snapshot in this thread's slot; the
  // shared_ptr keeps it alive until the slot does.
  std::weak_ptr<const Snap> watched;
  std::optional<internal::HazardPointer<Snap>> pin;
  const auto pin_current = [&] {
    const std::shared_ptr<const Snap> snap = engine.ShardSnapshotOf(0);
    watched = snap;
    const std::atomic<const Snap*> published{snap.get()};
    pin.emplace(published);
  };

  // Freed by an idle pass: no publish follows the clear.
  pin_current();
  const uint64_t deferred0 = CounterValue("sprofile_engine_retire_deferred");
  for (int i = 0; i < 3; ++i) {
    engine.Add(1);
    engine.Flush();
  }
  EXPECT_FALSE(watched.expired()) << "a named snapshot was freed";
  EXPECT_GE(CounterValue("sprofile_engine_retire_deferred") - deferred0, 3u);
  pin.reset();
  const auto deadline = std::chrono::steady_clock::now() + kPatience;
  while (!watched.expired() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(watched.expired()) << "the idle worker kept a cleared snapshot";

  // Drain means nothing pending: it waits out the slot, and returns only
  // once the snapshot is freed.
  pin_current();
  engine.Add(2);
  engine.Flush();
  auto drain = std::async(std::launch::async, [&engine] { engine.Drain(); });
  EXPECT_EQ(drain.wait_for(std::chrono::milliseconds(200)),
            std::future_status::timeout)
      << "Drain returned while a named snapshot was pending";
  EXPECT_FALSE(watched.expired());
  pin.reset();
  ASSERT_EQ(drain.wait_for(kPatience), std::future_status::ready);
  EXPECT_TRUE(watched.expired()) << "Drain returned with a free pending";
  EXPECT_EQ(engine.Frequency(1), 3);
  EXPECT_EQ(engine.Frequency(2), 1);
}

TEST(ShardedProfilerTest, QueriesNeverBlockIngestionSnapshotLags) {
  // With interval publishing off and no barrier, a query sees the LAST
  // published snapshot — proof that reads don't synchronize with writes.
  ShardedProfiler engine(8, SmallOptions(1));
  engine.Add(3);
  engine.Flush();
  EXPECT_EQ(engine.Frequency(3), 1);
  // total_count() right after an un-flushed Add may be stale (0 or 1
  // events behind) but must never exceed what was enqueued.
  engine.Add(3);
  const int64_t observed = engine.Frequency(3);
  EXPECT_GE(observed, 1);
  EXPECT_LE(observed, 2);
  engine.Flush();
  EXPECT_EQ(engine.Frequency(3), 2);
}

// The concurrent parity gate: K producers push disjoint slices of one
// event stream through ApplyBatch while the engine drains concurrently.
// ±1 deltas commute, so the final frequencies must equal the oracle's
// regardless of interleaving. Run under TSan in CI.
TEST(ShardedProfilerTest, ConcurrentProducersMatchOracle) {
  constexpr uint32_t kCapacity = 500;
  constexpr uint32_t kProducers = 4;
  constexpr uint32_t kEventsPerProducer = 30000;
  constexpr uint32_t kPushChunk = 128;

  std::vector<std::vector<Event>> slices;
  std::vector<Event> all;
  for (uint32_t p = 0; p < kProducers; ++p) {
    slices.push_back(
        RandomEvents(kCapacity, kEventsPerProducer, /*seed=*/900 + p));
    all.insert(all.end(), slices.back().begin(), slices.back().end());
  }

  ShardedProfiler engine(
      kCapacity, EngineOptions{.shards = 4,
                               .queue_capacity = 512,  // force backpressure
                               .drain_batch = 64,
                               .snapshot_interval = 4096});
  std::vector<std::thread> producers;
  for (uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine, &slices, p] {
      const std::vector<Event>& mine = slices[p];
      for (size_t i = 0; i < mine.size(); i += kPushChunk) {
        const size_t n = std::min<size_t>(kPushChunk, mine.size() - i);
        engine.ApplyBatch(std::span<const Event>(&mine[i], n));
      }
    });
  }
  for (auto& t : producers) t.join();
  engine.Drain();

  ExpectMatchesOracle(engine, OracleOf(kCapacity, all));
  EXPECT_EQ(engine.TotalApplied(),
            static_cast<uint64_t>(kProducers) * kEventsPerProducer);
}

// Same gate through the single-event Add/Remove path (contended CAS on
// one cell at a time instead of span reservations).
TEST(ShardedProfilerTest, ConcurrentSingleEventPushesMatchOracle) {
  constexpr uint32_t kCapacity = 64;
  constexpr uint32_t kProducers = 4;
  constexpr uint32_t kEventsPerProducer = 20000;

  std::vector<std::vector<Event>> slices;
  std::vector<Event> all;
  for (uint32_t p = 0; p < kProducers; ++p) {
    slices.push_back(
        RandomEvents(kCapacity, kEventsPerProducer, /*seed=*/700 + p));
    all.insert(all.end(), slices.back().begin(), slices.back().end());
  }

  ShardedProfiler engine(kCapacity, SmallOptions(2));
  std::vector<std::thread> producers;
  for (uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine, &slices, p] {
      for (const Event& e : slices[p]) engine.Apply(e.id, e.delta > 0);
    });
  }
  for (auto& t : producers) t.join();
  engine.Drain();

  ExpectMatchesOracle(engine, OracleOf(kCapacity, all));
}

// Readers hammer merged queries while producers ingest: the snapshot path
// must be race-free (TSan) and every observed total must be one the
// engine actually passed through (bounded by what was enqueued).
TEST(ShardedProfilerTest, ConcurrentReadersDuringIngestion) {
  constexpr uint32_t kCapacity = 128;
  constexpr int64_t kAdds = 40000;
  ShardedProfiler engine(kCapacity,
                         EngineOptions{.shards = 2,
                                       .queue_capacity = 1024,
                                       .drain_batch = 64,
                                       .snapshot_interval = 512});

  std::atomic<bool> done{false};
  std::thread reader([&engine, &done, kAdds] {
    uint32_t id = 0;
    while (!done.load(std::memory_order_acquire)) {
      const int64_t total = engine.total_count();
      EXPECT_GE(total, 0);
      EXPECT_LE(total, kAdds);
      const int64_t mode = engine.Mode();
      EXPECT_GE(mode, 0);
      (void)engine.Histogram();
      const std::vector<int64_t> top = engine.TopK(10);
      ASSERT_EQ(top.size(), 10u);
      for (size_t i = 0; i < top.size(); ++i) {
        EXPECT_GE(top[i], 0);
        EXPECT_LE(top[i], kAdds);
        if (i > 0) {
          EXPECT_LE(top[i], top[i - 1]);
        }
      }
      for (const int64_t f :
           {engine.Median(), engine.KthLargest(1), engine.Quantile(0.9),
            engine.Frequency(id)}) {
        EXPECT_GE(f, 0);
        EXPECT_LE(f, kAdds);
      }
      id = (id + 1) % kCapacity;
    }
  });

  std::vector<Event> adds;
  adds.reserve(kAdds);
  stream::LogStreamGenerator gen(
      stream::MakePaperStreamConfig(1, kCapacity, 31));
  for (int64_t i = 0; i < kAdds; ++i) adds.push_back(Event::Add(gen.Next().id));
  engine.ApplyBatch(adds);
  engine.Drain();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(engine.total_count(), kAdds);
}

TEST(ShardedProfilerTest, NaiveBackedEngineMatchesSProfileBackedEngine) {
  constexpr uint32_t kCapacity = 120;
  const std::vector<Event> events = RandomEvents(kCapacity, 8000, 77);

  ShardedProfiler fast(kCapacity, SmallOptions(4));
  ShardedProfilerT<Naive> slow(kCapacity, SmallOptions(4));
  fast.ApplyBatch(events);
  slow.ApplyBatch(events);
  fast.Drain();
  slow.Drain();

  EXPECT_EQ(fast.total_count(), slow.total_count());
  EXPECT_EQ(fast.Mode(), slow.Mode());
  EXPECT_EQ(fast.Histogram(), slow.Histogram());
  EXPECT_EQ(fast.TopK(17), slow.TopK(17));
  EXPECT_EQ(fast.Median(), slow.Median());
  for (uint32_t id = 0; id < kCapacity; ++id) {
    ASSERT_EQ(fast.Frequency(id), slow.Frequency(id)) << "id " << id;
  }
  for (uint64_t k = 1; k <= kCapacity; ++k) {
    ASSERT_EQ(fast.KthSmallest(k), slow.KthSmallest(k)) << "k " << k;
  }
}

// ---------------------------------------------------------------------
// Snapshot IO.
// ---------------------------------------------------------------------

class EngineSnapshotTest : public testing::Test {
 protected:
  std::string TempDir(const std::string& name) {
    const std::string d = testing::TempDir() + "/sprofile_engine_" + name;
    created_.push_back(d);
    return d;
  }

  void TearDown() override {
    for (const std::string& d : created_) {
      std::error_code ec;
      std::filesystem::remove_all(d, ec);
    }
  }

  std::vector<std::string> created_;
};

TEST_F(EngineSnapshotTest, SaveAllLoadAllRoundTripsQueries) {
  constexpr uint32_t kCapacity = 230;  // ragged across 4 shards
  const std::vector<Event> events = RandomEvents(kCapacity, 15000, 5);

  ShardedProfiler engine(kCapacity, SmallOptions(4));
  engine.ApplyBatch(events);
  const std::string dir = TempDir("roundtrip");
  ASSERT_TRUE(SaveAll(engine, dir).ok());  // SaveAll drains internally

  auto loaded = LoadAll(dir, SmallOptions(1));  // shards come from manifest
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ShardedProfiler restored = std::move(loaded).value();
  EXPECT_EQ(restored.num_shards(), 4u);
  ExpectMatchesOracle(restored, OracleOf(kCapacity, events));

  // The restored engine keeps ingesting.
  restored.Add(0);
  restored.Flush();
  EXPECT_EQ(restored.Frequency(0), engine.Frequency(0) + 1);
}

TEST_F(EngineSnapshotTest, EmptyShardsSurviveTheRoundTrip) {
  ShardedProfiler engine(2, SmallOptions(8));  // shards 2..7 are empty
  engine.Add(0);
  engine.Add(1);
  engine.Add(1);
  const std::string dir = TempDir("empty_shards");
  ASSERT_TRUE(SaveAll(engine, dir).ok());

  auto loaded = LoadAll(dir, SmallOptions(1));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_shards(), 8u);
  EXPECT_EQ(loaded->Frequency(0), 1);
  EXPECT_EQ(loaded->Frequency(1), 2);
}

TEST_F(EngineSnapshotTest, ReSaveIntoSameDirectoryAdvancesGeneration) {
  ShardedProfiler engine(40, SmallOptions(2));
  engine.Add(1);
  const std::string dir = TempDir("resave");
  ASSERT_TRUE(SaveAll(engine, dir).ok());
  ASSERT_TRUE(std::filesystem::exists(dir + "/shard-0.g1.sppf"));

  engine.Add(1);
  engine.Add(2);
  ASSERT_TRUE(SaveAll(engine, dir).ok());
  // Generation 2 committed; generation 1's files were reclaimed.
  ASSERT_TRUE(std::filesystem::exists(dir + "/shard-0.g2.sppf"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/shard-0.g1.sppf"));

  auto loaded = LoadAll(dir, SmallOptions(1));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->Frequency(1), 2);
  EXPECT_EQ(loaded->Frequency(2), 1);
}

TEST_F(EngineSnapshotTest, ManifestRedirectingShardFilesIsCorruption) {
  ShardedProfiler engine(40, SmallOptions(2));
  engine.Add(0);
  const std::string dir = TempDir("redirect");
  ASSERT_TRUE(SaveAll(engine, dir).ok());
  // Point shard 1 at an arbitrary path: the loader must insist on the
  // name the index and generation dictate.
  std::ofstream(dir + "/" + kManifestFileName)
      << "sprofile-engine-snapshot 1\ncapacity 40\nshards 2\ngeneration 1\n"
      << "shard 0 20 1 shard-0.g1.sppf\nshard 1 20 0 ../../evil.sppf\n";
  EXPECT_EQ(LoadAll(dir, SmallOptions(1)).status().code(),
            StatusCode::kCorruption);
}

TEST_F(EngineSnapshotTest, MissingDirectoryIsIOError) {
  EXPECT_EQ(LoadAll("/nonexistent/engine", SmallOptions(1)).status().code(),
            StatusCode::kIOError);
}

TEST_F(EngineSnapshotTest, GarbageManifestIsCorruption) {
  const std::string dir = TempDir("garbage");
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/" + kManifestFileName) << "not a manifest\n";
  EXPECT_EQ(LoadAll(dir, SmallOptions(1)).status().code(),
            StatusCode::kCorruption);
}

TEST_F(EngineSnapshotTest, ManifestWithWrongShardCapacityIsCorruption) {
  ShardedProfiler engine(100, SmallOptions(4));
  engine.Add(0);
  const std::string dir = TempDir("bad_capacity");
  ASSERT_TRUE(SaveAll(engine, dir).ok());
  // Rewrite the manifest claiming a different global capacity: the shard
  // capacities no longer match its stride partition.
  std::ofstream(dir + "/" + kManifestFileName)
      << "sprofile-engine-snapshot 1\ncapacity 120\nshards 4\ngeneration 1\n"
      << "shard 0 25 1 shard-0.g1.sppf\nshard 1 25 0 shard-1.g1.sppf\n"
      << "shard 2 25 0 shard-2.g1.sppf\nshard 3 25 0 shard-3.g1.sppf\n";
  EXPECT_EQ(LoadAll(dir, SmallOptions(1)).status().code(),
            StatusCode::kCorruption);
}

TEST_F(EngineSnapshotTest, TamperedShardFileFailsItsChecksum) {
  ShardedProfiler engine(64, SmallOptions(2));
  for (uint32_t i = 0; i < 64; ++i) engine.Add(i % 7);
  const std::string dir = TempDir("tampered");
  ASSERT_TRUE(SaveAll(engine, dir).ok());
  {
    std::fstream f(dir + "/shard-1.g1.sppf",
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);
    char byte;
    f.read(&byte, 1);
    f.seekp(20);
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }
  EXPECT_EQ(LoadAll(dir, SmallOptions(1)).status().code(),
            StatusCode::kCorruption);
}

// ---------------------------------------------------------------------
// The checked tier and the facade factories.
// ---------------------------------------------------------------------

TEST(CheckedEngineTest, TryTwinsValidateAndPassThrough) {
  auto made = MakeCheckedShardedProfiler(
      ProfilerOptions().SetInitialCapacity(50),
      EngineOptions{.shards = 4, .queue_capacity = 256, .drain_batch = 32});
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  CheckedShardedProfiler checked = std::move(made).value();

  EXPECT_TRUE(checked.TryAdd(10).ok());
  EXPECT_TRUE(checked.TryApply(10, true).ok());
  EXPECT_EQ(checked.TryAdd(50).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(checked.TryRemove(99).code(), StatusCode::kOutOfRange);

  checked.Flush();
  EXPECT_EQ(checked.TryFrequency(10).value(), 2);
  EXPECT_EQ(checked.TryFrequency(50).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(checked.TryMode().value(), (GroupStat{2, 1}));
  EXPECT_EQ(checked.TryMedian().value(), 0);
  EXPECT_EQ(checked.TryKthLargest(0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(checked.TryKthLargest(51).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(checked.TryKthLargest(1).value(), 2);
  EXPECT_EQ(checked.TryQuantile(1.5).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(checked.TryQuantile(1.0).value(), 2);
  EXPECT_EQ(checked.TryCountAtLeast(1).value(), 1u);
  EXPECT_EQ(checked.TryTopK(3).value(), (std::vector<int64_t>{2, 0, 0}));
}

TEST(CheckedEngineTest, TryApplyBatchIsAllOrNothing) {
  auto made = MakeCheckedShardedProfiler(
      ProfilerOptions().SetInitialCapacity(8),
      EngineOptions{.shards = 2,
                    .queue_capacity = 64,
                    .drain_batch = 16});
  ASSERT_TRUE(made.ok());
  CheckedShardedProfiler checked = std::move(made).value();

  const std::vector<Event> bad = {Event::Add(1), Event::Add(2),
                                  Event::Add(8)};  // 8 out of range
  const Status s = checked.TryApplyBatch(bad);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  checked.Drain();
  EXPECT_EQ(checked.total_count(), 0);  // nothing was enqueued

  EXPECT_TRUE(checked.TryApplyBatch(std::vector<Event>{Event::Add(1),
                                                       Event::Add(2)})
                  .ok());
  checked.Flush();
  EXPECT_EQ(checked.total_count(), 2);
}

TEST(CheckedEngineTest, FactoryRejectsBadOptions) {
  EXPECT_EQ(MakeShardedProfiler(ProfilerOptions().SetInitialCapacity(8),
                                EngineOptions{.shards = 0})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeShardedProfiler(
                ProfilerOptions().SetInitialCapacity(8),
                EngineOptions{.shards = 2, .queue_capacity = 16,
                              .drain_batch = 17})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      MakeShardedProfiler(
          ProfilerOptions().SetInitialCapacity(
              std::numeric_limits<uint32_t>::max()),
          EngineOptions{})
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_TRUE(MakeShardedProfiler(ProfilerOptions().SetInitialCapacity(8),
                                  EngineOptions{.shards = 2})
                  .ok());
}

// ---------------------------------------------------------------------------
// ISSUE 4: the memory-layer knobs (page allocator, arena sizing, pinning,
// NUMA policy) validate before any thread spawns, and the arena-backed
// engine works end to end with MemoryStats reporting.
// ---------------------------------------------------------------------------

TEST(EngineOptionsTest, ValidateRejectsBadMemoryLayerSettings) {
  // arena_bytes must be a multiple of the 4 KiB base page...
  EngineOptions o;
  o.arena_bytes = (2u << 20) + 123;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  // ...and inside [64 KiB, 1 GiB].
  o.arena_bytes = 4096;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o.arena_bytes = uint64_t{2} << 30;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o.arena_bytes = EngineOptions{}.arena_bytes;
  EXPECT_TRUE(o.Validate().ok());

  // Enum fields reject out-of-range values smuggled in by cast.
  o.page_allocator = static_cast<PageAllocatorKind>(250);
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o.page_allocator = PageAllocatorKind::kArena;
  EXPECT_TRUE(o.Validate().ok());
  o.numa_policy = static_cast<NumaPolicy>(99);
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);

  // numa_policy=local is meaningless without pinning.
  o.numa_policy = NumaPolicy::kLocal;
  o.pin_threads = false;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o.pin_threads = true;
  o.shards = 1;  // 1 <= hardware_concurrency everywhere
  EXPECT_TRUE(o.Validate().ok());
}

TEST(EngineOptionsTest, ValidateRejectsPinningMoreShardsThanCores) {
  const uint32_t cores = std::thread::hardware_concurrency();
  if (cores == 0) GTEST_SKIP() << "hardware_concurrency unknown";
  EngineOptions over;
  over.shards = cores + 1;
  over.pin_threads = true;
  EXPECT_EQ(over.Validate().code(), StatusCode::kInvalidArgument);
  // The factory rejects it before any worker thread exists.
  EXPECT_EQ(MakeShardedProfiler(ProfilerOptions().SetInitialCapacity(64), over)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  over.pin_threads = false;
  EXPECT_TRUE(over.Validate().ok());
}

TEST(ShardedProfilerTest, ArenaBackedEngineMatchesOracleAndReportsStats) {
  constexpr uint32_t kCapacity = 500;
  const std::vector<Event> events = RandomEvents(kCapacity, 30000, 7);
  const baselines::NaiveProfiler oracle = OracleOf(kCapacity, events);

  EngineOptions options = SmallOptions(3);
  options.page_allocator = PageAllocatorKind::kArena;
  options.arena_bytes = 64 * 1024;
  options.snapshot_interval = 512;  // force publish/fault/retire churn
  ShardedProfiler engine(kCapacity, options);
  engine.ApplyBatch(events);
  engine.Drain();
  ExpectMatchesOracle(engine, oracle);

  const EngineMemoryStats stats = engine.MemoryStats();
  EXPECT_EQ(stats.shards_reporting, 3u);
  EXPECT_GT(stats.totals.pages_allocated, 0u);
  EXPECT_GT(stats.totals.arenas_created, 0u);
  EXPECT_GT(stats.totals.page_bytes_live, 0u);
  // Interval publishing + continued ingestion must have COW-faulted pages.
  EXPECT_GT(stats.totals.cow_faults, 0u);
}

// Regression for "arena_hugepage_arenas = 0 at 8 shards" in
// BENCH_engine.json (ISSUE 5 satellite). Root cause was not an
// aggregation race: small per-shard footprints legitimately never reach a
// 2 MiB mapping, so the gauge truthfully read zero. MemoryStats must be
// correct in BOTH regimes: at tiny per-shard m the zero comes with live
// arenas behind it (not missing stats), and at hugepage-scale per-shard
// footprints the engine now sizes the FIRST arena mapping to the shard
// footprint, so 2 MiB mappings exist from construction instead of
// depending on where the 64 KiB doubling ladder stopped.
TEST(ShardedProfilerTest, MemoryStatsCorrectAcrossShardFootprints) {
  // Regime 1: 8 shards, tiny per-shard m. hugepage_arenas == 0 is the
  // truth, and every shard still reports real arena activity.
  {
    EngineOptions options = SmallOptions(8);
    options.page_allocator = PageAllocatorKind::kArena;
    ShardedProfiler engine(/*capacity=*/4096, options);
    engine.ApplyBatch(RandomEvents(4096, 20000, 3));
    engine.Drain();
    const EngineMemoryStats stats = engine.MemoryStats();
    EXPECT_EQ(stats.shards_reporting, 8u);
    EXPECT_GT(stats.totals.arenas_created, 0u);
    EXPECT_GT(stats.totals.arenas_live, 0u);
    EXPECT_GT(stats.totals.arena_bytes_mapped, 0u);
    EXPECT_EQ(stats.totals.hugepage_arenas, 0u)
        << "per-shard footprint is far below 2 MiB: no mapping may be "
           "hugepage-flagged";
    EXPECT_LE(stats.totals.hugepage_arenas, stats.totals.arenas_live);
  }
  // Regime 2: per-shard footprint >= 2 MiB (capacity/shards = 128Ki
  // slots; ProfileFootprintBytes(128Ki) ~= 3.5 MiB). The footprint-sized
  // first mapping makes every shard's storage land in hugepage-eligible
  // (>= 2 MiB) mappings.
  {
    EngineOptions options = SmallOptions(2);
    options.page_allocator = PageAllocatorKind::kArena;
    ShardedProfiler engine(/*capacity=*/1u << 18, options);
    const EngineMemoryStats stats = engine.MemoryStats();
    EXPECT_EQ(stats.shards_reporting, 2u);
    EXPECT_GE(stats.totals.arena_bytes_mapped, 2u * (2u << 20))
        << "each shard's first mapping should be footprint-sized (2 MiB)";
    // Whether madvise(MADV_HUGEPAGE) succeeds is a kernel policy question
    // (THP may be off on the runner); the gauge must stay within the live
    // mapping count either way.
    EXPECT_LE(stats.totals.hugepage_arenas, stats.totals.arenas_live);
  }
}

TEST(ShardedProfilerTest, HeapBackedEngineMatchesArenaBackedEngine) {
  constexpr uint32_t kCapacity = 257;
  const std::vector<Event> events = RandomEvents(kCapacity, 20000, 11);

  EngineOptions arena_opts = SmallOptions(2);
  arena_opts.page_allocator = PageAllocatorKind::kArena;
  EngineOptions heap_opts = SmallOptions(2);
  heap_opts.page_allocator = PageAllocatorKind::kHeap;

  ShardedProfiler arena_engine(kCapacity, arena_opts);
  ShardedProfiler heap_engine(kCapacity, heap_opts);
  arena_engine.ApplyBatch(events);
  heap_engine.ApplyBatch(events);
  arena_engine.Drain();
  heap_engine.Drain();

  EXPECT_EQ(arena_engine.Histogram(), heap_engine.Histogram());
  for (uint32_t id = 0; id < kCapacity; ++id) {
    ASSERT_EQ(arena_engine.Frequency(id), heap_engine.Frequency(id)) << id;
  }
  // Heap-backed shards report too (per-shard HeapPageAllocator instances).
  EXPECT_EQ(heap_engine.MemoryStats().shards_reporting, 2u);
  EXPECT_EQ(heap_engine.MemoryStats().totals.arenas_created, 0u);
}

TEST(ShardedProfilerTest, PinnedSingleShardEngineWorks) {
  // One shard pins to core 0 on any machine; exercises the worker-side
  // construct-after-pin path (the first-touch half of numa_policy=local).
  EngineOptions options = SmallOptions(1);
  options.pin_threads = true;
  options.numa_policy = NumaPolicy::kLocal;
  options.page_allocator = PageAllocatorKind::kArena;
  ASSERT_TRUE(options.Validate().ok());

  constexpr uint32_t kCapacity = 128;
  const std::vector<Event> events = RandomEvents(kCapacity, 10000, 3);
  const baselines::NaiveProfiler oracle = OracleOf(kCapacity, events);
  ShardedProfiler engine(kCapacity, options);
  engine.ApplyBatch(events);
  engine.Drain();
  ExpectMatchesOracle(engine, oracle);
}

TEST(CheckedEngineTest, MemoryStatsPassesThrough) {
  EngineOptions options = SmallOptions(2);
  options.page_allocator = PageAllocatorKind::kArena;
  auto made = MakeCheckedShardedProfiler(
      ProfilerOptions().SetInitialCapacity(100), options);
  ASSERT_TRUE(made.ok());
  CheckedShardedProfiler checked = std::move(made).value();
  ASSERT_TRUE(checked.TryAdd(5).ok());
  checked.Flush();
  const EngineMemoryStats stats = checked.MemoryStats();
  EXPECT_EQ(stats.shards_reporting, 2u);
  EXPECT_GT(stats.totals.pages_allocated, 0u);
}

TEST(ShardedProfilerTest, SnapshotRestoredEngineKeepsAllocatorStats) {
  // A restore-constructed engine (the LoadAll path) recovers its shards'
  // allocators through the backend's page_allocator() seam.
  EngineOptions options = SmallOptions(2);
  std::vector<adapters::SProfile> backends;
  backends.push_back(adapters::SProfile(
      ShardedProfiler::ShardCapacity(10, 2, 0),
      cow::MakeArenaPageAllocator(cow::ArenaOptions{
          .arena_bytes = 64 * 1024, .first_arena_bytes = 64 * 1024})));
  backends.push_back(adapters::SProfile(
      ShardedProfiler::ShardCapacity(10, 2, 1),
      cow::MakeArenaPageAllocator(cow::ArenaOptions{
          .arena_bytes = 64 * 1024, .first_arena_bytes = 64 * 1024})));
  ShardedProfiler engine(std::move(backends), 10, options);
  engine.Add(3);
  engine.Drain();
  EXPECT_EQ(engine.Frequency(3), 1);
  const EngineMemoryStats stats = engine.MemoryStats();
  EXPECT_EQ(stats.shards_reporting, 2u);
  EXPECT_GT(stats.totals.arenas_created, 0u);
}

}  // namespace
}  // namespace engine
}  // namespace sprofile
