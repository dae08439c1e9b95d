// COW snapshot correctness — the property suite for the copy-on-write
// publish path (ISSUE 3 tentpole).
//
// Core property: after N random updates interleaved with K snapshot
// publications, EVERY historical snapshot still answers
// mode/top-k/histogram/count/frequency identically to a deep-copy oracle
// taken at the same epoch. Failures shrink: the harness re-runs with a
// shorter update prefix to report the minimal N that still fails, plus the
// seed to reproduce.
//
// Engine property: the same invariant through ShardedProfiler shards over
// kCopyPublishMaxBytes, which publish by COW page grab — per-shard
// snapshots grabbed at Flush barriers stay frozen while ingestion keeps
// mutating the live shards — plus parity between COW-published and
// copy-published shards on one event stream, and the fault tally that
// tells the two apart.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/frequency_profile.h"
#include "sprofile/sprofile.h"
#include "stream/log_stream.h"

namespace sprofile {
namespace {

// ---------------------------------------------------------------------
// Core layer: FrequencyProfile::Snapshot vs Clone oracles.
// ---------------------------------------------------------------------

/// Compares every query surface of `snap` against `oracle` (a deep copy
/// taken at the same instant). Returns a description of the first
/// divergence, or nullopt when identical.
std::optional<std::string> DiffSnapshotAgainstOracle(
    const FrequencyProfile& snap, const FrequencyProfile& oracle) {
  if (!snap.Validate().ok()) {
    return "snapshot fails Validate: " + snap.Validate().ToString();
  }
  if (snap.capacity() != oracle.capacity()) return "capacity diverged";
  if (snap.total_count() != oracle.total_count()) return "total_count diverged";
  if (snap.ToFrequencies() != oracle.ToFrequencies()) {
    return "ToFrequencies diverged";
  }
  if (snap.num_active() == 0) return std::nullopt;
  if (snap.Mode().frequency != oracle.Mode().frequency) return "Mode diverged";
  if (snap.MinFrequent().frequency != oracle.MinFrequent().frequency) {
    return "MinFrequent diverged";
  }
  if (snap.Histogram() != oracle.Histogram()) return "Histogram diverged";
  std::vector<FrequencyEntry> top_s, top_o;
  const uint32_t k = std::min<uint32_t>(8, snap.num_active());
  snap.TopK(k, &top_s);
  oracle.TopK(k, &top_o);
  for (size_t i = 0; i < top_s.size(); ++i) {
    if (top_s[i].frequency != top_o[i].frequency) return "TopK diverged";
  }
  const int64_t lo = oracle.MinFrequent().frequency;
  const int64_t hi = oracle.Mode().frequency;
  for (int64_t f : {lo - 1, lo, (lo + hi) / 2, hi, hi + 1}) {
    if (snap.CountAtLeast(f) != oracle.CountAtLeast(f)) {
      return "CountAtLeast(" + std::to_string(f) + ") diverged";
    }
    if (snap.CountEqual(f) != oracle.CountEqual(f)) {
      return "CountEqual(" + std::to_string(f) + ") diverged";
    }
  }
  return std::nullopt;
}

struct TrialFailure {
  uint64_t at_update;  // update index at which the divergence was detected
  std::string what;
};

/// Runs one seeded trial: n random ±1 updates on m ids, publishing a
/// (COW snapshot, deep clone) pair at k evenly spaced points, verifying
/// every historical pair after each subsequent update burst and at the
/// end. Returns the first failure, or nullopt.
std::optional<TrialFailure> RunCoreTrial(uint64_t seed, uint32_t m, uint64_t n,
                                         uint32_t k) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<uint32_t> pick_id(0, m - 1);
  std::uniform_int_distribution<int> pick_op(0, 2);  // bias 2:1 toward Add

  FrequencyProfile profile(m);
  struct Historical {
    uint64_t epoch;
    FrequencyProfile snap;
    FrequencyProfile oracle;
  };
  std::vector<Historical> history;
  const uint64_t publish_every = std::max<uint64_t>(1, n / std::max(1u, k));

  for (uint64_t i = 0; i < n; ++i) {
    const uint32_t id = pick_id(rng);
    if (pick_op(rng) != 0) {
      profile.Add(id);
    } else {
      profile.Remove(id);
    }
    if ((i + 1) % publish_every == 0 && history.size() < k) {
      history.push_back(Historical{i + 1, profile.Snapshot(), profile.Clone()});
    }
    // Re-verify EVERY historical snapshot periodically — a COW bug shows
    // up as a later update leaking through a page the snapshot shares.
    if ((i + 1) % 256 == 0 || i + 1 == n) {
      for (const Historical& h : history) {
        if (auto diff = DiffSnapshotAgainstOracle(h.snap, h.oracle)) {
          return TrialFailure{
              i + 1, "snapshot@" + std::to_string(h.epoch) + ": " + *diff};
        }
      }
    }
  }
  // The live profile itself must also still diff clean against a fresh
  // deep copy of itself serialized through the same surface.
  if (auto diff = DiffSnapshotAgainstOracle(profile.Snapshot(), profile)) {
    return TrialFailure{n, "final self-snapshot: " + *diff};
  }
  return std::nullopt;
}

/// Shrink: find the smallest prefix length that still fails, by halving
/// down then linear-probing back up. Reported in the failure message so a
/// repro is one constructor call away.
void ReportShrunk(uint64_t seed, uint32_t m, uint64_t n, uint32_t k,
                  const TrialFailure& first) {
  uint64_t failing_n = n;
  uint64_t lo = 1, hi = n;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (RunCoreTrial(seed, m, mid, k).has_value()) {
      failing_n = mid;
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const auto minimal = RunCoreTrial(seed, m, failing_n, k);
  FAIL() << "COW snapshot property violated: " << first.what
         << " (first seen at update " << first.at_update << ")\n"
         << "shrunk repro: RunCoreTrial(seed=" << seed << ", m=" << m
         << ", n=" << failing_n << ", k=" << k << ") -> "
         << (minimal ? minimal->what : std::string("(did not reproduce)"));
}

struct CowCase {
  uint64_t seed;
  uint32_t m;
  uint64_t n;
  uint32_t k;
};

class CowSnapshotPropertyTest : public testing::TestWithParam<CowCase> {};

TEST_P(CowSnapshotPropertyTest, HistoricalSnapshotsMatchDeepCopyOracles) {
  const CowCase& c = GetParam();
  if (const auto failure = RunCoreTrial(c.seed, c.m, c.n, c.k)) {
    ReportShrunk(c.seed, c.m, c.n, c.k, *failure);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeded, CowSnapshotPropertyTest,
    testing::Values(
        // Small m: every update touches the one hot page.
        CowCase{11, 4, 4000, 16},
        // m spanning one page exactly and a page boundary.
        CowCase{12, 512, 8000, 8}, CowCase{13, 513, 8000, 8},
        // Multi-page arrays with many historical snapshots alive at once.
        CowCase{14, 3000, 20000, 32},
        // Heavy churn against few snapshots (deep fault reuse).
        CowCase{15, 1500, 30000, 2}),
    [](const testing::TestParamInfo<CowCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_m" +
             std::to_string(info.param.m) + "_n" + std::to_string(info.param.n) +
             "_k" + std::to_string(info.param.k);
    });

TEST(CowSnapshotTest, SnapshotIsPagesNotElements) {
  constexpr uint32_t kM = 1 << 16;
  FrequencyProfile p(kM);
  for (uint32_t i = 0; i < kM; ++i) p.Add(i % 257);

  const FrequencyProfile snap = p.Snapshot();
  // Every storage page is shared right after the grab...
  EXPECT_EQ(p.SharedStoragePages(), p.TotalStoragePages());
  // ...and the page count is orders of magnitude below m.
  EXPECT_LT(p.TotalStoragePages(), kM / 64);

  // One update un-shares a bounded number of pages (the ranks, ids and
  // blocks it touches), not the whole profile.
  p.Add(0);
  EXPECT_GE(p.SharedStoragePages(),
            p.TotalStoragePages() - 8);  // few pages faulted
  EXPECT_EQ(snap.Frequency(0), p.Frequency(0) - 1);
}

TEST(CowSnapshotTest, SnapshotSurvivesParentDestruction) {
  FrequencyProfile snap = [] {
    FrequencyProfile p(100);
    for (uint32_t i = 0; i < 100; ++i) p.Add(i % 7);
    FrequencyProfile s = p.Snapshot();
    for (uint32_t i = 0; i < 50; ++i) p.Add(i);  // fault some pages
    return s;  // p dies here; shared pages must stay alive for s
  }();
  ASSERT_TRUE(snap.Validate().ok());
  EXPECT_EQ(snap.total_count(), 100);
  EXPECT_EQ(snap.Frequency(0), 15);  // 100 adds over 7 ids: id 0 got 15
}

TEST(CowSnapshotTest, SnapshotIsWritableAndIsolated) {
  FrequencyProfile p(32);
  p.Add(3);
  FrequencyProfile snap = p.Snapshot();
  // Writing the SNAPSHOT must fault pages instead of corrupting the parent.
  snap.Add(3);
  snap.Add(4);
  EXPECT_EQ(p.Frequency(3), 1);
  EXPECT_EQ(p.Frequency(4), 0);
  EXPECT_EQ(snap.Frequency(3), 2);
  EXPECT_EQ(snap.Frequency(4), 1);
  ASSERT_TRUE(p.Validate().ok());
  ASSERT_TRUE(snap.Validate().ok());
}

TEST(CowSnapshotTest, PeelAndInsertAfterSnapshotStayIsolated) {
  FrequencyProfile p(16);
  for (uint32_t i = 0; i < 16; ++i) {
    for (uint32_t j = 0; j < i; ++j) p.Add(i);
  }
  const FrequencyProfile snap = p.Snapshot();
  const FrequencyEntry peeled = p.PeelMin();
  const uint32_t grown = p.InsertSlot();
  EXPECT_EQ(peeled.frequency, 0);
  EXPECT_EQ(grown, 16u);
  EXPECT_EQ(snap.capacity(), 16u);
  EXPECT_EQ(snap.num_frozen(), 0u);
  ASSERT_TRUE(snap.Validate().ok());
  ASSERT_TRUE(p.Validate().ok());
}

// ---------------------------------------------------------------------
// Engine layer: per-shard COW snapshots under the worker thread.
// ---------------------------------------------------------------------

namespace eng = sprofile::engine;

// The most ids a shard can hold and still publish by copy; one more and
// it publishes by COW page grab.
constexpr uint32_t kCopyIds =
    static_cast<uint32_t>(kCopyPublishMaxBytes / ProfileFootprintBytes(1));
static_assert(ProfileFootprintBytes(kCopyIds) <= kCopyPublishMaxBytes);
static_assert(ProfileFootprintBytes(kCopyIds + 1) > kCopyPublishMaxBytes);

TEST(EngineCowSnapshotTest, BarrierSnapshotsStayFrozenWhileIngestionContinues) {
  constexpr uint32_t kShards = 2;
  // Every shard over the copy bound: they publish by COW page grab.
  constexpr uint32_t kCapacity = kShards * (kCopyIds + 1);
  constexpr uint32_t kBarriers = 12;
  constexpr uint32_t kChunk = 5000;

  eng::ShardedProfiler engine(
      kCapacity, eng::EngineOptions{.shards = kShards,
                                    .queue_capacity = 2048,
                                    .drain_batch = 128,
                                    .snapshot_interval = 0});

  stream::LogStreamGenerator gen(
      stream::MakePaperStreamConfig(2, kCapacity, /*seed=*/4242));

  struct Frozen {
    std::vector<std::shared_ptr<const eng::ShardedProfiler::Snapshot>> snaps;
    std::vector<std::vector<int64_t>> expected;  // per shard, at grab time
  };
  std::vector<Frozen> barriers;

  for (uint32_t b = 0; b < kBarriers; ++b) {
    std::vector<Event> chunk;
    gen.GenerateEvents(kChunk, &chunk);
    engine.ApplyBatch(chunk);
    engine.Flush();

    Frozen frozen;
    frozen.snaps = engine.SnapshotAll();
    for (const auto& s : frozen.snaps) {
      frozen.expected.push_back(s->profile.backend().ToFrequencies());
    }
    barriers.push_back(std::move(frozen));
  }
  engine.Drain();

  // Every historical barrier snapshot must still answer exactly what it
  // answered when grabbed, even though the workers kept faulting pages
  // underneath for another (kBarriers - b) * kChunk events.
  for (uint32_t b = 0; b < barriers.size(); ++b) {
    const Frozen& frozen = barriers[b];
    for (size_t s = 0; s < frozen.snaps.size(); ++s) {
      const auto& profile = frozen.snaps[s]->profile;
      ASSERT_EQ(profile.backend().ToFrequencies(), frozen.expected[s])
          << "barrier " << b << " shard " << s;
      ASSERT_TRUE(profile.backend().Validate().ok())
          << "barrier " << b << " shard " << s;
    }
  }
}

// One stream through one capacity twice: on 1 shard, which is over the
// copy bound and publishes by COW page grab, and on 8 shards, each under
// it and publishing by copy. Both must give identical answers.
TEST(EngineCowSnapshotTest, CowAndCopyPublishedShardsAgree) {
  constexpr uint32_t kCapacity = kCopyIds + 1;
  static_assert(eng::ShardedProfiler::ShardCapacity(kCapacity, 8, 0) <=
                kCopyIds);
  stream::LogStreamGenerator gen(
      stream::MakePaperStreamConfig(3, kCapacity, /*seed=*/99));
  std::vector<Event> events;
  gen.GenerateEvents(40000, &events);

  const auto options = [](uint32_t shards) {
    return eng::EngineOptions{.shards = shards,
                              .queue_capacity = 1024,
                              .drain_batch = 64,
                              .snapshot_interval = 777};  // publish often
  };
  eng::ShardedProfiler cow(kCapacity, options(1));
  eng::ShardedProfiler copy(kCapacity, options(8));
  cow.ApplyBatch(events);
  copy.ApplyBatch(events);
  cow.Drain();
  copy.Drain();

  EXPECT_EQ(cow.total_count(), copy.total_count());
  EXPECT_EQ(cow.Mode(), copy.Mode());
  EXPECT_EQ(cow.Median(), copy.Median());
  EXPECT_EQ(cow.Histogram(), copy.Histogram());
  EXPECT_EQ(cow.TopK(20), copy.TopK(20));
  for (uint32_t id = 0; id < kCapacity; ++id) {
    ASSERT_EQ(cow.Frequency(id), copy.Frequency(id)) << "id " << id;
  }
}

// A shard at the copy bound publishes by Clone(), so its live profile
// never shares a page and its writes never COW-fault; one id more and it
// grabs pages, and the writes after each publish fault. The epoch-0
// snapshot is a page grab on both sides, so the first burst may fault
// against it; the tally starts once the first Flush has replaced it.
TEST(EngineCowSnapshotTest, ShardsUnderTheCopyBoundNeverFault) {
  constexpr int kPublishes = 24;
  const auto faults_over_publishes = [](uint32_t capacity) {
    eng::ShardedProfiler engine(
        capacity, eng::EngineOptions{.shards = 1, .snapshot_interval = 0});
    stream::LogStreamGenerator gen(
        stream::MakePaperStreamConfig(2, capacity, /*seed=*/17));
    std::vector<Event> burst;
    gen.GenerateEvents(4096, &burst);
    engine.ApplyBatch(burst);
    engine.Drain();
    const uint64_t faults0 = engine.MemoryStats().totals.cow_faults;
    const size_t publishes0 = engine.SnapshotPauseSamplesNs().size();
    for (int i = 0; i < kPublishes; ++i) {
      burst.clear();
      gen.GenerateEvents(4096, &burst);
      engine.ApplyBatch(burst);
      engine.Flush();
    }
    engine.Drain();
    EXPECT_GE(engine.SnapshotPauseSamplesNs().size() - publishes0,
              static_cast<size_t>(kPublishes));
    return engine.MemoryStats().totals.cow_faults - faults0;
  };
  EXPECT_EQ(faults_over_publishes(kCopyIds), 0u);
  EXPECT_GT(faults_over_publishes(kCopyIds + 1), 0u);
}

}  // namespace
}  // namespace sprofile
