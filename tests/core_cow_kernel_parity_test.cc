// Batch replay parity suite: FrequencyProfile::ApplyBatch must leave a
// profile in exactly the state the same events leave it in when applied
// one by one through Add/Remove — same frequencies, totals and histogram,
// and (because the batch replays in arrival order) the same rank
// permutation — on every storage epoch the update kernel runs on:
//   - flat: an arena profile with no snapshot, the exclusive epoch;
//   - paged: a fresh snapshot taken before every batch pins the pages;
//   - forced: one snapshot held for the whole run, so TryReflatten has to
//     force its way back to the flat epoch (cow::PagedArray::ForceFlat)
//     without perturbing the snapshot;
//   - heap: per-page heap allocations, where the flat epoch never engages.
// Profile sizes straddle ApplyBatch's warm-pass gate (m >= 2^18, batches
// of >= 256 events), and batches carry mixed-sign deltas, large ones
// included, plus block-pool growth in the middle of a batch.
//
// The file name carries both "core" and "cow" on purpose: the ASan CI leg
// runs -R "engine|core", the TSan leg -R "engine|cow|arena" — this suite
// is the batch parity gate under both sanitizers.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/cow_pages.h"
#include "core/frequency_profile.h"
#include "core/page_arena.h"
#include "sprofile/event.h"
#include "util/random.h"

namespace sprofile {
namespace {

// ApplyBatch's warm-pass gate (frequency_profile.cc): profiles of at least
// this many ids warm batches of at least kWarmBatch events.
constexpr uint32_t kWarmM = 1u << 18;
constexpr size_t kWarmBatch = 256;

cow::PageAllocatorRef SmallArena() {
  return cow::MakeArenaPageAllocator(cow::ArenaOptions{
      .arena_bytes = 64 * 1024, .first_arena_bytes = 64 * 1024});
}

cow::PageAllocatorRef Heap() {
  return std::make_shared<cow::HeapPageAllocator>();
}

// The reference: every event as |delta| single Add/Remove calls.
void ApplyLooped(FrequencyProfile& p, std::span<const Event> events) {
  for (const Event& e : events) {
    int64_t d = e.delta;
    for (; d > 0; --d) p.Add(e.id);
    for (; d < 0; ++d) p.Remove(e.id);
  }
}

void ApplyToOracle(std::vector<int64_t>& oracle,
                   std::span<const Event> events) {
  for (const Event& e : events) oracle[e.id] += e.delta;
}

// Full-state comparison: the batch and the looped replay ran the same
// unit steps in the same order, so even the rank permutation matches.
void ExpectSameState(const FrequencyProfile& batched,
                     const FrequencyProfile& looped,
                     const std::vector<int64_t>& oracle) {
  ASSERT_TRUE(batched.Validate().ok()) << batched.Validate().message();
  ASSERT_TRUE(looped.Validate().ok()) << looped.Validate().message();
  ASSERT_EQ(batched.ToFrequencies(), oracle);
  ASSERT_EQ(looped.ToFrequencies(), oracle);
  ASSERT_EQ(batched.total_count(), looped.total_count());
  ASSERT_EQ(batched.Histogram(), looped.Histogram());
  for (uint32_t rank = 0; rank < batched.capacity(); ++rank) {
    ASSERT_EQ(batched.IdAtRank(rank), looped.IdAtRank(rank))
        << "rank permutation diverged at rank " << rank;
  }
}

// A batch of `n` events over [0, universe): deltas in ±[1, 3], and about
// one event in 64 a ±1000 jump.
std::vector<Event> RandomBatch(Xoshiro256PlusPlus& rng, size_t n,
                               uint32_t universe) {
  std::vector<Event> batch;
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t id = rng.NextBounded(universe);
    const int32_t sign = rng.NextBounded(2) == 0 ? 1 : -1;
    const int32_t size = rng.NextBounded(64) == 0
                             ? 1000
                             : static_cast<int32_t>(1 + rng.NextBounded(3));
    batch.push_back(Event{id, sign * size});
  }
  return batch;
}

enum class Storage { kFlat, kPaged, kForced, kHeap };

const char* StorageName(Storage s) {
  switch (s) {
    case Storage::kFlat:
      return "flat";
    case Storage::kPaged:
      return "paged";
    case Storage::kForced:
      return "forced";
    case Storage::kHeap:
      return "heap";
  }
  return "?";
}

// Drives `batches` random batches through ApplyBatch on a profile of `m`
// ids held in `storage`, and the same events through looped Add/Remove on
// a heap-page reference. Batch sizes alternate below and at/above the
// warm-pass batch floor; some batches narrow to a hot id range so ids
// repeat within a batch.
void RunParity(Storage storage, uint32_t m, int batches, uint64_t seed) {
  SCOPED_TRACE(StorageName(storage));
  SCOPED_TRACE(m);
  FrequencyProfile batched(m, storage == Storage::kHeap ? Heap()
                                                        : SmallArena());
  FrequencyProfile looped(m, Heap());
  std::vector<int64_t> oracle(m, 0);
  Xoshiro256PlusPlus rng(seed);

  // kForced: one snapshot pins the starting state for the whole run.
  std::optional<FrequencyProfile> held;
  if (storage == Storage::kForced) held.emplace(batched.Snapshot());

  for (int b = 0; b < batches; ++b) {
    SCOPED_TRACE(b);
    const size_t n = b % 2 == 0 ? 1 + rng.NextBounded(kWarmBatch - 1)
                                : kWarmBatch + rng.NextBounded(1024);
    const uint32_t universe =
        rng.NextBounded(3) == 0 ? 1 + rng.NextBounded(64) : m;
    const std::vector<Event> batch = RandomBatch(rng, n, universe);

    std::optional<FrequencyProfile> snap;
    std::vector<int64_t> snap_expected;
    if (storage == Storage::kPaged) {
      snap.emplace(batched.Snapshot());
      snap_expected = oracle;
      ASSERT_FALSE(batched.storage_flat());
    }
    if (storage == Storage::kFlat) {
      ASSERT_TRUE(batched.TryReflatten()) << "no snapshot, yet not flat";
    }
    batched.ApplyBatch(batch);
    ApplyLooped(looped, batch);
    ApplyToOracle(oracle, batch);
    if (snap.has_value()) {
      ASSERT_EQ(snap->ToFrequencies(), snap_expected)
          << "a batch leaked into a held snapshot";
    }
    if (b % 8 == 7) ExpectSameState(batched, looped, oracle);
  }
  ExpectSameState(batched, looped, oracle);

  if (storage == Storage::kHeap) {
    EXPECT_FALSE(batched.storage_flat()) << "heap pages must never go flat";
  }
  if (held.has_value()) {
    EXPECT_TRUE(batched.storage_flat())
        << "forced reflatten never fired under the held snapshot";
    EXPECT_EQ(held->ToFrequencies(), std::vector<int64_t>(m, 0))
        << "forced divergence leaked into the held snapshot";
  }
}

// Small enough that ApplyBatch never warms (m below the gate).
constexpr uint32_t kSmallM = 4096;

TEST(BatchParityTest, FlatBelowWarmGate) {
  RunParity(Storage::kFlat, kSmallM, 96, 20260808);
  RunParity(Storage::kFlat, kWarmM - 1, 16, 97);
}

TEST(BatchParityTest, FlatAtAndAboveWarmGate) {
  RunParity(Storage::kFlat, kWarmM, 16, 20260808);
  RunParity(Storage::kFlat, kWarmM + 4096, 16, 97);
}

TEST(BatchParityTest, PagedUnderSnapshotPerBatch) {
  RunParity(Storage::kPaged, kSmallM, 64, 31337);
  RunParity(Storage::kPaged, kWarmM, 12, 31337);
}

TEST(BatchParityTest, ForcedReflattenUnderHeldSnapshot) {
  RunParity(Storage::kForced, kSmallM, 64, 4242);
  RunParity(Storage::kForced, kWarmM, 16, 4242);
}

TEST(BatchParityTest, HeapPagesNeverFlat) {
  RunParity(Storage::kHeap, kSmallM, 64, 777);
  RunParity(Storage::kHeap, kWarmM, 12, 777);
}

// A staircase batch — event i lands on its own id at delta i + 1 — opens
// one block per distinct frequency, far past the pool's reserved run, so
// the flat epoch degrades in the middle of the batch and the next updates
// run on the paged kernel. At kWarmM the warm pass has already staged
// the whole batch against the flat bases.
void RunPoolGrowth(uint32_t m, uint32_t steps, uint32_t stride) {
  SCOPED_TRACE(m);
  FrequencyProfile batched(m, SmallArena());
  FrequencyProfile looped(m, Heap());
  std::vector<int64_t> oracle(m, 0);
  std::vector<Event> batch;
  for (uint32_t i = 0; i < steps; ++i) {
    const int32_t sign = i % 5 == 4 ? -1 : 1;
    batch.push_back(Event{i * stride % m, sign * static_cast<int32_t>(i + 1)});
  }
  ASSERT_TRUE(batched.TryReflatten());
  const size_t blocks_before = batched.num_blocks();
  batched.ApplyBatch(batch);
  ApplyLooped(looped, batch);
  ApplyToOracle(oracle, batch);
  // The paged kernel ran part of the batch (until its periodic probe
  // re-flattened the grown pool).
  EXPECT_GT(batched.paged_updates(), 0u)
      << "the staircase never grew the block pool past its run";
  EXPECT_GT(batched.num_blocks(), blocks_before + steps / 2);
  ExpectSameState(batched, looped, oracle);
  // The next batch re-enters the flat epoch and keeps parity.
  Xoshiro256PlusPlus rng(m);
  const std::vector<Event> next = RandomBatch(rng, kWarmBatch + 100, m);
  batched.ApplyBatch(next);
  ApplyLooped(looped, next);
  ApplyToOracle(oracle, next);
  EXPECT_TRUE(batched.storage_flat());
  ExpectSameState(batched, looped, oracle);
}

TEST(BatchParityTest, PoolGrowthMidBatch) {
  RunPoolGrowth(kSmallM, 2000, 1);
  RunPoolGrowth(kWarmM, 2000, 97);
}

// ---------------------------------------------------------------------------
// Forced reflatten (cow::PagedArray::ForceFlat).
// ---------------------------------------------------------------------------

TEST(KernelParityForceFlatTest, PagedArrayForceFlatEvictsPinnedSnapshot) {
  auto alloc = SmallArena();
  cow::PagedArray<uint64_t> a(alloc, 4096);
  a.resize(4096);
  ASSERT_TRUE(a.EnsureFlat());
  for (size_t i = 0; i < a.size(); ++i) a.flat_data()[i] = i * 5;

  const cow::PagedArray<uint64_t> snap = a;
  a.Mutable(11) = 1111;
  ASSERT_FALSE(a.EnsureFlat()) << "gentle probe must stay pinned";

  // Forced divergence: every still-shared page faults to a private copy,
  // then consolidates into a fresh run the snapshot has no claim on.
  ASSERT_TRUE(a.ForceFlat());
  ASSERT_TRUE(a.flat());
  EXPECT_EQ(a[11], 1111u);
  for (size_t i = 0; i < a.size(); i += 37) {
    if (i == 11) continue;
    ASSERT_EQ(a[i], i * 5) << i;
    ASSERT_EQ(a.flat_data()[i], i * 5) << i;
  }
  // Post-force flat writes must not leak into the still-held snapshot.
  for (size_t i = 0; i < a.size(); ++i) a.flat_data()[i] = 9;
  EXPECT_EQ(snap[11], 55u);
  for (size_t i = 0; i < snap.size(); i += 37) {
    if (i == 11) continue;
    ASSERT_EQ(snap[i], i * 5) << i;
  }
}

TEST(KernelParityForceFlatTest, HeapForceFlatStaysPaged) {
  auto alloc = Heap();
  cow::PagedArray<uint64_t> a(alloc, 1024);
  a.resize(1024);
  const cow::PagedArray<uint64_t> snap = a;
  a.Mutable(3) = 33;
  EXPECT_FALSE(a.ForceFlat()) << "no runs: force must refuse, not crash";
  EXPECT_EQ(a[3], 33u);
  EXPECT_EQ(snap[3], 0u);
}

TEST(KernelParityForceFlatTest, ProfileForcesFlatUnderHeldSnapshot) {
  // The engine shape that motivated ForceFlat: a retained publish pins the
  // profile's pages while the owner keeps batching. The gentle probe can
  // never win; after kForceReflattenUpdates paged updates TryReflatten
  // must force the flat epoch back — with the snapshot still live and
  // still frozen.
  FrequencyProfile p(kSmallM, SmallArena());
  std::vector<int64_t> oracle(kSmallM, 0);
  Xoshiro256PlusPlus rng(424242);

  // Seed some mass, enter the flat epoch, then pin it with a snapshot.
  for (uint32_t id = 0; id < kSmallM; ++id) {
    p.Add(id % 97);
    ++oracle[id % 97];
  }
  ASSERT_TRUE(p.TryReflatten());
  const FrequencyProfile snap = p.Snapshot();
  const std::vector<int64_t> snap_expected = oracle;
  EXPECT_FALSE(p.storage_flat()) << "sharing ends the exclusive epoch";

  // Far more than kForceReflattenUpdates of paged batch work.
  for (int b = 0; b < 64; ++b) {
    std::vector<Event> batch;
    batch.reserve(400);
    for (int i = 0; i < 400; ++i) {
      const uint32_t id = rng.NextBounded(kSmallM);
      const int32_t delta = rng.NextBounded(2) == 0 ? 1 : -1;
      batch.push_back(Event{id, delta});
      oracle[id] += delta;
    }
    p.ApplyBatch(batch);
  }

  EXPECT_TRUE(p.storage_flat())
      << "forced reflatten never fired despite a snapshot-pinned, "
         "write-hot profile";
  ASSERT_TRUE(p.Validate().ok()) << p.Validate().message();
  EXPECT_EQ(p.ToFrequencies(), oracle);
  EXPECT_EQ(snap.ToFrequencies(), snap_expected)
      << "forced divergence leaked into a held snapshot";
}

TEST(KernelParityForceFlatTest, ForcedEpochMatchesLoopedReplay) {
  // Same held-snapshot hammering: the forced-flat epoch's batch replay
  // must match looped Add/Remove on the same stream.
  FrequencyProfile p(kSmallM, SmallArena());
  FrequencyProfile looped(kSmallM, SmallArena());
  std::vector<int64_t> oracle(kSmallM, 0);
  Xoshiro256PlusPlus rng(7777);
  ASSERT_TRUE(p.TryReflatten());
  const FrequencyProfile snap = p.Snapshot();
  for (int b = 0; b < 48; ++b) {
    std::vector<Event> batch;
    batch.reserve(300);
    for (int i = 0; i < 300; ++i) {
      batch.push_back(Event{static_cast<uint32_t>(rng.NextBounded(kSmallM)),
                            rng.NextBounded(2) == 0 ? 1 : -1});
    }
    p.ApplyBatch(batch);
    ApplyLooped(looped, batch);
    ApplyToOracle(oracle, batch);
  }
  EXPECT_TRUE(p.storage_flat());
  ExpectSameState(p, looped, oracle);
  EXPECT_EQ(snap.ToFrequencies(), std::vector<int64_t>(kSmallM, 0));
}

}  // namespace
}  // namespace sprofile
