// Exclusive-epoch flat view (ISSUE 5) — the flat<->paged storage epoch
// machinery in cow::PagedArray and the FrequencyProfile kernel dispatch.
//
// Gates, in order of importance:
//   - flat<->paged PARITY: a profile that bounces between the flat kernel
//     and the paged kernel under an adversarial interleave of
//     Add/Remove/ApplyBatch/Snapshot/snapshot-drop answers exactly like a
//     deep-copy oracle, and every historical snapshot stays frozen.
//   - re-flatten correctness: dirty-run merge-back (only the span written
//     since the fault returns home), growth consolidation, and the pin
//     witness — including the regression where a re-faulted witness page
//     retired under the watcher.
//   - the heap-allocator fallback (ASan / SPROFILE_FORCE_HEAP_PAGES):
//     flat never engages, everything else identical.
//
// The file name carries both "core" and "cow" on purpose: the ASan CI leg
// runs -R "engine|core", the TSan leg -R "engine|cow|arena" — this suite
// is the flat-epoch property gate under both sanitizers (ISSUE 5
// acceptance).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/cow_pages.h"
#include "core/frequency_profile.h"
#include "core/page_arena.h"
#include "sprofile/event.h"
#include "sprofile/obs/trace_ring.h"
#include "util/random.h"
#include "util/sync.h"

namespace sprofile {
namespace {

cow::PageAllocatorRef SmallArena() {
  return cow::MakeArenaPageAllocator(cow::ArenaOptions{
      .arena_bytes = 64 * 1024, .first_arena_bytes = 64 * 1024});
}

// ---------------------------------------------------------------------------
// PagedArray-level epoch transitions.
// ---------------------------------------------------------------------------

TEST(FlatEpochPagedArrayTest, EntersFlatAndSurvivesSnapshotCycle) {
  auto alloc = SmallArena();
  cow::PagedArray<uint64_t> a(alloc, 4096);
  a.resize(4096);
  ASSERT_TRUE(a.EnsureFlat());
  ASSERT_TRUE(a.flat());
  ASSERT_NE(a.flat_data(), nullptr);
  EXPECT_EQ(a.DisplacedPageCount(), 0u);

  // Flat writes and paged reads address the same memory.
  for (size_t i = 0; i < a.size(); ++i) a.flat_data()[i] = i * 3;
  for (size_t i = 0; i < a.size(); i += 97) ASSERT_EQ(a[i], i * 3);

  {
    const cow::PagedArray<uint64_t> snap = a;
    EXPECT_FALSE(a.flat()) << "sharing ends the exclusive epoch";
    // Post-publish writes fault to displaced standalone pages.
    a.Mutable(7) = 777;
    a.Mutable(2048) = 888;
    EXPECT_GE(a.DisplacedPageCount(), 2u);
    EXPECT_EQ(snap[7], 21u) << "snapshot stays frozen";
    // Pinned: the flat epoch cannot resume yet.
    EXPECT_FALSE(a.EnsureFlat());
  }
  // Snapshot retired: re-flatten merges the dirty runs back home.
  ASSERT_TRUE(a.EnsureFlat());
  EXPECT_EQ(a.DisplacedPageCount(), 0u);
  EXPECT_EQ(a[7], 777u);
  EXPECT_EQ(a[2048], 888u);
  for (size_t i = 0; i < a.size(); ++i) {
    if (i == 7 || i == 2048) continue;
    ASSERT_EQ(a[i], i * 3) << i;
    ASSERT_EQ(a.flat_data()[i], i * 3) << i;
  }
}

TEST(FlatEpochPagedArrayTest, FaultCopiesTrackDirtyRuns) {
  auto alloc = SmallArena();
  cow::PagedArray<uint64_t> a(alloc, 4096);
  a.resize(4096);
  ASSERT_TRUE(a.EnsureFlat());
  const size_t per_page = a.elems_per_page();

  std::optional<cow::PagedArray<uint64_t>> snap(a);
  // Two writes into a narrow span of page 2: the dirty run is the span,
  // not the page.
  const size_t base = 2 * per_page;
  a.Mutable(base + 10) = 1;
  a.Mutable(base + 13) = 2;
  const auto [lo, hi] = a.DirtyRunForTest(2);
  EXPECT_EQ(lo, 10u);
  EXPECT_EQ(hi, 13u);
  // A spread of writes covering >= half the page self-disables tracking:
  // the run widens to the whole page (re-flatten then copies it all).
  a.Mutable(base) = 3;
  a.Mutable(base + per_page - 1) = 4;
  const auto [lo2, hi2] = a.DirtyRunForTest(2);
  EXPECT_EQ(lo2, 0u);
  EXPECT_EQ(hi2, per_page - 1);

  snap.reset();
  ASSERT_TRUE(a.EnsureFlat());
  EXPECT_EQ(a[base + 10], 1u);
  EXPECT_EQ(a[base + 13], 2u);
  EXPECT_EQ(a[base], 3u);
  EXPECT_EQ(a[base + per_page - 1], 4u);
}

TEST(FlatEpochPagedArrayTest, GrowthPastRunConsolidates) {
  auto alloc = SmallArena();
  cow::PagedArray<uint32_t> a(alloc, 256);
  a.resize(256);
  ASSERT_TRUE(a.EnsureFlat());
  for (size_t i = 0; i < a.size(); ++i) a.flat_data()[i] = static_cast<uint32_t>(i);
  // Grow well past the run: appended pages are standalone, flat is lost.
  for (size_t i = 256; i < 4096; ++i) a.push_back(static_cast<uint32_t>(i));
  EXPECT_FALSE(a.flat());
  // Consolidation restores one contiguous run with headroom.
  ASSERT_TRUE(a.EnsureFlat());
  EXPECT_EQ(a.DisplacedPageCount(), 0u);
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], i) << i;
    ASSERT_EQ(a.flat_data()[i], i) << i;
  }
  // The doubled run absorbs further growth without re-consolidating.
  const uint32_t* base = a.flat_data();
  a.push_back(4096u);
  EXPECT_TRUE(a.flat());
  EXPECT_EQ(a.flat_data(), base);
}

// Regression (found by the arena torture test): the pin witness used to
// hold a raw ctrl pointer of a CURRENT standalone page; re-faulting that
// page and retiring its snapshots freed the block (and could unmap its
// arena) under the watcher, and the next probe read freed memory. The
// witness now pins a page reference for exactly this chain.
TEST(FlatEpochPagedArrayTest, WitnessSurvivesRefaultAndRetire) {
  auto alloc = SmallArena();
  cow::PagedArray<uint64_t> a(alloc, 2048);
  a.resize(2048);
  ASSERT_TRUE(a.EnsureFlat());

  auto snap1 = std::make_optional<cow::PagedArray<uint64_t>>(a);
  a.Mutable(5) = 1;                  // fault #1 -> standalone s1
  EXPECT_FALSE(a.EnsureFlat());      // witness lands on a pinned ctrl
  auto snap2 = std::make_optional<cow::PagedArray<uint64_t>>(a);  // shares s1
  a.Mutable(5) = 2;                  // re-fault -> s2, owner drops s1
  snap1.reset();
  snap2.reset();                     // s1's last ref (bar the pin) gone
  // The probe below touches the witnessed ctrl: with the pin it is alive;
  // without it this was a use-after-free (SEGV under arena reclaim).
  ASSERT_TRUE(a.EnsureFlat());
  EXPECT_EQ(a[5], 2u);
  EXPECT_EQ(a.DisplacedPageCount(), 0u);
}

// Regression (code review): a HOME witness watches a displaced page's run
// slot until its refcount drains to 0. If the array shrank, the snapshot
// died, and growth re-seated a live page into that exact slot, the
// witness froze at refs == 1 forever and every later EnsureFlat failed at
// the poll — a silent, permanent fall-back to the paged slow path.
// AppendPage now clears a witness it re-arms over.
TEST(FlatEpochPagedArrayTest, HomeWitnessClearedWhenSlotIsReused) {
  auto alloc = SmallArena();
  cow::PagedArray<uint64_t> a(alloc, 1024);
  a.resize(1024);
  ASSERT_TRUE(a.EnsureFlat());
  auto snap = std::make_optional<cow::PagedArray<uint64_t>>(a);
  // Displace every page: all current pages exclusive, all home slots
  // still pinned by the snapshot -> EnsureFlat arms a HOME witness.
  for (size_t i = 0; i < a.size(); i += a.elems_per_page()) a.Mutable(i) = 1;
  EXPECT_FALSE(a.EnsureFlat());
  a.resize(0);   // drop every displaced page
  snap.reset();  // home slots drain to refs == 0
  a.resize(1024);  // growth re-seats live pages into the watched slots
  EXPECT_TRUE(a.EnsureFlat())
      << "stale home witness must not wedge the flat epoch";
  EXPECT_TRUE(a.flat());
}

// Regression (code review): a snapshot holding the LAST reference to a
// page that still lives in the owner's home run used to write it in
// place (refs == 1 looked exclusive). But that slot is the owner's
// re-flatten merge TARGET: pass 2 assumes it holds the page's content as
// of the owner's fault and copies only the dirty run over it, so the
// snapshot's writes outside that span surfaced in the owner's array
// after the snapshot died — silent corruption, and writable snapshots
// are documented API. A borrowed home-run page must COW-fault instead.
TEST(FlatEpochPagedArrayTest, SnapshotWriteToBorrowedHomePageDoesNotCorruptOwner) {
  auto alloc = SmallArena();
  cow::PagedArray<uint64_t> a(alloc, 2048);
  a.resize(2048);
  ASSERT_TRUE(a.EnsureFlat());
  for (size_t i = 0; i < a.size(); ++i) a.flat_data()[i] = i;
  const size_t per_page = a.elems_per_page();
  const size_t base = per_page;  // page 1

  auto snap = std::make_optional<cow::PagedArray<uint64_t>>(a);
  // Owner writes first: faults page 1 to a dirty-tracked standalone copy
  // and drops its home reference — the home slot's last ref is now the
  // snapshot's.
  a.Mutable(base + 3) = 111;
  // Snapshot writes the SAME page, inside and outside the owner's dirty
  // run. refs == 1, but the payload is the owner's home-run slot: the
  // write must copy out, never land in place.
  (*snap).Mutable(base + 7) = 222;
  (*snap).Mutable(base + 3) = 333;
  EXPECT_EQ((*snap)[base + 3], 333u);
  EXPECT_EQ((*snap)[base + 7], 222u);
  EXPECT_EQ(a[base + 3], 111u);
  EXPECT_EQ(a[base + 7], base + 7) << "owner must not see snapshot writes";

  snap.reset();
  // Owner re-flattens: only its dirty run [3, 3] merges back home. With
  // the bug, the home slot still carried the snapshot's write at +7.
  ASSERT_TRUE(a.EnsureFlat());
  // Deep-copy oracle: the owner's array is its pre-snapshot content plus
  // its own single write.
  for (size_t i = 0; i < a.size(); ++i) {
    const uint64_t want = (i == base + 3) ? 111u : i;
    ASSERT_EQ(a[i], want) << i;
    ASSERT_EQ(a.flat_data()[i], want) << i;
  }
}

// Regression (code review): outgrew_run_ stayed sticky after resize()
// shrank the array back under the run, so the next EnsureFlat paid a
// full consolidation (fresh doubled run, every page copied) instead of
// the cheap in-place repair.
TEST(FlatEpochPagedArrayTest, ShrinkBackIntoRunRepairsInPlace) {
  auto alloc = SmallArena();
  cow::PagedArray<uint64_t> a(alloc, 1024);
  a.resize(1024);
  ASSERT_TRUE(a.EnsureFlat());
  for (size_t i = 0; i < a.size(); ++i) a.flat_data()[i] = i;
  const uint64_t* run_base = a.flat_data();

  a.resize(4096);  // grow past the run: overflow pages are standalone
  EXPECT_FALSE(a.flat());
  a.resize(1024);  // ... and shrink back under it
  ASSERT_TRUE(a.EnsureFlat());
  EXPECT_EQ(a.flat_data(), run_base)
      << "shrinking back under the run must repair in place, not "
         "consolidate into a new run";
  for (size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], i) << i;
}

// Regression (code review): EnsureFlat's empty-array early return used to
// skip witness cleanup. A witness armed while pages were shared, followed
// by resize(0), left its pinned page block (and potentially that block's
// whole arena) alive for the rest of the array's life — with flat_ true
// the stale pin was never polled again.
TEST(FlatEpochPagedArrayTest, EnsureFlatOnEmptiedArrayReleasesWitnessPin) {
  auto alloc = SmallArena();
  cow::PagedArray<uint64_t> a(alloc, 1024);
  a.resize(1024);
  ASSERT_TRUE(a.EnsureFlat());
  auto snap1 = std::make_optional<cow::PagedArray<uint64_t>>(a);
  a.Mutable(0) = 1;  // fault page 0 -> standalone copy
  auto snap2 = std::make_optional<cow::PagedArray<uint64_t>>(a);
  EXPECT_FALSE(a.EnsureFlat());  // witness pins the shared standalone ctrl
  snap2.reset();
  a.resize(0);
  snap1.reset();
  ASSERT_TRUE(a.EnsureFlat());  // empty: must release the stale pin
  // Only the anchored home-run block may remain live; with the leak the
  // pinned standalone page block survived too.
  EXPECT_EQ(alloc->Stats().pages_live(), 1u);
}

// Regression (the PR 6 Release-only flake in
// ArenaReclaimTortureTest.ConcurrentSnapshotDropsReclaimSafely,
// pages_live 15 vs 14): a PINNED page witness armed on a shared
// standalone page inflates that block's refcount by one. When the owner
// later faults the page away, the pin used to stay armed — and the only
// thing that ever drops a pin is a future EnsureFlat poll, which a
// quiescent array never runs. Once the snapshots died, the pin alone
// kept the orphaned block (and potentially its whole arena) alive for
// the array's lifetime. EnsureWritable/FaultPage/resize now lift the pin
// before the watched block leaves the page table. The lifecycle trace
// ring (obs/trace_ring.h) is what made the leak's event order visible
// without a Release debugger: fault(0) -> witness pin -> fault(0) again
// with no intervening re-flatten poll.
TEST(FlatEpochPagedArrayTest, WitnessPinReleasedWhenWatchedPageFaultsAway) {
  auto alloc = SmallArena();
  obs::TraceRing ring(64);
  obs::ScopedTraceRing scope(&ring, /*shard=*/7);

  cow::PagedArray<uint64_t> a(alloc, 1024);
  a.resize(1024);
  ASSERT_TRUE(a.EnsureFlat());

  auto snap1 = std::make_optional<cow::PagedArray<uint64_t>>(a);
  a.Mutable(0) = 1;  // fault #1: page 0 -> standalone block s1
  // snap2 shares s1, so the next probe finds page 0 at refs == 2 and
  // arms the PINNED page witness on s1 (refs -> 3).
  auto snap2 = std::make_optional<cow::PagedArray<uint64_t>>(a);
  EXPECT_FALSE(a.EnsureFlat());
  // fault #2: the owner writes the watched page again. The pin must lift
  // here — after this, s1 is out of the table and no poll will ever run.
  a.Mutable(0) = 2;
  snap1.reset();
  snap2.reset();  // s1's last snapshot reference gone

  // No EnsureFlat between the re-fault and this check, on purpose: the
  // leak only showed on arrays that went quiescent. Live blocks must be
  // exactly the anchored home run + the current standalone page 0; with
  // the stale pin, s1 survived as a third.
  EXPECT_EQ(alloc->Stats().pages_live(), 2u)
      << "stale witness pin leaked the faulted-away block";
  EXPECT_EQ(a[0], 2u);

  // The trace ring saw both faults of page 0, tagged with our scope id.
  int faults_page0 = 0;
  for (const obs::TraceRecord& r : ring.Dump()) {
    if (r.event == obs::TraceEvent::kCowFault && r.arg == 0) {
      EXPECT_EQ(r.shard, 7u);
      ++faults_page0;
    }
  }
  EXPECT_EQ(faults_page0, 2);

  // And the epoch is still reachable afterwards.
  ASSERT_TRUE(a.EnsureFlat());
  EXPECT_EQ(alloc->Stats().pages_live(), 1u);
  EXPECT_EQ(a[0], 2u);
}

TEST(FlatEpochPagedArrayTest, HeapAllocatorNeverFlat) {
  // Satellite: the HeapPageAllocator path (ASan builds,
  // SPROFILE_FORCE_HEAP_PAGES) must keep the flat view disabled and
  // behave identically otherwise.
  auto alloc = std::make_shared<cow::HeapPageAllocator>();
  cow::PagedArray<uint64_t> a(alloc, 2048);
  a.resize(2048);
  EXPECT_FALSE(alloc->SupportsRuns());
  EXPECT_FALSE(a.EnsureFlat());
  EXPECT_FALSE(a.flat());
  for (size_t i = 0; i < a.size(); ++i) a.Mutable(i) = i;
  const cow::PagedArray<uint64_t> snap = a;
  a.Mutable(3) = 999;
  EXPECT_EQ(snap[3], 3u);
  EXPECT_EQ(a[3], 999u);
  EXPECT_FALSE(a.EnsureFlat());
}

// ---------------------------------------------------------------------------
// FrequencyProfile-level property test: adversarial interleave of
// updates, batches, snapshots, snapshot drops, and re-flatten probes,
// checked against a deep-copy oracle. Runs on both allocators — the
// arena engages the flat kernel, the heap pins the paged fallback.
// ---------------------------------------------------------------------------

struct HeldSnapshot {
  FrequencyProfile snap;
  std::vector<int64_t> expected;
};

void RunEpochInterleave(cow::PageAllocatorRef alloc, bool expect_flat_possible,
                        uint64_t seed) {
  constexpr uint32_t kM = 1500;
  constexpr int kOps = 30000;
  FrequencyProfile p(kM, std::move(alloc));
  FrequencyProfile oracle(kM, std::make_shared<cow::HeapPageAllocator>());
  Xoshiro256PlusPlus rng(seed);
  std::deque<HeldSnapshot> held;
  uint64_t flat_seen = 0;
  uint64_t total_updates = 0;

  for (int i = 0; i < kOps; ++i) {
    switch (rng.NextBounded(100)) {
      case 0: {  // take a snapshot and remember the exact expected state
        held.push_back(HeldSnapshot{p.Snapshot(), p.ToFrequencies()});
        EXPECT_FALSE(p.storage_flat()) << "snapshot must end the flat epoch";
        break;
      }
      case 1: {  // drop the oldest snapshot, verifying it stayed frozen
        if (!held.empty()) {
          EXPECT_EQ(held.front().snap.ToFrequencies(), held.front().expected);
          held.pop_front();
        }
        break;
      }
      case 2: {  // explicit re-flatten probe (the engine's idle hook)
        p.TryReflatten();
        break;
      }
      case 3:
      case 4: {  // write THROUGH a held snapshot (documented API): the
        // snapshot may hold the last reference to a page still sitting in
        // the parent's home run — its write must COW out, never land in
        // the parent's merge target (the borrowed-home-page regression).
        if (!held.empty()) {
          HeldSnapshot& h = held.back();
          const uint32_t id = rng.NextBounded(kM);
          h.snap.Add(id);
          h.expected[id] += 1;
        }
        break;
      }
      case 5: {  // a batch with duplicate ids
        std::vector<Event> batch;
        const uint32_t n = 1 + rng.NextBounded(12);
        for (uint32_t k = 0; k < n; ++k) {
          const uint32_t id = rng.NextBounded(kM);
          const int32_t delta = rng.NextBounded(2) == 0 ? 1 : -1;
          batch.push_back(Event{id, delta});
          if (delta > 0) {
            oracle.Add(id);
          } else {
            oracle.Remove(id);
          }
        }
        p.ApplyBatch(batch);
        total_updates += n;
        break;
      }
      default: {  // plain +/-1 update
        const uint32_t id = rng.NextBounded(kM);
        if (rng.NextBounded(2) == 0) {
          p.Add(id);
          oracle.Add(id);
        } else {
          p.Remove(id);
          oracle.Remove(id);
        }
        ++total_updates;
        break;
      }
    }
    if (p.storage_flat()) ++flat_seen;
    if (i % 4096 == 0) {
      ASSERT_TRUE(p.Validate().ok()) << p.Validate().message();
      ASSERT_EQ(p.ToFrequencies(), oracle.ToFrequencies()) << "op " << i;
    }
  }

  for (const HeldSnapshot& h : held) {
    EXPECT_EQ(h.snap.ToFrequencies(), h.expected);
  }
  held.clear();

  ASSERT_TRUE(p.Validate().ok()) << p.Validate().message();
  EXPECT_EQ(p.ToFrequencies(), oracle.ToFrequencies());
  EXPECT_EQ(p.Histogram(), oracle.Histogram());
  EXPECT_EQ(p.total_count(), oracle.total_count());

  // Every event is one +/-1 step; some of them ran on the flat kernel.
  EXPECT_LE(p.paged_updates(), total_updates);
  if (expect_flat_possible) {
    EXPECT_GT(flat_seen, 0u) << "flat epoch never observed";
    // With every snapshot gone the flat epoch must be reachable, and the
    // answers identical across the final transition.
    EXPECT_TRUE(p.TryReflatten());
    EXPECT_EQ(p.ToFrequencies(), oracle.ToFrequencies());
  } else {
    EXPECT_EQ(flat_seen, 0u) << "heap pages must never go flat";
    EXPECT_FALSE(p.TryReflatten());
  }
  ASSERT_TRUE(p.Validate().ok()) << p.Validate().message();
}

TEST(FlatEpochProfilePropertyTest, ArenaInterleaveMatchesOracle) {
  RunEpochInterleave(SmallArena(), /*expect_flat_possible=*/true, 20260730);
  RunEpochInterleave(SmallArena(), /*expect_flat_possible=*/true, 99417);
}

TEST(FlatEpochProfilePropertyTest, HeapInterleaveMatchesOracle) {
  RunEpochInterleave(std::make_shared<cow::HeapPageAllocator>(),
                     /*expect_flat_possible=*/false, 20260730);
}

TEST(FlatEpochProfilePropertyTest, PeelAndInsertInterleaveStaysConsistent) {
  // Structural ops (PeelMin / InsertSlot) drop the flat epoch; growth past
  // the runs must consolidate back to flat without corrupting the
  // structure. KeyedProfile-style growth is InsertSlot-heavy.
  FrequencyProfile p(64, SmallArena());
  Xoshiro256PlusPlus rng(7);
  uint32_t m = 64;
  for (int i = 0; i < 8000; ++i) {
    const uint32_t r = rng.NextBounded(100);
    if (r < 3) {
      m = p.capacity();
      ASSERT_EQ(p.InsertSlot(), m);
      m = p.capacity();
    } else if (r < 5 && p.num_active() > 1) {
      p.PeelMin();
    } else if (r == 5) {
      p.TryReflatten();
    } else {
      uint32_t id = rng.NextBounded(m);
      int guard = 0;
      while (p.IsFrozen(id) && guard++ < 64) id = rng.NextBounded(m);
      if (p.IsFrozen(id)) continue;
      if (rng.NextBounded(2) == 0) {
        p.Add(id);
      } else {
        p.Remove(id);
      }
    }
    if (i % 1024 == 0) {
      ASSERT_TRUE(p.Validate().ok()) << p.Validate().message();
    }
  }
  ASSERT_TRUE(p.Validate().ok()) << p.Validate().message();
  EXPECT_TRUE(p.TryReflatten());
  ASSERT_TRUE(p.Validate().ok()) << p.Validate().message();
}

// ---------------------------------------------------------------------------
// The TSan shape: readers grab, hold, and drop snapshots concurrently
// while the owner churns and keeps probing the flat epoch. Exercises the
// witness pin, dirty-run merge-back, and home-slot reuse against
// concurrent reader-side page releases.
// ---------------------------------------------------------------------------

TEST(FlatEpochConcurrentTest, ReflattenRacesSnapshotDrops) {
  constexpr uint32_t kM = 2048;
  constexpr int kRounds = 150;
  constexpr int kReaders = 3;
  FrequencyProfile p(kM, SmallArena());

  sprofile::Mutex mu;
  std::shared_ptr<const FrequencyProfile> published;
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      uint64_t acc = 0;
      while (!stop.load(std::memory_order_acquire)) {
        std::shared_ptr<const FrequencyProfile> snap;
        {
          sprofile::MutexLock lock(mu);
          snap = published;
        }
        if (snap == nullptr) continue;
        int64_t sum = 0;
        for (uint32_t id = 0; id < kM; id += 13) sum += snap->Frequency(id);
        acc += static_cast<uint64_t>(sum);
        snap.reset();  // reader-side drop races the owner's re-flatten
      }
      (void)acc;
    });
  }

  Xoshiro256PlusPlus rng(123);
  for (int r = 0; r < kRounds; ++r) {
    for (int i = 0; i < 768; ++i) {
      const uint32_t id = rng.NextBounded(kM);
      if (rng.NextBounded(2) == 0) {
        p.Add(id);
      } else {
        p.Remove(id);
      }
    }
    p.TryReflatten();  // often blocked by `published`; witness-polled
    auto snap = std::make_shared<const FrequencyProfile>(p.Snapshot());
    {
      sprofile::MutexLock lock(mu);
      published = std::move(snap);
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  {
    sprofile::MutexLock lock(mu);
    published.reset();
  }
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_TRUE(p.TryReflatten());
  EXPECT_TRUE(p.Validate().ok());
}

}  // namespace
}  // namespace sprofile
