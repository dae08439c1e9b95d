// Randomized differential tests: every S-Profile answer is diffed against
// the NaiveProfiler oracle while replaying synthetic log streams drawn from
// the paper's three distribution presets (and a Zipf extension), in both
// removal policies. The profile's structural invariants are re-validated
// throughout.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/naive_profiler.h"
#include "core/frequency_profile.h"
#include "core/page_arena.h"
#include "stream/log_stream.h"
#include "util/random.h"

namespace sprofile {
namespace {

using baselines::NaiveProfiler;
using stream::LogStreamGenerator;
using stream::LogTuple;
using stream::MakePaperStreamConfig;
using stream::RemovalPolicy;

struct PropertyCase {
  int paper_stream;  // 1, 2, 3
  uint32_t m;
  uint64_t n;
  RemovalPolicy policy;
  uint64_t seed;
};

std::string CaseName(const testing::TestParamInfo<PropertyCase>& info) {
  const PropertyCase& c = info.param;
  return "stream" + std::to_string(c.paper_stream) + "_m" + std::to_string(c.m) +
         "_n" + std::to_string(c.n) +
         (c.policy == RemovalPolicy::kUnchecked ? "_unchecked" : "_consistent") +
         "_seed" + std::to_string(c.seed);
}

class ProfilePropertyTest : public testing::TestWithParam<PropertyCase> {};

std::vector<uint32_t> SortedIds(const GroupView& view) {
  std::vector<uint32_t> ids = view.ToVector();
  std::sort(ids.begin(), ids.end());
  return ids;
}

void ExpectProfileMatchesOracle(const FrequencyProfile& p, const NaiveProfiler& o) {
  ASSERT_TRUE(p.Validate().ok()) << p.Validate().ToString();

  // Point queries.
  for (uint32_t id = 0; id < o.capacity(); ++id) {
    ASSERT_EQ(p.Frequency(id), o.Frequency(id)) << "id " << id;
  }
  EXPECT_EQ(p.total_count(), o.total_count());

  // Extremes, with full tie groups.
  EXPECT_EQ(p.Mode().frequency, o.ModeFrequency());
  EXPECT_EQ(SortedIds(p.Mode()), o.ModeIds());
  EXPECT_EQ(p.MinFrequent().frequency, o.MinFrequency());
  EXPECT_EQ(SortedIds(p.MinFrequent()), o.MinIds());

  // Order statistics at a spread of ranks.
  const uint32_t m = o.capacity();
  for (uint64_t k : {uint64_t{1}, uint64_t{2}, uint64_t{(m + 1) / 2}, uint64_t{m}}) {
    if (k < 1 || k > m) continue;
    EXPECT_EQ(p.KthSmallest(k).frequency, o.KthSmallest(k)) << "k=" << k;
    EXPECT_EQ(p.KthLargest(k).frequency, o.KthLargest(k)) << "k=" << k;
  }
  EXPECT_EQ(p.MedianEntry().frequency, o.MedianFrequency());

  // Counting queries across the observed frequency range.
  const int64_t lo = o.MinFrequency();
  const int64_t hi = o.ModeFrequency();
  for (int64_t f : {lo - 1, lo, (lo + hi) / 2, hi, hi + 1}) {
    EXPECT_EQ(p.CountAtLeast(f), o.CountAtLeast(f)) << "f=" << f;
    EXPECT_EQ(p.CountEqual(f), o.CountEqual(f)) << "f=" << f;
  }

  // Full histogram.
  EXPECT_EQ(p.Histogram(), o.Histogram());

  // Top-k boundary agreement (frequencies only; ids may tie arbitrarily).
  std::vector<FrequencyEntry> top;
  const uint32_t k = std::min<uint32_t>(10, m);
  p.TopK(k, &top);
  const std::vector<int64_t> oracle_top = o.TopKFrequencies(k);
  ASSERT_EQ(top.size(), oracle_top.size());
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].frequency, oracle_top[i]) << "top position " << i;
  }
}

TEST_P(ProfilePropertyTest, MatchesOracleThroughoutStream) {
  const PropertyCase& c = GetParam();
  LogStreamGenerator gen(
      MakePaperStreamConfig(c.paper_stream, c.m, c.seed, c.policy));

  FrequencyProfile profile(c.m);
  NaiveProfiler oracle(c.m);

  const uint64_t check_every = std::max<uint64_t>(1, c.n / 16);
  for (uint64_t i = 0; i < c.n; ++i) {
    const LogTuple t = gen.Next();
    profile.Apply(t.id, t.is_add);
    oracle.Apply(t.id, t.is_add);
    if ((i + 1) % check_every == 0) {
      ExpectProfileMatchesOracle(profile, oracle);
      if (HasFatalFailure()) return;
    }
  }
  ExpectProfileMatchesOracle(profile, oracle);
}

INSTANTIATE_TEST_SUITE_P(
    PaperStreams, ProfilePropertyTest,
    testing::Values(
        PropertyCase{1, 64, 4000, RemovalPolicy::kUnchecked, 1},
        PropertyCase{1, 64, 4000, RemovalPolicy::kMultisetConsistent, 2},
        PropertyCase{2, 128, 6000, RemovalPolicy::kUnchecked, 3},
        PropertyCase{2, 128, 6000, RemovalPolicy::kMultisetConsistent, 4},
        PropertyCase{3, 256, 8000, RemovalPolicy::kUnchecked, 5},
        PropertyCase{3, 256, 8000, RemovalPolicy::kMultisetConsistent, 6},
        PropertyCase{1, 1, 500, RemovalPolicy::kUnchecked, 7},
        PropertyCase{2, 2, 500, RemovalPolicy::kUnchecked, 8},
        PropertyCase{1, 1000, 20000, RemovalPolicy::kUnchecked, 9},
        PropertyCase{3, 1000, 20000, RemovalPolicy::kMultisetConsistent, 10}),
    CaseName);

// ---------------------------------------------------------------------
// Exhaustive small-case sweep (ISSUE 3): EVERY update sequence of length
// <= 6 drawn from {Add(id), Remove(id) : id < m} for every m <= 4 is
// checked against the naive oracle after every single update. ~340k
// sequences; this is the total oracle that pins COW refactors of the core
// storage — any divergence the randomized streams could miss in a small
// neighborhood is caught here by construction.
// ---------------------------------------------------------------------

void ExpectSequenceMatchesOracle(uint32_t m, const std::vector<int32_t>& ops) {
  FrequencyProfile p(m);
  NaiveProfiler o(m);
  for (const int32_t op : ops) {
    const uint32_t id = static_cast<uint32_t>(op < 0 ? -op - 1 : op - 1);
    if (op > 0) {
      p.Add(id);
      o.Add(id);
    } else {
      p.Remove(id);
      o.Remove(id);
    }
  }
  // Full surface, not just the final structural check.
  ASSERT_TRUE(p.Validate().ok()) << p.Validate().ToString();
  ASSERT_EQ(p.total_count(), o.total_count());
  for (uint32_t id = 0; id < m; ++id) {
    ASSERT_EQ(p.Frequency(id), o.Frequency(id)) << "id " << id;
  }
  ASSERT_EQ(p.Mode().frequency, o.ModeFrequency());
  ASSERT_EQ(SortedIds(p.Mode()), o.ModeIds());
  ASSERT_EQ(p.MinFrequent().frequency, o.MinFrequency());
  ASSERT_EQ(SortedIds(p.MinFrequent()), o.MinIds());
  ASSERT_EQ(p.Histogram(), o.Histogram());
  for (uint64_t k = 1; k <= m; ++k) {
    ASSERT_EQ(p.KthSmallest(k).frequency, o.KthSmallest(k)) << "k " << k;
  }
  const int64_t lo = o.MinFrequency();
  const int64_t hi = o.ModeFrequency();
  for (int64_t f = lo - 1; f <= hi + 1; ++f) {
    ASSERT_EQ(p.CountAtLeast(f), o.CountAtLeast(f)) << "f " << f;
    ASSERT_EQ(p.CountEqual(f), o.CountEqual(f)) << "f " << f;
  }
}

/// DFS over all op sequences. An op is encoded as +id-1 (Add) or -id-1
/// (Remove); each PREFIX is itself a checked sequence, so the sweep
/// verifies the profile after every single update of every sequence.
void SweepSequences(uint32_t m, uint32_t max_len, std::vector<int32_t>* ops) {
  ExpectSequenceMatchesOracle(m, *ops);
  if (testing::Test::HasFatalFailure()) return;
  if (ops->size() == max_len) return;
  for (uint32_t id = 0; id < m; ++id) {
    for (const int32_t op : {static_cast<int32_t>(id + 1),
                             -static_cast<int32_t>(id + 1)}) {
      ops->push_back(op);
      SweepSequences(m, max_len, ops);
      ops->pop_back();
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ProfileExhaustiveSweepTest, AllArraysUpToN6M4MatchOracleAtEveryStep) {
  // (2m)^6 leaf sequences at m=4 — ~360k checked prefixes overall.
  for (uint32_t m = 1; m <= 4; ++m) {
    std::vector<int32_t> ops;
    SweepSequences(m, /*max_len=*/6, &ops);
    ASSERT_FALSE(HasFatalFailure()) << "m=" << m;
  }
}

// Adversarial micro-pattern: hammer a single hot object up and down so
// blocks are created and destroyed at the boundary every step.
TEST(ProfileAdversarialTest, HotObjectSawtooth) {
  constexpr uint32_t kM = 16;
  FrequencyProfile p(kM);
  NaiveProfiler o(kM);
  for (int round = 0; round < 200; ++round) {
    const uint32_t id = round % 3;
    for (int i = 0; i < 10; ++i) {
      p.Add(id);
      o.Add(id);
    }
    for (int i = 0; i < 10; ++i) {
      p.Remove(id);
      o.Remove(id);
    }
    ASSERT_TRUE(p.Validate().ok());
    ASSERT_EQ(p.Mode().frequency, o.ModeFrequency());
  }
}

// All objects march up together: the single block must persist and stay
// maximal (no fragmentation).
TEST(ProfileAdversarialTest, LockstepMarchKeepsOneBlock) {
  constexpr uint32_t kM = 32;
  FrequencyProfile p(kM);
  for (int level = 0; level < 50; ++level) {
    for (uint32_t id = 0; id < kM; ++id) p.Add(id);
    ASSERT_EQ(p.num_blocks(), 1u) << "level " << level;
    ASSERT_TRUE(p.Validate().ok());
  }
  EXPECT_EQ(p.Mode().frequency, 50);
  EXPECT_EQ(p.MinFrequent().frequency, 50);
}

// Staircase: object i ends at frequency i; maximal block fragmentation
// (m blocks), every one a singleton.
TEST(ProfileAdversarialTest, StaircaseMaximizesBlocks) {
  constexpr uint32_t kM = 64;
  FrequencyProfile p(kM);
  for (uint32_t id = 0; id < kM; ++id) {
    for (uint32_t i = 0; i < id; ++i) p.Add(id);
  }
  EXPECT_EQ(p.num_blocks(), kM);
  ASSERT_TRUE(p.Validate().ok());
  for (uint64_t k = 1; k <= kM; ++k) {
    EXPECT_EQ(p.KthSmallest(k).frequency, static_cast<int64_t>(k - 1));
  }
}

// Deep negative excursions and recovery.
TEST(ProfileAdversarialTest, NegativeExcursions) {
  constexpr uint32_t kM = 8;
  FrequencyProfile p(kM);
  NaiveProfiler o(kM);
  for (uint32_t id = 0; id < kM; ++id) {
    for (uint32_t i = 0; i < 20 + id; ++i) {
      p.Remove(id);
      o.Remove(id);
    }
  }
  ASSERT_TRUE(p.Validate().ok());
  EXPECT_EQ(p.MinFrequent().frequency, o.MinFrequency());
  EXPECT_EQ(p.Histogram(), o.Histogram());
  for (uint32_t id = 0; id < kM; ++id) {
    for (int i = 0; i < 30; ++i) {
      p.Add(id);
      o.Add(id);
    }
  }
  ASSERT_TRUE(p.Validate().ok());
  EXPECT_EQ(p.Histogram(), o.Histogram());
}

// FromFrequencies (counting placement or its sort fallback) against the
// stable-sort definition of the rank order: ties keep id order. `alloc`
// null takes the default (heap pages at these sizes, the Mutable() writes);
// an arena takes the flat raw-pointer writes.
void ExpectMatchesStableSort(const std::vector<int64_t>& freqs,
                             cow::PageAllocatorRef alloc) {
  SCOPED_TRACE("m=" + std::to_string(freqs.size()) +
               (alloc == nullptr ? " default pages" : " arena pages"));
  const uint32_t m = static_cast<uint32_t>(freqs.size());
  std::vector<uint32_t> order(m);
  for (uint32_t id = 0; id < m; ++id) order[id] = id;
  std::stable_sort(order.begin(), order.end(),
                   [&](uint32_t a, uint32_t b) { return freqs[a] < freqs[b]; });
  int64_t total = 0;
  for (const int64_t f : freqs) total += f;

  const FrequencyProfile p = FrequencyProfile::FromFrequencies(freqs, alloc);
  ASSERT_TRUE(p.Validate().ok()) << p.Validate().ToString();
  for (uint32_t r = 0; r < m; ++r) ASSERT_EQ(p.IdAtRank(r), order[r]) << "rank " << r;
  EXPECT_EQ(p.ToFrequencies(), freqs);
  EXPECT_EQ(p.total_count(), total);

  const int64_t max = freqs[order[m - 1]];
  std::vector<uint32_t> modes;
  for (uint32_t id = 0; id < m; ++id) {
    if (freqs[id] == max) modes.push_back(id);
  }
  EXPECT_EQ(p.Mode().frequency, max);
  EXPECT_EQ(SortedIds(p.Mode()), modes);
  const uint32_t lower = (m - 1) / 2, upper = m / 2;
  EXPECT_EQ(p.MedianEntry(), (FrequencyEntry{order[lower], freqs[order[lower]]}));
  EXPECT_EQ(p.UpperMedianEntry(),
            (FrequencyEntry{order[upper], freqs[order[upper]]}));
}

std::vector<int64_t> RandomFrequencies(uint32_t m, int64_t lo, int64_t hi,
                                       uint64_t seed) {
  Xoshiro256PlusPlus rng(seed);
  std::vector<int64_t> freqs(m);
  for (int64_t& f : freqs) {
    f = lo + static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(hi - lo) + 1));
  }
  return freqs;
}

TEST(FromFrequenciesPlacementTest, MatchesStableSortReference) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // The path boundary: a permutation of 0..99 spans m - 1 (counting);
  // lifting one value to 100 spans m (sort fallback).
  std::vector<int64_t> span_m_minus_1(100);
  for (uint32_t id = 0; id < 100; ++id) span_m_minus_1[id] = (id * 37) % 100;
  std::vector<int64_t> span_m = span_m_minus_1;
  span_m[1] = 100;
  const std::vector<std::vector<int64_t>> cases = {
      RandomFrequencies(1000, 0, 23, 1),         // narrow range: counting
      RandomFrequencies(1000, 0, 1'000'000, 2),  // range >= m: sort fallback
      RandomFrequencies(500, -200, 100, 3),      // negatives, counting
      RandomFrequencies(500, -100'000, 50, 4),   // negatives, fallback
      span_m_minus_1,
      span_m,
      std::vector<int64_t>(257, 7),              // all equal
      std::vector<int64_t>(64, -3),
      {42},                                      // m = 1
      {kMin},
      {kMax},
      {kMin, 0, kMax},                           // range overflows int64
      {kMax, 0, kMin, kMax, kMin},
  };
  for (const std::vector<int64_t>& freqs : cases) {
    ExpectMatchesStableSort(freqs, nullptr);
    ExpectMatchesStableSort(freqs, cow::MakeArenaPageAllocator());
  }
}

}  // namespace
}  // namespace sprofile
