// Cross-implementation parity, written ONCE against the Profiler concept
// and instantiated per backend — the facade replacement for the seed's
// hand-written per-backend harness (formerly baselines_parity_test.cc).
//
// Every backend replays the paper's streams next to the NaiveProfiler
// oracle and must agree on every statistic its concept tier advertises:
// Profiler backends on mode/frequency/total_count, RankedProfiler also on
// order statistics, HistogramProfiler also on aggregate range queries.
// ApplyBatch must be observationally identical to looped Apply.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sprofile/sprofile.h"
#include "stream/log_stream.h"

namespace sprofile {
namespace {

template <typename P>
class ConceptParityTest : public testing::Test {};

using Backends = testing::Types<adapters::SProfile, adapters::Keyed,
                                adapters::Naive, adapters::Heap,
                                adapters::Tree, adapters::Skiplist
#if SPROFILE_HAVE_PBDS
                                ,
                                adapters::Pbds
#endif
                                >;

class BackendNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<T, adapters::SProfile>) return "SProfile";
    else if constexpr (std::is_same_v<T, adapters::Keyed>) return "Keyed";
    else if constexpr (std::is_same_v<T, adapters::Naive>) return "Naive";
    else if constexpr (std::is_same_v<T, adapters::Heap>) return "Heap";
    else if constexpr (std::is_same_v<T, adapters::Tree>) return "Tree";
    else if constexpr (std::is_same_v<T, adapters::Skiplist>) return "Skiplist";
#if SPROFILE_HAVE_PBDS
    else if constexpr (std::is_same_v<T, adapters::Pbds>) return "Pbds";
#endif
    // New adapters appended to Backends get a usable (if generic) suite
    // name until they are added above; gtest still requires uniqueness, so
    // name the second one.
    else return "UnnamedBackend";
  }
};

TYPED_TEST_SUITE(ConceptParityTest, Backends, BackendNames);

// Compares every statistic the backend's concept tier advertises against
// the oracle. `tag` labels the failure site.
template <typename P>
void ExpectAgreesWithOracle(const P& profiler, const adapters::Naive& oracle,
                            const std::string& tag) {
  const uint32_t m = oracle.capacity();
  ASSERT_EQ(profiler.capacity(), m) << tag;
  ASSERT_EQ(profiler.total_count(), oracle.total_count()) << tag;
  ASSERT_EQ(profiler.Mode(), oracle.Mode()) << tag;
  for (uint32_t id = 0; id < m; id += 7) {
    ASSERT_EQ(profiler.Frequency(id), oracle.Frequency(id))
        << tag << " id=" << id;
  }

  if constexpr (RankedProfiler<P>) {
    ASSERT_EQ(profiler.Median(), oracle.Median()) << tag;
    for (uint64_t k : {uint64_t{1}, uint64_t{2}, uint64_t{5}, uint64_t{m}}) {
      ASSERT_EQ(profiler.KthLargest(k), oracle.KthLargest(k))
          << tag << " k=" << k;
      ASSERT_EQ(profiler.KthSmallest(k), oracle.KthSmallest(k))
          << tag << " k=" << k;
    }
    for (double q : {0.0, 0.25, 0.5, 0.9, 1.0}) {
      ASSERT_EQ(profiler.Quantile(q), oracle.Quantile(q)) << tag << " q=" << q;
    }
  }

  if constexpr (HistogramProfiler<P>) {
    ASSERT_EQ(profiler.Histogram(), oracle.Histogram()) << tag;
    ASSERT_EQ(profiler.TopK(7), oracle.TopK(7)) << tag;
    for (int64_t f : {int64_t{-2}, int64_t{0}, int64_t{1}, int64_t{3}}) {
      ASSERT_EQ(profiler.CountAtLeast(f), oracle.CountAtLeast(f))
          << tag << " f=" << f;
      ASSERT_EQ(profiler.CountEqual(f), oracle.CountEqual(f))
          << tag << " f=" << f;
    }
  }
}

TYPED_TEST(ConceptParityTest, ModelsProfilerConcept) {
  static_assert(Profiler<TypeParam>);
  // The applicability boundaries are part of the contract: the heap cannot
  // answer order statistics, everything else here can.
  if constexpr (std::is_same_v<TypeParam, adapters::Heap>) {
    static_assert(!RankedProfiler<TypeParam>);
  } else {
    static_assert(RankedProfiler<TypeParam>);
  }
}

TYPED_TEST(ConceptParityTest, AgreesWithOracleOnPaperStreams) {
  for (int which : {1, 2, 3}) {
    const uint32_t m = 64;
    const uint64_t n = 4000;
    stream::LogStreamGenerator gen(
        stream::MakePaperStreamConfig(which, m, 900 + which));

    TypeParam profiler(m);
    adapters::Naive oracle(m);
    for (uint64_t i = 0; i < n; ++i) {
      const stream::LogTuple t = gen.Next();
      profiler.Apply(t.id, t.is_add);
      oracle.Apply(t.id, t.is_add);
      if ((i + 1) % 200 == 0) {
        ExpectAgreesWithOracle(profiler, oracle,
                               "stream" + std::to_string(which) + " event " +
                                   std::to_string(i));
        if (this->HasFatalFailure()) return;
      }
    }
  }
}

TYPED_TEST(ConceptParityTest, AgreesWithOracleOnWideIdSpace) {
  // The seed's largest parity case: m = 500, n = 10000, stream 2.
  const uint32_t m = 500;
  const uint64_t n = 10000;
  stream::LogStreamGenerator gen(stream::MakePaperStreamConfig(2, m, 105));

  TypeParam profiler(m);
  adapters::Naive oracle(m);
  for (uint64_t i = 0; i < n; ++i) {
    const stream::LogTuple t = gen.Next();
    profiler.Apply(t.id, t.is_add);
    oracle.Apply(t.id, t.is_add);
    if ((i + 1) % 2500 == 0) {
      ExpectAgreesWithOracle(profiler, oracle, "event " + std::to_string(i));
      if (this->HasFatalFailure()) return;
    }
  }
}

TYPED_TEST(ConceptParityTest, ApplyBatchMatchesLoopedApply) {
  const uint32_t m = 48;
  // Batch sizes from a single event up to a full warm-pass batch.
  for (uint64_t batch_size : {uint64_t{1}, uint64_t{7}, uint64_t{256}}) {
    const uint64_t n = 2048;
    stream::LogStreamGenerator gen_loop(
        stream::MakePaperStreamConfig(1, m, 4242));
    stream::LogStreamGenerator gen_batch(
        stream::MakePaperStreamConfig(1, m, 4242));

    TypeParam looped(m);
    TypeParam batched(m);
    uint64_t remaining = n;
    std::vector<Event> batch;
    while (remaining > 0) {
      const uint64_t take = std::min(batch_size, remaining);
      for (uint64_t i = 0; i < take; ++i) {
        const stream::LogTuple t = gen_loop.Next();
        looped.Apply(t.id, t.is_add);
      }
      batch.clear();
      gen_batch.GenerateEvents(take, &batch);
      batched.ApplyBatch(batch);
      remaining -= take;

      ASSERT_EQ(batched.Mode(), looped.Mode()) << "batch_size=" << batch_size;
      ASSERT_EQ(batched.total_count(), looped.total_count());
    }
    for (uint32_t id = 0; id < m; ++id) {
      ASSERT_EQ(batched.Frequency(id), looped.Frequency(id))
          << "batch_size=" << batch_size << " id=" << id;
    }
  }
}

// Events with |delta| > 1 (the generalized batch form) must equal their
// unrolled ±1 expansion.
TYPED_TEST(ConceptParityTest, ApplyBatchHonorsWideDeltas) {
  const uint32_t m = 16;
  TypeParam wide(m);
  TypeParam unrolled(m);

  const std::vector<Event> batch = {
      {3, +5}, {7, -2}, {3, -1}, {12, +3}, {7, +2}, {15, -4}};
  wide.ApplyBatch(batch);
  for (const Event& e : batch) {
    int32_t delta = e.delta;
    for (; delta > 0; --delta) unrolled.Add(e.id);
    for (; delta < 0; ++delta) unrolled.Remove(e.id);
  }

  ASSERT_EQ(wide.total_count(), unrolled.total_count());
  ASSERT_EQ(wide.Mode(), unrolled.Mode());
  for (uint32_t id = 0; id < m; ++id) {
    ASSERT_EQ(wide.Frequency(id), unrolled.Frequency(id)) << "id=" << id;
  }
}

}  // namespace
}  // namespace sprofile
