// Contract-violation coverage for the checked sprofile:: tier: everything
// that SPROFILE_DCHECKs (and crashes) on the unchecked hot path must come
// back as a non-OK Status here — never abort, never UB.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "sprofile/sprofile.h"

namespace sprofile {
namespace {

TEST(CheckedProfileTest, HappyPathRoundTrip) {
  CheckedProfile p(8);
  ASSERT_TRUE(p.TryAdd(3).ok());
  ASSERT_TRUE(p.TryAdd(3).ok());
  ASSERT_TRUE(p.TryAdd(5).ok());
  ASSERT_TRUE(p.TryRemove(7).ok());  // negative frequencies are legal (§2.2)

  StatusOr<int64_t> f3 = p.TryFrequency(3);
  ASSERT_TRUE(f3.ok());
  EXPECT_EQ(*f3, 2);
  EXPECT_EQ(p.TryFrequency(7).value(), -1);
  EXPECT_EQ(p.total_count(), 2);  // 3 adds - 1 remove

  StatusOr<GroupStat> mode = p.TryMode();
  ASSERT_TRUE(mode.ok());
  EXPECT_EQ(mode->frequency, 2);
  EXPECT_EQ(mode->count, 1u);

  StatusOr<GroupStat> min = p.TryMinFrequent();
  ASSERT_TRUE(min.ok());
  EXPECT_EQ(min->frequency, -1);

  EXPECT_EQ(p.TryKthLargest(1).value().frequency, 2);
  EXPECT_EQ(p.TryKthSmallest(1).value().frequency, -1);
  EXPECT_EQ(p.TryMedian().value().frequency, 0);
  EXPECT_EQ(p.TryQuantile(1.0).value().frequency, 2);
  EXPECT_EQ(p.TryCountAtLeast(1).value(), 2u);

  StatusOr<std::vector<FrequencyEntry>> top = p.TryTopK(3);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), 3u);
  EXPECT_EQ((*top)[0].frequency, 2);
}

TEST(CheckedProfileTest, OutOfRangeIds) {
  CheckedProfile p(4);
  EXPECT_EQ(p.TryAdd(4).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(p.TryRemove(4).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(p.TryApply(1000, true).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(p.TryFrequency(std::numeric_limits<uint32_t>::max()).status().code(),
            StatusCode::kOutOfRange);
  // Nothing was applied by the rejected calls.
  EXPECT_EQ(p.total_count(), 0);
}

TEST(CheckedProfileTest, FrozenIdUpdatesAreFailedPrecondition) {
  CheckedProfile p(4);
  ASSERT_TRUE(p.TryAdd(0).ok());
  ASSERT_TRUE(p.TryAdd(1).ok());

  // Peels one minimum-frequency object (2 or 3, both at 0).
  StatusOr<FrequencyEntry> peeled = p.TryPeelMin();
  ASSERT_TRUE(peeled.ok());
  EXPECT_EQ(peeled->frequency, 0);
  const uint32_t frozen_id = peeled->id;

  EXPECT_EQ(p.TryAdd(frozen_id).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(p.TryRemove(frozen_id).code(), StatusCode::kFailedPrecondition);
  // Frozen ids still answer point queries.
  EXPECT_EQ(p.TryFrequency(frozen_id).value(), 0);
  EXPECT_EQ(p.num_frozen(), 1u);
}

TEST(CheckedProfileTest, OrderStatisticContractViolations) {
  CheckedProfile p(6);
  ASSERT_TRUE(p.TryAdd(2).ok());

  // k is 1-based: k == 0 is InvalidArgument, not a crash.
  EXPECT_EQ(p.TryKthLargest(0).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(p.TryKthSmallest(0).status().code(), StatusCode::kInvalidArgument);

  // Beyond the active region: OutOfRange.
  EXPECT_EQ(p.TryKthLargest(7).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(p.TryKthSmallest(100).status().code(), StatusCode::kOutOfRange);

  // In range works.
  EXPECT_TRUE(p.TryKthLargest(6).ok());
}

TEST(CheckedProfileTest, QuantileContractViolations) {
  CheckedProfile p(4);
  EXPECT_EQ(p.TryQuantile(-0.01).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(p.TryQuantile(1.01).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(p.TryQuantile(std::nan("")).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(p.TryQuantile(0.5).ok());
}

TEST(CheckedProfileTest, EmptyActiveRegionQueriesAreFailedPrecondition) {
  // Empty two ways: a zero-capacity profile, and one fully peeled.
  CheckedProfile empty(0);
  EXPECT_EQ(empty.TryMode().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(empty.TryQuantile(0.5).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(empty.TryPeelMin().status().code(),
            StatusCode::kFailedPrecondition);

  CheckedProfile drained(2);
  ASSERT_TRUE(drained.TryPeelMin().ok());
  ASSERT_TRUE(drained.TryPeelMin().ok());
  ASSERT_EQ(drained.num_active(), 0u);
  EXPECT_EQ(drained.TryMode().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(drained.TryMinFrequent().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(drained.TryMedian().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(drained.TryQuantile(0.0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(drained.TryKthLargest(1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(drained.TryPeelMin().status().code(),
            StatusCode::kFailedPrecondition);
  // TopK on an empty region is simply empty, not an error.
  EXPECT_EQ(drained.TryTopK(5).value().size(), 0u);
}

TEST(CheckedProfileTest, TryApplyBatchIsAllOrNothing) {
  CheckedProfile p(4);
  const std::vector<Event> bad = {
      Event::Add(0), Event::Add(1), Event::Add(9)};  // last id out of range
  Status s = p.TryApplyBatch(bad);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  // The two valid leading events must NOT have been applied.
  EXPECT_EQ(p.total_count(), 0);
  EXPECT_EQ(p.TryFrequency(0).value(), 0);

  // A batch touching a frozen id is rejected whole, too.
  ASSERT_TRUE(p.TryPeelMin().ok());
  const uint32_t frozen_id = p.profile().IdAtRank(0);
  Status frozen_status =
      p.TryApplyBatch(std::vector<Event>{Event::Add(frozen_id)});
  EXPECT_EQ(frozen_status.code(), StatusCode::kFailedPrecondition);

  // A fully valid batch applies through the native batch path.
  std::vector<Event> good;
  for (uint32_t id = 0; id < 4; ++id) {
    if (id == frozen_id) continue;
    good.push_back(Event{id, +3});
    good.push_back(Event{id, -1});
  }
  ASSERT_TRUE(p.TryApplyBatch(good).ok());
  for (const Event& e : good) {
    if (e.delta != +3) continue;
    EXPECT_EQ(p.TryFrequency(e.id).value(), 2);
  }
  EXPECT_TRUE(p.profile().Validate().ok());
}

// SPROFILE_ASSIGN_OR_RETURN composes the checked tier into larger
// Status-returning flows (the serving-edge idiom the facade targets).
Status ModeMinusMedian(const CheckedProfile& p, int64_t* out) {
  SPROFILE_ASSIGN_OR_RETURN(const GroupStat mode, p.TryMode());
  SPROFILE_ASSIGN_OR_RETURN(const FrequencyEntry median, p.TryMedian());
  *out = mode.frequency - median.frequency;
  return Status::OK();
}

TEST(CheckedProfileTest, AssignOrReturnPropagates) {
  CheckedProfile p(5);
  ASSERT_TRUE(p.TryApplyBatch(std::vector<Event>{{0, +4}, {1, +2}}).ok());
  int64_t spread = -1;
  ASSERT_TRUE(ModeMinusMedian(p, &spread).ok());
  EXPECT_EQ(spread, 4);  // mode 4, median 0

  CheckedProfile empty(0);
  EXPECT_EQ(ModeMinusMedian(empty, &spread).code(),
            StatusCode::kFailedPrecondition);
}

TEST(CheckedProfileTest, MixesWithUncheckedTier) {
  CheckedProfile p(4);
  p.profile().Add(2);  // unchecked hot path on the same instance
  EXPECT_EQ(p.TryFrequency(2).value(), 1);
  EXPECT_TRUE(p.profile().Validate().ok());
}

}  // namespace
}  // namespace sprofile
