// FrequencyProfile::ApplyBatch — the batch update path — plus
// the GroupView staleness trap and the stream->Event wiring.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/frequency_profile.h"
#include "core/keyed_profile.h"
#include "sprofile/event.h"
#include "stream/log_stream.h"
#include "util/random.h"

namespace sprofile {
namespace {

TEST(ApplyBatchTest, EmptyBatchIsANoOp) {
  FrequencyProfile p(4);
  p.ApplyBatch({});
  EXPECT_EQ(p.total_count(), 0);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(ApplyBatchTest, SingleBatchMatchesLoopedApply) {
  FrequencyProfile batched(8);
  FrequencyProfile looped(8);
  const std::vector<Event> events = {
      Event::Add(1), Event::Add(1),    Event::Remove(3), Event::Add(5),
      Event::Add(1), Event::Remove(5), Event::Add(7),    Event::Remove(3)};
  batched.ApplyBatch(events);
  for (const Event& e : events) looped.Apply(e.id, e.delta > 0);

  EXPECT_EQ(batched.ToFrequencies(), looped.ToFrequencies());
  EXPECT_EQ(batched.total_count(), looped.total_count());
  EXPECT_EQ(batched.Mode().frequency, looped.Mode().frequency);
  EXPECT_TRUE(batched.Validate().ok());
}

#ifndef NDEBUG
// The batch contract: every event is |delta| unit steps in arrival order,
// so a batch advances the debug generation counter (one tick per Add or
// Remove) by exactly Σ|delta| — a self-cancelling storm included — and
// lands on the state looped replay reaches, rank permutation and all.
TEST(ApplyBatchTest, BatchDoesSumOfAbsDeltaStepsLikeLoopedReplay) {
  FrequencyProfile batched(8);
  FrequencyProfile looped(8);
  std::vector<Event> events;
  for (int round = 0; round < 50; ++round) {
    events.push_back(Event::Add(3));
    events.push_back(Event::Remove(3));
  }
  events.push_back(Event{2, 5});
  events.push_back(Event{4, -3});
  events.push_back(Event{2, -2});
  events.push_back(Event{6, 0});
  uint64_t steps = 0;
  for (const Event& e : events) {
    steps += static_cast<uint64_t>(e.delta < 0 ? -int64_t{e.delta} : e.delta);
  }

  const uint64_t before = batched.generation();
  batched.ApplyBatch(events);
  EXPECT_EQ(batched.generation(), before + steps);
  for (const Event& e : events) {
    int32_t d = e.delta;
    for (; d > 0; --d) looped.Add(e.id);
    for (; d < 0; ++d) looped.Remove(e.id);
  }
  EXPECT_EQ(looped.generation(), batched.generation());
  EXPECT_EQ(batched.ToFrequencies(), looped.ToFrequencies());
  for (uint32_t rank = 0; rank < batched.capacity(); ++rank) {
    EXPECT_EQ(batched.IdAtRank(rank), looped.IdAtRank(rank)) << rank;
  }
  EXPECT_EQ(batched.Frequency(3), 0);
  EXPECT_EQ(batched.Frequency(2), 3);
  EXPECT_EQ(batched.Frequency(4), -3);
  EXPECT_TRUE(batched.Validate().ok());
}
#endif  // NDEBUG

TEST(ApplyBatchTest, RandomizedBatchesMatchLoopedReplay) {
  const uint32_t m = 97;
  FrequencyProfile batched(m);
  FrequencyProfile looped(m);
  Xoshiro256PlusPlus rng(0xBA7C4);

  for (int round = 0; round < 200; ++round) {
    const size_t batch_size = 1 + rng.Next() % 64;
    std::vector<Event> batch;
    batch.reserve(batch_size);
    for (size_t i = 0; i < batch_size; ++i) {
      const uint32_t id = static_cast<uint32_t>(rng.Next() % m);
      const int32_t delta = static_cast<int32_t>(rng.Next() % 7) - 3;
      batch.push_back(Event{id, delta});
    }
    batched.ApplyBatch(batch);
    for (const Event& e : batch) {
      int32_t d = e.delta;
      for (; d > 0; --d) looped.Add(e.id);
      for (; d < 0; ++d) looped.Remove(e.id);
    }
    ASSERT_TRUE(batched.Validate().ok()) << "round " << round;
    ASSERT_EQ(batched.total_count(), looped.total_count()) << "round " << round;
  }
  EXPECT_EQ(batched.ToFrequencies(), looped.ToFrequencies());
  EXPECT_EQ(batched.Histogram(), looped.Histogram());
}

TEST(ApplyBatchTest, BatchAfterInsertSlotResizesScratch) {
  FrequencyProfile p(2);
  p.ApplyBatch(std::vector<Event>{Event::Add(0)});
  const uint32_t grown = p.InsertSlot();
  ASSERT_EQ(grown, 2u);
  p.ApplyBatch(std::vector<Event>{Event::Add(grown), Event::Add(grown)});
  EXPECT_EQ(p.Frequency(grown), 2);
  EXPECT_TRUE(p.Validate().ok());
}

TEST(KeyedApplyBatchTest, AppliesInOrderAndStopsAtFirstFailure) {
  using Keyed = KeyedProfile<std::string>;
  Keyed profile;  // create_on_remove defaults to false
  const std::vector<Keyed::KeyedEvent> ok_events = {
      {"alpha", true}, {"beta", true}, {"alpha", true}};
  ASSERT_TRUE(profile.ApplyBatch(ok_events).ok());
  EXPECT_EQ(profile.Frequency("alpha").value(), 2);

  const std::vector<Keyed::KeyedEvent> failing = {
      {"beta", false}, {"ghost", false}, {"alpha", false}};
  Status s = profile.ApplyBatch(failing);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  // Events before the failure applied; events after did not.
  EXPECT_EQ(profile.Frequency("beta").value(), 0);
  EXPECT_EQ(profile.Frequency("alpha").value(), 2);
}

TEST(StreamEventsTest, GenerateEventsMirrorsGenerate) {
  const uint32_t m = 32;
  stream::LogStreamGenerator tuples(stream::MakePaperStreamConfig(2, m, 55));
  stream::LogStreamGenerator events(stream::MakePaperStreamConfig(2, m, 55));

  const std::vector<stream::LogTuple> t = tuples.Take(500);
  const std::vector<Event> e = events.TakeEvents(500);
  ASSERT_EQ(t.size(), e.size());
  for (size_t i = 0; i < t.size(); ++i) {
    ASSERT_EQ(e[i], stream::ToEvent(t[i])) << "i=" << i;
    ASSERT_EQ(e[i].id, t[i].id);
    ASSERT_EQ(e[i].delta, t[i].is_add ? +1 : -1);
  }
}

#ifndef NDEBUG
using GroupViewDeathTest = testing::Test;

TEST(GroupViewDeathTest, UseAfterUpdateIsTrapped) {
  FrequencyProfile p(8);
  p.Add(1);
  p.Add(1);
  GroupView mode = p.Mode();
  EXPECT_EQ(mode.count(), 1u);  // live: fine
  p.Add(2);                     // invalidates the view
  EXPECT_DEATH_IF_SUPPORTED({ (void)mode[0]; }, "CHECK failed");
  EXPECT_DEATH_IF_SUPPORTED({ (void)mode.count(); }, "CHECK failed");
  EXPECT_DEATH_IF_SUPPORTED({ (void)mode.ToVector(); }, "CHECK failed");
}

TEST(GroupViewDeathTest, ViewStaysLiveWithoutUpdates) {
  FrequencyProfile p(8);
  p.Add(4);
  const GroupView mode = p.Mode();
  EXPECT_EQ(mode.count(), 1u);
  EXPECT_EQ(mode[0], 4u);
  EXPECT_EQ(mode.ToVector(), std::vector<uint32_t>{4u});
}
#endif  // NDEBUG

}  // namespace
}  // namespace sprofile
