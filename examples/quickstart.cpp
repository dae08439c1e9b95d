// Quickstart: profile a log stream through the unified sprofile:: API —
// batch ingestion, O(1) statistics, and the checked serving tier.
//
// Build & run:
//   cmake -B build && cmake --build build -j
//   ./build/examples/quickstart
//
// See docs/API.md for the full facade tour.

#include <cstdio>

#include "sprofile/sprofile.h"
#include "stream/log_stream.h"

int main() {
  // A profile over m = 8 objects, everything starting at frequency 0.
  sprofile::FrequencyProfile profile(8);

  // Feed log events. Single updates are O(1); a batch applies each event's
  // delta as that many O(1) steps, in arrival order.
  profile.Add(3);
  profile.ApplyBatch(std::vector<sprofile::Event>{
      {3, +2},                     // two more likes for object 3
      sprofile::Event::Add(5),
      sprofile::Event::Add(5),
      sprofile::Event::Add(1),
      sprofile::Event::Remove(7),  // may drive frequencies negative (§2.2)
  });

  // Mode: all objects tied at the maximum frequency, O(1).
  const sprofile::GroupView mode = profile.Mode();
  std::printf("mode frequency = %lld, objects:", static_cast<long long>(mode.frequency));
  for (uint32_t id : mode) std::printf(" %u", id);
  std::printf("\n");

  // Min-frequent, median, arbitrary order statistics — all O(1).
  std::printf("min frequency  = %lld (object %u)\n",
              static_cast<long long>(profile.MinFrequent().frequency),
              profile.MinFrequent()[0]);
  std::printf("median freq    = %lld\n",
              static_cast<long long>(profile.MedianEntry().frequency));
  std::printf("2nd largest    = %lld\n",
              static_cast<long long>(profile.KthLargest(2).frequency));

  // Count queries, O(log m).
  std::printf("objects with frequency >= 2: %u\n", profile.CountAtLeast(2));

  // The whole frequency histogram, O(#blocks).
  std::printf("histogram:");
  for (const sprofile::GroupStat& g : profile.Histogram()) {
    std::printf("  %u x f=%lld", g.count, static_cast<long long>(g.frequency));
  }
  std::printf("\n");

  // The checked tier: same structure, errors instead of asserts — what a
  // serving edge exposes to untrusted requests.
  sprofile::CheckedProfile checked(8);
  if (sprofile::Status s = checked.TryAdd(99); !s.ok()) {
    std::printf("checked tier rejected bad id: %s\n", s.ToString().c_str());
  }
  if (const auto q = checked.TryQuantile(2.5); !q.ok()) {
    std::printf("checked tier rejected bad quantile: %s\n",
                q.status().ToString().c_str());
  }

  // Replaying one of the paper's synthetic streams batch-wise end to end.
  constexpr uint32_t kM = 1000;
  sprofile::FrequencyProfile big(kM);
  sprofile::stream::LogStreamGenerator gen(
      sprofile::stream::MakePaperStreamConfig(/*which=*/2, kM, /*seed=*/42));
  std::vector<sprofile::Event> batch;
  for (int i = 0; i < 100; ++i) {
    batch.clear();
    gen.GenerateEvents(1000, &batch);
    big.ApplyBatch(batch);
  }
  std::printf("after 100k stream2 events over m=%u: mode=%lld ties=%u "
              "median=%lld blocks=%zu\n",
              kM, static_cast<long long>(big.Mode().frequency), big.Mode().count(),
              static_cast<long long>(big.MedianEntry().frequency),
              big.num_blocks());
  return 0;
}
