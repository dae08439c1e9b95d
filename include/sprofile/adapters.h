// Concept adapters: every backend in the repository, wrapped to model the
// sprofile::Profiler vocabulary (profiler_concept.h).
//
// The point of this layer is that parity tests and benches are written ONCE
// against the concept and instantiated per backend, instead of seven
// hand-maintained harnesses. Each adapter
//
//   - speaks the canonical vocabulary (frequencies as int64_t),
//   - exposes the wrapped structure via backend() for queries that are
//     specific to it (tie groups, representative ids, Validate, ...),
//   - advertises only the tiers its backend can honestly answer: the heap
//     models Profiler but NOT RankedProfiler — the paper's §3.1
//     applicability gap is a compile-time fact here.
//
// Adapter            backend                              tiers
// -----------------  -----------------------------------  ---------------
// SProfile           FrequencyProfile (the paper)         Full
// Keyed              KeyedProfile<uint32_t>               Full
// Naive              baselines::NaiveProfiler             Full
// Heap               baselines::MaxHeapProfiler           Profiler
// Tree               TreeProfilerT<OrderStatisticTree>    Ranked
// Skiplist           TreeProfilerT<IndexableSkipList>     Ranked
// Pbds               TreeProfilerT<PbdsOrderStatisticSet> Ranked (gated on
//                                                         SPROFILE_HAVE_PBDS)

#ifndef SPROFILE_SPROFILE_ADAPTERS_H_
#define SPROFILE_SPROFILE_ADAPTERS_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "baselines/addressable_heap.h"
#include "baselines/indexable_skiplist.h"
#include "baselines/naive_profiler.h"
#include "baselines/pbds_profiler.h"
#include "baselines/tree_profiler.h"
#include "core/frequency_profile.h"
#include "core/keyed_profile.h"
#include "sprofile/event.h"
#include "sprofile/profiler_concept.h"

namespace sprofile {
namespace adapters {

namespace internal {
/// Projects TopK entries onto the canonical frequencies-only form.
inline std::vector<int64_t> FrequenciesOf(
    const std::vector<FrequencyEntry>& entries) {
  std::vector<int64_t> out;
  out.reserve(entries.size());
  for (const FrequencyEntry& e : entries) out.push_back(e.frequency);
  return out;
}
}  // namespace internal

/// The paper's S-Profile: O(1) updates, O(1) order statistics, the native
/// ApplyBatch. Models FullProfiler.
class SProfile : public ProfilerBase<SProfile> {
 public:
  explicit SProfile(uint32_t num_objects) : p_(num_objects) {}
  /// Pages from an injected allocator (the engine's per-shard arenas).
  SProfile(uint32_t num_objects, cow::PageAllocatorRef alloc)
      : p_(num_objects, std::move(alloc)) {}
  explicit SProfile(FrequencyProfile profile) : p_(std::move(profile)) {}

  uint32_t capacity() const { return p_.capacity(); }
  int64_t total_count() const { return p_.total_count(); }

  void Add(uint32_t id) { p_.Add(id); }
  void Remove(uint32_t id) { p_.Remove(id); }
  /// Shadows the looped default with the native batch path.
  void ApplyBatch(std::span<const Event> events) { p_.ApplyBatch(events); }

  /// Explicit deep copy (how an engine shard at or under
  /// kCopyPublishMaxBytes publishes).
  SProfile Clone() const { return SProfile(p_.Clone()); }

  /// O(#pages) copy-on-write snapshot (how a larger engine shard
  /// publishes, and every shard's epoch-0 snapshot): shares storage pages
  /// with this profile; the first write to a shared page copies just that
  /// page.
  SProfile Snapshot() const { return SProfile(p_.Snapshot()); }

  int64_t Frequency(uint32_t id) const { return p_.Frequency(id); }
  int64_t Mode() const { return p_.Mode().frequency; }
  int64_t KthLargest(uint64_t k) const { return p_.KthLargest(k).frequency; }
  int64_t KthSmallest(uint64_t k) const { return p_.KthSmallest(k).frequency; }
  int64_t Median() const { return p_.MedianEntry().frequency; }
  int64_t Quantile(double q) const { return p_.Quantile(q).frequency; }

  uint32_t CountAtLeast(int64_t f) const { return p_.CountAtLeast(f); }
  uint32_t CountEqual(int64_t f) const { return p_.CountEqual(f); }
  std::vector<GroupStat> Histogram() const { return p_.Histogram(); }
  std::vector<int64_t> TopK(uint32_t k) const {
    std::vector<FrequencyEntry> entries;
    p_.TopK(k, &entries);
    return internal::FrequenciesOf(entries);
  }

  /// The allocator behind this profile's storage pages (engine MemoryStats).
  const cow::PageAllocatorRef& page_allocator() const {
    return p_.page_allocator();
  }

  /// Storage-maintenance hook (engine::MaintainsStorage): try to re-enter
  /// the exclusive-epoch flat layout while the shard is idle. O(1) when
  /// blocked by a live snapshot; one dirty-run copy per faulted page when
  /// it succeeds.
  void MaintainStorage() { p_.TryReflatten(); }

  /// True while updates run through the flat (no page-table) kernel.
  bool storage_flat() const { return p_.storage_flat(); }

  FrequencyProfile& backend() { return p_; }
  const FrequencyProfile& backend() const { return p_; }

 private:
  FrequencyProfile p_;
};

/// Brute-force oracle. Models FullProfiler; every answer is O(m)–O(m log m),
/// which is exactly why it is the parity ground truth.
class Naive : public ProfilerBase<Naive> {
 public:
  explicit Naive(uint32_t num_objects) : p_(num_objects) {}

  uint32_t capacity() const { return p_.capacity(); }
  int64_t total_count() const { return p_.total_count(); }

  void Add(uint32_t id) { p_.Add(id); }
  void Remove(uint32_t id) { p_.Remove(id); }

  /// Explicit deep copy, mirroring SProfile::Clone so the oracle can power
  /// an engine shard in parity tests.
  Naive Clone() const { return *this; }

  /// "Snapshot" for the oracle is a plain deep copy — observationally
  /// identical to COW sharing, which is exactly what makes this adapter a
  /// valid reference backend for snapshot parity tests.
  Naive Snapshot() const { return *this; }

  int64_t Frequency(uint32_t id) const { return p_.Frequency(id); }
  int64_t Mode() const { return p_.ModeFrequency(); }
  int64_t KthLargest(uint64_t k) const { return p_.KthLargest(k); }
  int64_t KthSmallest(uint64_t k) const { return p_.KthSmallest(k); }
  int64_t Median() const { return p_.MedianFrequency(); }
  int64_t Quantile(double q) const { return this->QuantileFromKth(q); }

  uint32_t CountAtLeast(int64_t f) const { return p_.CountAtLeast(f); }
  uint32_t CountEqual(int64_t f) const { return p_.CountEqual(f); }
  std::vector<GroupStat> Histogram() const { return p_.Histogram(); }
  std::vector<int64_t> TopK(uint32_t k) const { return p_.TopKFrequencies(k); }

  baselines::NaiveProfiler& backend() { return p_; }
  const baselines::NaiveProfiler& backend() const { return p_; }

 private:
  baselines::NaiveProfiler p_;
};

/// The paper's §3.1 heap baseline. Models Profiler only: a heap can track
/// the mode but answers no other order statistic.
class Heap : public ProfilerBase<Heap> {
 public:
  explicit Heap(uint32_t num_objects) : p_(num_objects) {}

  uint32_t capacity() const { return p_.capacity(); }
  int64_t total_count() const { return total_; }

  void Add(uint32_t id) {
    p_.Add(id);
    ++total_;
  }
  void Remove(uint32_t id) {
    p_.Remove(id);
    --total_;
  }

  int64_t Frequency(uint32_t id) const { return p_.Frequency(id); }
  int64_t Mode() const { return p_.Top().frequency; }

  baselines::MaxHeapProfiler& backend() { return p_; }
  const baselines::MaxHeapProfiler& backend() const { return p_; }

 private:
  baselines::MaxHeapProfiler p_;
  int64_t total_ = 0;
};

/// Shared adapter over TreeProfilerT<TreeT> — the paper's §3.2 balanced-tree
/// route and its cousins. Models RankedProfiler (O(log m) descents).
template <typename TreeT>
class OrderStatistic : public ProfilerBase<OrderStatistic<TreeT>> {
 public:
  explicit OrderStatistic(uint32_t num_objects) : p_(num_objects) {}

  uint32_t capacity() const { return p_.capacity(); }
  int64_t total_count() const { return total_; }

  void Add(uint32_t id) {
    p_.Add(id);
    ++total_;
  }
  void Remove(uint32_t id) {
    p_.Remove(id);
    --total_;
  }

  int64_t Frequency(uint32_t id) const { return p_.Frequency(id); }
  int64_t Mode() const { return p_.Mode().frequency; }
  int64_t KthLargest(uint64_t k) const { return p_.KthLargest(k).frequency; }
  int64_t KthSmallest(uint64_t k) const {
    return p_.KthLargest(p_.capacity() - k + 1).frequency;
  }
  int64_t Median() const { return p_.Median().frequency; }
  int64_t Quantile(double q) const { return this->QuantileFromKth(q); }

  baselines::TreeProfilerT<TreeT>& backend() { return p_; }
  const baselines::TreeProfilerT<TreeT>& backend() const { return p_; }

 private:
  baselines::TreeProfilerT<TreeT> p_;
  int64_t total_ = 0;
};

/// Our order-statistic treap (always available).
using Tree = OrderStatistic<baselines::OrderStatisticTree>;

/// The indexable skip list — "what an LSM engine already has lying around".
using Skiplist = OrderStatistic<baselines::IndexableSkipList>;

#if SPROFILE_HAVE_PBDS
/// The literal library the paper benchmarked ([16], libstdc++ PBDS).
using Pbds = OrderStatistic<baselines::PbdsOrderStatisticSet>;
#endif

/// KeyedProfile driven through the dense-id vocabulary: keys ARE the ids.
/// The constructor registers the whole id universe at frequency 0 so the
/// adapter's answers match the dense backends even for never-updated ids.
/// Models FullProfiler (ranked/aggregate queries ride on the underlying
/// dense FrequencyProfile).
class Keyed : public ProfilerBase<Keyed> {
 public:
  explicit Keyed(uint32_t num_objects)
      : p_(KeyedProfileOptions{.initial_capacity = num_objects,
                               .release_zero_keys = false,
                               .create_on_remove = true,
                               .page_allocator = {}}) {
    for (uint32_t id = 0; id < num_objects; ++id) {
      p_.Add(id);
      (void)p_.Remove(id);
    }
  }

  uint32_t capacity() const { return p_.profile().capacity(); }
  int64_t total_count() const { return p_.total_count(); }

  void Add(uint32_t id) { p_.Add(id); }
  void Remove(uint32_t id) { (void)p_.Remove(id); }

  int64_t Frequency(uint32_t id) const { return p_.Frequency(id).value_or(0); }
  int64_t Mode() const { return dense().Mode().frequency; }
  int64_t KthLargest(uint64_t k) const { return dense().KthLargest(k).frequency; }
  int64_t KthSmallest(uint64_t k) const { return dense().KthSmallest(k).frequency; }
  int64_t Median() const { return dense().MedianEntry().frequency; }
  int64_t Quantile(double q) const { return dense().Quantile(q).frequency; }

  uint32_t CountAtLeast(int64_t f) const { return dense().CountAtLeast(f); }
  uint32_t CountEqual(int64_t f) const { return dense().CountEqual(f); }
  std::vector<GroupStat> Histogram() const { return dense().Histogram(); }
  std::vector<int64_t> TopK(uint32_t k) const {
    std::vector<FrequencyEntry> entries;
    dense().TopK(k, &entries);
    return internal::FrequenciesOf(entries);
  }

  KeyedProfile<uint32_t>& backend() { return p_; }
  const KeyedProfile<uint32_t>& backend() const { return p_; }

 private:
  const FrequencyProfile& dense() const { return p_.profile(); }

  KeyedProfile<uint32_t> p_;
};

}  // namespace adapters
}  // namespace sprofile

#endif  // SPROFILE_SPROFILE_ADAPTERS_H_
