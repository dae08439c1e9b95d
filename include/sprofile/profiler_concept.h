// The Profiler concept — the canonical query/update vocabulary every
// sprofile:: backend speaks.
//
// Three tiers, so a backend advertises exactly what it can answer:
//
//   Profiler           updates (Add/Remove/Apply/ApplyBatch) plus the O(1)
//                      point queries every contestant supports: capacity,
//                      total_count, Frequency, Mode.
//   RankedProfiler     + order statistics: KthLargest/KthSmallest, Median,
//                      Quantile. (A heap cannot model this — the paper's
//                      §3.1 applicability gap, now a compile-time fact.)
//   HistogramProfiler  + aggregate range queries: CountAtLeast/CountEqual,
//                      Histogram, TopK.
//   FullProfiler       = RankedProfiler && HistogramProfiler.
//
// All canonical queries return plain frequencies (int64_t) so a templated
// parity/bench harness can compare any two backends; the representative
// object ids and tie groups stay available on each adapter's backend().
//
// ProfilerBase is the CRTP adapter base: it derives Apply from Add/Remove
// and supplies the default (looped) ApplyBatch, which FrequencyProfile's
// adapter overrides with its native batch path.

#ifndef SPROFILE_SPROFILE_PROFILER_CONCEPT_H_
#define SPROFILE_SPROFILE_PROFILER_CONCEPT_H_

#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "core/frequency_profile.h"  // GroupStat
#include "sprofile/event.h"

namespace sprofile {

template <typename P>
concept Profiler = requires(P p, const P& cp, uint32_t id, bool is_add,
                            std::span<const Event> events) {
  { cp.capacity() } -> std::convertible_to<uint32_t>;
  { cp.total_count() } -> std::convertible_to<int64_t>;
  { cp.Frequency(id) } -> std::convertible_to<int64_t>;
  { cp.Mode() } -> std::convertible_to<int64_t>;
  p.Add(id);
  p.Remove(id);
  p.Apply(id, is_add);
  p.ApplyBatch(events);
};

template <typename P>
concept RankedProfiler =
    Profiler<P> && requires(const P& cp, uint64_t k, double q) {
      { cp.KthLargest(k) } -> std::convertible_to<int64_t>;
      { cp.KthSmallest(k) } -> std::convertible_to<int64_t>;
      { cp.Median() } -> std::convertible_to<int64_t>;
      { cp.Quantile(q) } -> std::convertible_to<int64_t>;
    };

template <typename P>
concept HistogramProfiler =
    Profiler<P> && requires(const P& cp, int64_t f, uint32_t k) {
      { cp.CountAtLeast(f) } -> std::convertible_to<uint32_t>;
      { cp.CountEqual(f) } -> std::convertible_to<uint32_t>;
      { cp.Histogram() } -> std::same_as<std::vector<GroupStat>>;
      { cp.TopK(k) } -> std::same_as<std::vector<int64_t>>;
    };

template <typename P>
concept FullProfiler = RankedProfiler<P> && HistogramProfiler<P>;

/// CRTP base for concept adapters. Derived must provide Add/Remove (and the
/// query vocabulary it supports); the base fills in the shared plumbing.
/// Queries are intentionally NOT defaulted here: a requires-expression only
/// checks declarations, so inherited stubs would make every backend
/// spuriously satisfy RankedProfiler. The protected helper below lets
/// adapters that do support order statistics derive Quantile from
/// KthSmallest in one line.
template <typename Derived>
class ProfilerBase {
 public:
  /// Applies one log tuple: Add when `is_add`, else Remove.
  void Apply(uint32_t id, bool is_add) {
    is_add ? derived().Add(id) : derived().Remove(id);
  }

  /// Default batch path: apply each event's delta as ±1 steps, in order.
  /// Backends with a native batch primitive shadow this.
  void ApplyBatch(std::span<const Event> events) {
    for (const Event& e : events) {
      int32_t delta = e.delta;
      for (; delta > 0; --delta) derived().Add(e.id);
      for (; delta < 0; ++delta) derived().Remove(e.id);
    }
  }

 protected:
  /// q-quantile (rank floor(q * (m - 1)), matching FrequencyProfile), via
  /// the derived KthSmallest. q must be in [0, 1].
  int64_t QuantileFromKth(double q) const {
    const uint64_t k =
        static_cast<uint64_t>(q * (derived().capacity() - 1)) + 1;
    return derived().KthSmallest(k);
  }

 private:
  Derived& derived() { return static_cast<Derived&>(*this); }
  const Derived& derived() const { return static_cast<const Derived&>(*this); }
};

}  // namespace sprofile

#endif  // SPROFILE_SPROFILE_PROFILER_CONCEPT_H_
