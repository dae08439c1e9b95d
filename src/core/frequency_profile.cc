#include "core/frequency_profile.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <string>
#include <utility>

#include "core/flat_kernel.h"
#include "core/page_arena.h"
#include "sprofile/obs/metrics.h"
#include "sprofile/obs/trace_ring.h"

namespace sprofile {

// The prefetch pipeline (core/flat_kernel.h) takes raw byte bases plus
// compile-time strides instead of the core types, so the intrinsics stay
// confined to that one header. Pin the layout it assumes.
static_assert(sizeof(internal::RankSlot) == 8 &&
                  offsetof(internal::RankSlot, block) == 4,
              "flat_kernel.h slot stride/offset out of date");
static_assert(sizeof(Block) == 16 && offsetof(Block, l) == 0 &&
                  offsetof(Block, r) == 4,
              "flat_kernel.h block stride/layout out of date");
static_assert(sizeof(Event) == 8 && offsetof(Event, id) == 0,
              "flat_kernel.h event stride/offset out of date");

cow::PageAllocatorRef ResolveProfileAllocator(cow::PageAllocatorRef alloc,
                                              uint64_t num_objects) {
  if (alloc != nullptr) return alloc;
  return cow::MakeProfileDefaultAllocator(ProfileFootprintBytes(num_objects));
}

FrequencyProfile::FrequencyProfile(uint32_t num_objects,
                                   cow::PageAllocatorRef alloc, Unfilled)
    : m_(num_objects),
      alloc_(ResolveProfileAllocator(std::move(alloc), num_objects)),
      pool_(alloc_, m_),
      f_to_t_(alloc_, m_),
      slots_(alloc_, m_) {
  f_to_t_.resize(m_);
  slots_.resize(m_);
  if (m_ > 0) pool_.Reserve(std::min<size_t>(m_, 1024));
}

FrequencyProfile::FrequencyProfile(uint32_t num_objects,
                                   cow::PageAllocatorRef alloc)
    : FrequencyProfile(num_objects, std::move(alloc), Unfilled{}) {
  if (m_ == 0) return;
  // All frequencies start at 0: one block covering every rank.
  const BlockHandle all = pool_.Alloc(0, m_ - 1, 0);
  RankWriter out(*this);
  for (uint32_t rank = 0; rank < m_; ++rank) out.Place(rank, rank, all);
}

FrequencyProfile::RankWriter::RankWriter(FrequencyProfile& p) : p_(p) {
  if (p.slots_.EnsureFlat() && p.f_to_t_.EnsureFlat()) {
    slots_ = p.slots_.flat_data();
    ranks_ = p.f_to_t_.flat_data();
  }
}

FrequencyProfile FrequencyProfile::Clone() const {
  // Deep-copies directly — deliberately NOT via the sharing copy ctor: a
  // transient share would clear this profile's exclusivity bitmaps and
  // put every subsequent write back on the refcount slow path.
  FrequencyProfile copy(0u, alloc_);
  copy.m_ = m_;
  copy.frozen_ = frozen_;
  copy.total_count_ = total_count_;
  copy.generation_ = generation_;
  copy.pool_ = pool_.DeepClone();
  copy.f_to_t_ = f_to_t_.DeepClone();
  copy.slots_ = slots_.DeepClone();
  return copy;
}

FrequencyProfile FrequencyProfile::FromFrequencies(
    const std::vector<int64_t>& frequencies, cow::PageAllocatorRef alloc) {
  const uint32_t m = static_cast<uint32_t>(frequencies.size());
  FrequencyProfile p(m, std::move(alloc), Unfilled{});
  if (m == 0) return p;

  int64_t lo = frequencies[0], hi = frequencies[0], total = 0;
  [[maybe_unused]] bool overflow = false;
  for (const int64_t f : frequencies) {
    lo = std::min(lo, f);
    hi = std::max(hi, f);
    overflow |= __builtin_add_overflow(total, f, &total);
  }
  SPROFILE_DCHECK(!overflow);
  p.total_count_ = total;

  // Blocks are allocated in rank order and each id goes to the next free
  // rank of its frequency in id order, so ties keep id order (the rank
  // order is deterministic across platforms and paths). Unsigned: the
  // span of {INT64_MIN, INT64_MAX} does not fit int64_t.
  const uint64_t range = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  if (range < m) {
    // Counting placement: count ids per frequency (the frequency array's
    // own profile), turn counts into first ranks, scatter ids in id order.
    struct Bucket {
      uint32_t next_rank = 0;  // a count until the prefix sum below
      BlockHandle block = 0;
    };
    const auto key = [lo](int64_t f) {
      return static_cast<uint64_t>(f) - static_cast<uint64_t>(lo);
    };
    std::vector<Bucket> buckets(range + 1);
    for (const int64_t f : frequencies) ++buckets[key(f)].next_rank;
    uint32_t rank = 0;
    for (uint64_t k = 0; k <= range; ++k) {
      Bucket& b = buckets[k];
      const uint32_t count = b.next_rank;
      if (count == 0) continue;
      b.block = p.pool_.Alloc(rank, rank + count - 1,
                              static_cast<int64_t>(static_cast<uint64_t>(lo) + k));
      b.next_rank = rank;
      rank += count;
    }
    RankWriter out(p);
    for (uint32_t id = 0; id < m; ++id) {
      Bucket& b = buckets[key(frequencies[id])];
      out.Place(id, b.next_rank++, b.block);
    }
    return p;
  }

  // Wide range: sort ids by frequency, then one block per equal run.
  std::vector<uint32_t> order(m);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return frequencies[a] < frequencies[b];
  });
  RankWriter out(p);
  uint32_t run_start = 0;
  for (uint32_t rank = 1; rank <= m; ++rank) {
    if (rank == m ||
        frequencies[order[rank]] != frequencies[order[run_start]]) {
      const BlockHandle h =
          p.pool_.Alloc(run_start, rank - 1, frequencies[order[run_start]]);
      for (uint32_t i = run_start; i < rank; ++i) out.Place(order[i], i, h);
      run_start = rank;
    }
  }
  return p;
}

// The paged halves of Add/Remove. Out of line on purpose: the inline
// wrappers stay small enough to vanish into callers' update loops. Every
// kReflattenPeriod-th paged update probes whether the flat epoch can
// resume (O(1) while a witness pin holds), so even callers that never
// touch ApplyBatch/TryReflatten drift back to the fast path.
void FrequencyProfile::AddPaged(uint32_t id) {
  if (ShouldProbeReflatten() && TryReflatten()) {
    FlatOps ops = MakeFlatOps();
    AddImpl(ops, id);
    if (!pool_.flat_ok()) [[unlikely]] flat_ready_ = false;
    return;
  }
  PagedOps ops{this};
  AddImpl(ops, id);
  ++paged_updates_;
}

void FrequencyProfile::RemovePaged(uint32_t id) {
  if (ShouldProbeReflatten() && TryReflatten()) {
    FlatOps ops = MakeFlatOps();
    RemoveImpl(ops, id);
    if (!pool_.flat_ok()) [[unlikely]] flat_ready_ = false;
    return;
  }
  PagedOps ops{this};
  RemoveImpl(ops, id);
  ++paged_updates_;
}

bool FrequencyProfile::TryReflatten() {
  if (flat_ready_) return true;
  SPROFILE_METRIC_COUNTER("sprofile_reflatten_attempts", "attempts",
                          "Flat-epoch re-entry probes while paged")
      .Increment();
  // A long-lived snapshot (an engine worker's retained publish, say) pins
  // pages the gentle probe can never reclaim, wedging a write-hot profile
  // on the paged kernel indefinitely. Once enough paged updates accumulate
  // to out-cost a full divergence, force it: fault every still-shared page
  // (copies later writes would pay piecemeal anyway) and consolidate into
  // fresh private runs the snapshot has no claim on.
  const bool force =
      paged_updates_ - flat_paged_mark_ >= kForceReflattenUpdates;
  if (force) {
    if (!f_to_t_.ForceFlat() || !slots_.ForceFlat() ||
        !pool_.BeginFlat(/*force=*/true)) {
      return false;
    }
    SPROFILE_METRIC_COUNTER("sprofile_reflatten_forced", "forces",
                            "Flat-epoch re-entries that had to fault out "
                            "snapshot-pinned pages (forced divergence)")
        .Increment();
  } else if (!f_to_t_.EnsureFlat() || !slots_.EnsureFlat() ||
             !pool_.BeginFlat()) {
    return false;
  }
  flat_paged_mark_ = paged_updates_;
  flat_f_to_t_ = f_to_t_.flat_data();
  flat_slots_ = slots_.flat_data();
  flat_ready_ = true;
  SPROFILE_METRIC_COUNTER("sprofile_reflatten_successes", "successes",
                          "Flat-epoch re-entries (paged -> flat)")
      .Increment();
  obs::Trace(obs::TraceEvent::kReflatten, 0, paged_updates_);
  return true;
}

namespace {

// Gates for the batch staging layers, all keyed on how much of the flat
// working set fits in cache. Measured on an AVX-512 Emerald Rapids core
// (2 MiB L2): with m = 2^16 the whole f_to_t/slots/blocks set is
// L2-resident and both the gather pipeline and the locality sort are pure
// overhead (the sort alone costs ~50 ns/event, the gathers duplicate
// loads that already hit L2); with m >= 2^19 the slot array alone
// overflows L2 and staged prefetch starts buying back miss latency.
constexpr uint32_t kGatherPipelineMinM = 1u << 25;
constexpr uint32_t kSortLocalityMinM = 1u << 18;

// The direct-replay radix partition pays once a 64-way split of the slot
// array yields bucket windows near L2/dTLB reach. Measured on the same
// core: a loss below m = 2^20 (batches are too sparse for any window
// reuse, the extra passes are pure cost), neutral at m = 2^22, a clear
// win at m = 2^24 where each window is 2 MiB of a 128 MiB slot array and
// confining the walk slashes dTLB misses.
constexpr uint32_t kPartitionMinM = 1u << 23;
constexpr uint32_t kPartitionBuckets = 64;

// Adaptive coalescing: skip the epoch-stamp netting pass while its EWMA
// yield (event mass removed, fixed point /256) stays under ~6% — a
// nearly-unique-id stream pays two random scratch accesses per event for
// nothing. Every 32nd batch re-probes so bursty phases are rediscovered.
constexpr uint32_t kCoalesceMinYieldFp = 16;
constexpr uint32_t kCoalesceProbePeriod = 32;

// Effective gates: the production constants unless the parity suite has
// lowered them (internal::batch_gate_overrides, test-only).
uint32_t GatherPipelineMinM() {
  const uint32_t v = internal::batch_gate_overrides().gather_pipeline_min_m;
  return v != 0 ? v : kGatherPipelineMinM;
}
uint32_t PartitionMinM() {
  const uint32_t v = internal::batch_gate_overrides().partition_min_m;
  return v != 0 ? v : kPartitionMinM;
}
uint32_t SortLocalityMinM() {
  const uint32_t v = internal::batch_gate_overrides().sort_locality_min_m;
  return v != 0 ? v : kSortLocalityMinM;
}

}  // namespace

namespace internal {
BatchGateOverrides& batch_gate_overrides() {
  static BatchGateOverrides overrides;
  return overrides;
}
}  // namespace internal

// Applies the coalesced net delta of one id as repeated O(1) steps.
void FrequencyProfile::ApplyBatch(std::span<const Event> events) {
  if (events.empty()) return;

  // The kernel is selected once per drained batch: one flat-epoch probe
  // here (O(1) while a witness snapshot still pins a page), then the
  // replay loop below dispatches on the cached flag only.
  TryReflatten();

  // Adaptive coalescing: when recent batches showed nearly-unique ids the
  // netting pass is pure overhead, so replay the raw events in arrival
  // order instead (observably identical — coalescing only reorders and
  // nets, and netting removed nothing). Periodic probes keep measuring.
  if (coalesce_yield_ewma_ < kCoalesceMinYieldFp &&
      ++batch_probe_counter_ % kCoalesceProbePeriod != 0) {
    SPROFILE_METRIC_COUNTER("sprofile_batch_replays", "batches",
                            "Coalesced batches that reached the replay stage")
        .Increment();
    ReplayDirect(events);
    return;
  }

  // Lazily (re)size the epoch-stamped scratch; InsertSlot may have grown m_
  // since the last batch.
  if (batch_epoch_.size() < m_) {
    batch_epoch_.resize(m_, 0);
    batch_delta_.resize(m_, 0);
  }
  if (++batch_epoch_counter_ == 0) {
    // Epoch counter wrapped: stale stamps could collide, so reset them.
    std::fill(batch_epoch_.begin(), batch_epoch_.end(), 0u);
    batch_epoch_counter_ = 1;
  }

  batch_touched_.clear();
  int64_t gross = 0;  // event mass before netting: Σ |e.delta|
  for (const Event& e : events) {
    SPROFILE_DCHECK(e.id < m_);
    SPROFILE_DCHECK(f_to_t_[e.id] >= frozen_);
    gross += e.delta < 0 ? -static_cast<int64_t>(e.delta) : e.delta;
    if (batch_epoch_[e.id] != batch_epoch_counter_) {
      batch_epoch_[e.id] = batch_epoch_counter_;
      batch_delta_[e.id] = e.delta;
      batch_touched_.push_back(e.id);
    } else {
      batch_delta_[e.id] += e.delta;
    }
  }

  // Fused count-then-move: the per-id deltas are fully netted before ANY
  // structural step, so a self-cancelling storm compacts away here — the
  // block partition never sees it. The cancelled mass is the difference
  // between what arrived and what survives.
  size_t live = 0;
  int64_t net = 0;  // Σ |net delta| over surviving ids
  for (const uint32_t id : batch_touched_) {
    const int64_t d = batch_delta_[id];
    if (d == 0) continue;
    batch_touched_[live++] = id;
    net += d < 0 ? -d : d;
  }
  batch_touched_.resize(live);
  // Fold this batch's yield (mass removed / mass arrived, /256) into the
  // EWMA the adaptive gate above reads. gross > 0 here: events was
  // non-empty and every event contributes |delta| >= 0 — a gross of 0
  // means an all-zero-delta batch, which still probes as yield 0.
  const uint32_t yield_fp =
      gross > 0 ? static_cast<uint32_t>((gross - net) * 256 / gross) : 0;
  coalesce_yield_ewma_ = (3 * coalesce_yield_ewma_ + yield_fp) / 4;
  if (gross > net) {
    SPROFILE_METRIC_COUNTER("sprofile_batch_cancelled_events", "events",
                            "Event mass neutralized by per-id netting before "
                            "any structural work (fused count-then-move)")
        .Add(static_cast<uint64_t>(gross - net));
  }
  if (live == 0) return;
  SPROFILE_METRIC_COUNTER("sprofile_batch_replays", "batches",
                          "Coalesced batches that reached the replay stage")
      .Increment();

  // Locality sort: replay in ascending current-rank order so neighbouring
  // updates share slot lines and (usually) blocks. This changes which of
  // the many equivalent rank permutations the structure lands on — never
  // an observable answer (block membership is order-insensitive, exactly
  // like the per-id coalescing above). Keys pack (rank, id) into one
  // uint64 so the sort never chases f_to_t_ from its comparator.
  if (live >= batch_sort_threshold_ && m_ >= SortLocalityMinM()) {
    batch_sort_keys_.clear();
    batch_sort_keys_.reserve(live);
    for (const uint32_t id : batch_touched_) {
      batch_sort_keys_.push_back(uint64_t{f_to_t_[id]} << 32 | id);
    }
    std::sort(batch_sort_keys_.begin(), batch_sort_keys_.end());
    for (size_t i = 0; i < live; ++i) {
      batch_touched_[i] = static_cast<uint32_t>(batch_sort_keys_[i]);
    }
    SPROFILE_METRIC_COUNTER("sprofile_batch_sorted", "batches",
                            "Replays locality-sorted by pre-replay rank "
                            "(list reached batch_sort_threshold)")
        .Increment();
  }

  ReplayBatch();
}

void FrequencyProfile::ReplayBatch() {
  const simd::KernelTier tier = simd::ActiveKernelTier();
  if (flat_ready_ && tier != simd::KernelTier::kScalar &&
      m_ < GatherPipelineMinM()) {
    // Cache-resident working set: the lean lookahead (one f_to_t prefetch
    // + one stale-tolerant rank load per update) is all the staging that
    // pays here.
    const uint32_t* ft = flat_f_to_t_;
    const void* slots = flat_slots_;
    const void* blocks = pool_.flat_blocks_base();
    const size_t n = batch_touched_.size();
    for (size_t i = 0; i < n; ++i) {
      if (flat_ready_ && i + simd::kLookaheadMax < n) [[likely]] {
        simd::StageLookahead(ft, slots, blocks,
                             batch_touched_[i + simd::kLookaheadA],
                             batch_touched_[i + simd::kLookaheadB],
                             batch_touched_[i + simd::kLookaheadC],
                             batch_touched_[i + simd::kLookaheadD]);
      }
      const uint32_t id = batch_touched_[i];
      int64_t delta = batch_delta_[id];
      for (; delta > 0; --delta) Add(id);
      for (; delta < 0; ++delta) Remove(id);
    }
    return;
  }
  if (flat_ready_ && tier != simd::KernelTier::kScalar) {
    simd::BatchPrefetcher pf(batch_touched_.data(), batch_touched_.size(),
                             flat_f_to_t_, flat_slots_,
                             pool_.flat_blocks_base(), m_, pool_.slots(),
                             tier);
    if (pf.enabled()) {
      const size_t group = pf.group();
      const size_t lead = pf.lead();
      const size_t steps = pf.num_steps();
      const size_t n = batch_touched_.size();
      for (size_t t = 0; t < steps + lead; ++t) {
        // Stop staging if the flat epoch degrades mid-batch (a block-pool
        // growth past its run): execution below falls back to the paged
        // kernel through the Add/Remove wrappers, and the pipeline's
        // cached bases are only as fresh as the epoch.
        if (flat_ready_) [[likely]] {
          pf.Step(t);
        }
        if (t < lead) continue;  // pipeline fill: stages run ahead
        const size_t begin = (t - lead) * group;
        const size_t end = std::min(begin + group, n);
        for (size_t i = begin; i < end; ++i) {
          const uint32_t id = batch_touched_[i];
          int64_t delta = batch_delta_[id];
          for (; delta > 0; --delta) Add(id);
          for (; delta < 0; ++delta) Remove(id);
        }
      }
      // Lane utilization for the staged pipeline: filled counts ids that
      // rode a gather lane, total counts lane slots issued (tail padding
      // is the gap). Batches that never enter the pipeline count in
      // neither.
      SPROFILE_METRIC_COUNTER("sprofile_kernel_lanes_filled", "lanes",
                              "Replay ids staged through gather lanes")
          .Add(n);
      SPROFILE_METRIC_COUNTER("sprofile_kernel_lanes_total", "lanes",
                              "Gather lane slots issued by the staged "
                              "pipeline (incl. tail padding)")
          .Add(steps * group);
      return;
    }
  }
  // Scalar tier / paged epoch / pipeline-ineligible batch: the seed
  // replay loop, byte for byte.
  for (const uint32_t id : batch_touched_) {
    int64_t delta = batch_delta_[id];
    for (; delta > 0; --delta) Add(id);
    for (; delta < 0; ++delta) Remove(id);
  }
}

void FrequencyProfile::ReplayDirect(std::span<const Event> events) {
  const simd::KernelTier tier = simd::ActiveKernelTier();
  if (flat_ready_ && tier != simd::KernelTier::kScalar &&
      m_ >= GatherPipelineMinM()) {
    // DRAM-scale working set: run the full gather pipeline over the id
    // stream (batch_touched_ doubles as id scratch — the coalescing pass
    // that normally owns it was skipped on this path).
    const size_t n = events.size();
    batch_touched_.resize(n);
    for (size_t i = 0; i < n; ++i) batch_touched_[i] = events[i].id;
    simd::BatchPrefetcher pf(batch_touched_.data(), n, flat_f_to_t_,
                             flat_slots_, pool_.flat_blocks_base(), m_,
                             pool_.slots(), tier);
    if (pf.enabled()) {
      const size_t group = pf.group();
      const size_t lead = pf.lead();
      const size_t steps = pf.num_steps();
      for (size_t t = 0; t < steps + lead; ++t) {
        if (flat_ready_) [[likely]] {
          pf.Step(t);
        }
        if (t < lead) continue;
        const size_t begin = (t - lead) * group;
        const size_t end = std::min(begin + group, n);
        for (size_t i = begin; i < end; ++i) {
          const Event& e = events[i];
          SPROFILE_DCHECK(e.id < m_);
          SPROFILE_DCHECK(f_to_t_[e.id] >= frozen_);
          int64_t delta = e.delta;
          for (; delta > 0; --delta) Add(e.id);
          for (; delta < 0; ++delta) Remove(e.id);
        }
      }
      SPROFILE_METRIC_COUNTER("sprofile_kernel_lanes_filled", "lanes",
                              "Replay ids staged through gather lanes")
          .Add(n);
      SPROFILE_METRIC_COUNTER("sprofile_kernel_lanes_total", "lanes",
                              "Gather lane slots issued by the staged "
                              "pipeline (incl. tail padding)")
          .Add(steps * group);
      return;
    }
  }
  if (flat_ready_ && tier != simd::KernelTier::kScalar &&
      m_ >= PartitionMinM() && events.size() >= batch_sort_threshold_) {
    // Locality partition: a three-pass radix bucket sort by pre-replay
    // rank window, so execution walks the slot array in 64 ascending
    // stripes instead of m-wide random hops. Pass 1 resolves every
    // event's current rank with real AVX2/AVX-512 gathers — correct, not
    // heuristic, because nothing has mutated yet. Pass 2 stable-scatters
    // the packed (delta, id) events into bucket order. Pass 3 executes.
    //
    // Reordering safety: events with the same id gather the identical
    // pre-replay rank, land in the same bucket, and the stable scatter
    // preserves their arrival order — so per-id delta sequences replay
    // exactly as they arrived (no transient dips below the per-id running
    // minimum). Cross-id reordering is the same equivalence ApplyBatch's
    // coalescing pass already relies on: block membership is a function
    // of multiset state, not arrival interleaving.
    const size_t n = events.size();
    batch_touched_.resize(n);
    simd::GatherEventRanks(events.data(), n, flat_f_to_t_,
                           batch_touched_.data(), tier);
    const size_t lanes = simd::GatherLanes(tier);
    SPROFILE_METRIC_COUNTER("sprofile_kernel_lanes_filled", "lanes",
                            "Replay ids staged through gather lanes")
        .Add(n);
    SPROFILE_METRIC_COUNTER("sprofile_kernel_lanes_total", "lanes",
                            "Gather lane slots issued by the staged "
                            "pipeline (incl. tail padding)")
        .Add((n + lanes - 1) / lanes * lanes);

    // rank < m_ always, so rank >> shift < kPartitionBuckets.
    const uint32_t bits = std::bit_width(m_ - 1);
    const uint32_t shift = bits > 6 ? bits - 6 : 0;
    uint32_t counts[kPartitionBuckets] = {};
    batch_bucket_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const uint8_t b = static_cast<uint8_t>(batch_touched_[i] >> shift);
      batch_bucket_[i] = b;
      ++counts[b];
    }
    uint32_t cursor[kPartitionBuckets];
    uint32_t run = 0;
    for (uint32_t b = 0; b < kPartitionBuckets; ++b) {
      cursor[b] = run;
      run += counts[b];
    }
    batch_sort_keys_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      const Event& e = events[i];
      SPROFILE_DCHECK(e.id < m_);
      SPROFILE_DCHECK(f_to_t_[e.id] >= frozen_);
      batch_sort_keys_[cursor[batch_bucket_[i]]++] =
          uint64_t{static_cast<uint32_t>(e.delta)} << 32 | e.id;
    }
    SPROFILE_METRIC_COUNTER("sprofile_batch_sorted", "batches",
                            "Replays locality-sorted by pre-replay rank "
                            "(list reached batch_sort_threshold)")
        .Increment();

    const uint32_t* ft = flat_f_to_t_;
    const void* slots = flat_slots_;
    const void* blocks = pool_.flat_blocks_base();
    for (size_t i = 0; i < n; ++i) {
      if (flat_ready_ && i + simd::kLookaheadMax < n) [[likely]] {
        simd::StageLookahead(
            ft, slots, blocks,
            static_cast<uint32_t>(batch_sort_keys_[i + simd::kLookaheadA]),
            static_cast<uint32_t>(batch_sort_keys_[i + simd::kLookaheadB]),
            static_cast<uint32_t>(batch_sort_keys_[i + simd::kLookaheadC]),
            static_cast<uint32_t>(batch_sort_keys_[i + simd::kLookaheadD]));
      }
      const uint64_t key = batch_sort_keys_[i];
      const uint32_t id = static_cast<uint32_t>(key);
      int64_t delta = static_cast<int32_t>(static_cast<uint32_t>(key >> 32));
      for (; delta > 0; --delta) Add(id);
      for (; delta < 0; ++delta) Remove(id);
    }
    return;
  }
  if (flat_ready_ && tier != simd::KernelTier::kScalar) {
    const uint32_t* ft = flat_f_to_t_;
    const void* slots = flat_slots_;
    const void* blocks = pool_.flat_blocks_base();
    const size_t n = events.size();
    // Batch-warm pass: resolve every event's rank up front with gathers
    // (warming the touched f_to_t lines as a side effect) and issue one
    // slot-line prefetch per event. Unlike the in-loop lookahead below,
    // this pass has no dependent chain at all — the gathers and prefetches
    // overlap to the full miss-queue depth, so when the engine's producer
    // has just evicted the profile from L2 the execution loop finds its
    // first two chain levels re-warmed. The ~256 KiB the pass touches for
    // a 2048-event batch cannot self-evict before execution reaches it.
    if (n >= simd::kWarmMinBatch) {
      batch_touched_.resize(n);
      simd::GatherEventRanks(events.data(), n, ft, batch_touched_.data(),
                             tier);
      const char* slot_base = static_cast<const char*>(slots);
      for (size_t i = 0; i < n; ++i) {
        simd::PrefetchT0(slot_base + size_t{batch_touched_[i]} * 8);
      }
      const size_t lanes = simd::GatherLanes(tier);
      SPROFILE_METRIC_COUNTER("sprofile_kernel_lanes_filled", "lanes",
                              "Replay ids staged through gather lanes")
          .Add(n);
      SPROFILE_METRIC_COUNTER("sprofile_kernel_lanes_total", "lanes",
                              "Gather lane slots issued by the staged "
                              "pipeline (incl. tail padding)")
          .Add((n + lanes - 1) / lanes * lanes);
    }
    for (size_t i = 0; i < n; ++i) {
      if (flat_ready_ && i + simd::kLookaheadMax < n) [[likely]] {
        simd::StageLookahead(ft, slots, blocks,
                             events[i + simd::kLookaheadA].id,
                             events[i + simd::kLookaheadB].id,
                             events[i + simd::kLookaheadC].id,
                             events[i + simd::kLookaheadD].id);
      }
      const Event& e = events[i];
      SPROFILE_DCHECK(e.id < m_);
      SPROFILE_DCHECK(f_to_t_[e.id] >= frozen_);
      int64_t delta = e.delta;
      for (; delta > 0; --delta) Add(e.id);
      for (; delta < 0; ++delta) Remove(e.id);
    }
    return;
  }
  for (const Event& e : events) {
    SPROFILE_DCHECK(e.id < m_);
    SPROFILE_DCHECK(f_to_t_[e.id] >= frozen_);
    int64_t delta = e.delta;
    for (; delta > 0; --delta) Add(e.id);
    for (; delta < 0; ++delta) Remove(e.id);
  }
}

GroupView FrequencyProfile::GroupAt(uint32_t rank) const {
  const Block& b = pool_.Get(slots_[rank].block);
  return GroupView(b.f, &slots_, b.l, b.r - b.l + 1, &generation_,
                   generation_);
}

GroupView FrequencyProfile::Mode() const {
  SPROFILE_DCHECK(num_active() > 0);
  return GroupAt(m_ - 1);
}

GroupView FrequencyProfile::MinFrequent() const {
  SPROFILE_DCHECK(num_active() > 0);
  return GroupAt(frozen_);
}

FrequencyEntry FrequencyProfile::KthLargest(uint64_t k) const {
  SPROFILE_DCHECK(k >= 1 && k <= num_active());
  const uint32_t rank = m_ - static_cast<uint32_t>(k);
  return FrequencyEntry{slots_[rank].id, pool_.Get(slots_[rank].block).f};
}

FrequencyEntry FrequencyProfile::KthSmallest(uint64_t k) const {
  SPROFILE_DCHECK(k >= 1 && k <= num_active());
  const uint32_t rank = frozen_ + static_cast<uint32_t>(k) - 1;
  return FrequencyEntry{slots_[rank].id, pool_.Get(slots_[rank].block).f};
}

FrequencyEntry FrequencyProfile::MedianEntry() const {
  SPROFILE_DCHECK(num_active() > 0);
  return KthSmallest((num_active() - 1) / 2 + 1);
}

FrequencyEntry FrequencyProfile::UpperMedianEntry() const {
  SPROFILE_DCHECK(num_active() > 0);
  return KthSmallest(num_active() / 2 + 1);
}

FrequencyEntry FrequencyProfile::Quantile(double q) const {
  SPROFILE_DCHECK(num_active() > 0);
  SPROFILE_DCHECK(q >= 0.0 && q <= 1.0);
  const uint64_t k =
      static_cast<uint64_t>(std::floor(q * (num_active() - 1))) + 1;
  return KthSmallest(k);
}

bool FrequencyProfile::HasMajority() const {
  if (num_active() == 0) return false;
  return 2 * pool_.Get(slots_[m_ - 1].block).f > total_count_;
}

uint32_t FrequencyProfile::LowerBoundRank(int64_t f) const {
  // Binary search over active ranks; T is ascending there. Each probe reads
  // the frequency through the covering block, so this is O(log m) with no
  // extra storage.
  uint32_t lo = frozen_, hi = m_;  // answer in [lo, hi]
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (pool_.Get(slots_[mid].block).f >= f) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

uint32_t FrequencyProfile::CountAtLeast(int64_t f) const {
  return m_ - LowerBoundRank(f);
}

uint32_t FrequencyProfile::CountEqual(int64_t f) const {
  return LowerBoundRank(f + 1) - LowerBoundRank(f);
}

void FrequencyProfile::TopK(uint32_t k, std::vector<FrequencyEntry>* out) const {
  uint32_t emitted = 0;
  uint32_t rank = m_;
  while (emitted < k && rank > frozen_) {
    --rank;
    out->push_back(FrequencyEntry{slots_[rank].id, pool_.Get(slots_[rank].block).f});
    ++emitted;
  }
}

std::vector<GroupStat> FrequencyProfile::Histogram() const {
  std::vector<GroupStat> hist;
  uint32_t rank = frozen_;
  while (rank < m_) {
    const Block& b = pool_.Get(slots_[rank].block);
    hist.push_back(GroupStat{b.f, b.r - b.l + 1});
    rank = b.r + 1;
  }
  return hist;
}

std::vector<int64_t> FrequencyProfile::ToFrequencies() const {
  std::vector<int64_t> freqs(m_);
  for (uint32_t id = 0; id < m_; ++id) {
    freqs[id] = pool_.Get(slots_[f_to_t_[id]].block).f;
  }
  return freqs;
}

size_t FrequencyProfile::MemoryBytes() const {
  return f_to_t_.MemoryBytes() + slots_.MemoryBytes() + pool_.MemoryBytes() +
         batch_epoch_.capacity() * sizeof(uint32_t) +
         batch_delta_.capacity() * sizeof(int64_t) +
         batch_touched_.capacity() * sizeof(uint32_t) +
         batch_sort_keys_.capacity() * sizeof(uint64_t) +
         batch_bucket_.capacity() * sizeof(uint8_t);
}

FrequencyEntry FrequencyProfile::PeelMin() {
  SPROFILE_DCHECK(num_active() > 0);
  // Structural op on the paged path; pool growth here could silently
  // outdate the flat caches, so drop the epoch and re-enter lazily.
  flat_ready_ = false;
  BumpGeneration();
  const uint32_t rank = frozen_;
  const uint32_t id = slots_[rank].id;
  const BlockHandle bh = slots_[rank].block;
  const Block b = pool_.Get(bh);  // copy: see Add()
  const int64_t f = b.f;
  SPROFILE_DCHECK(b.l == rank);

  if (b.r == rank) {
    // Single-element block: it becomes the tombstone as-is.
    ++frozen_;
  } else {
    // Split: shrink the live block and give the frozen rank its own
    // tombstone so Frequency() of the peeled id keeps working.
    pool_.GetMutable(bh).l = rank + 1;
    slots_.Mutable(rank).block = pool_.Alloc(rank, rank, f);
    ++frozen_;
  }
  return FrequencyEntry{id, f};
}

uint32_t FrequencyProfile::InsertSlot() {
  // Grows every array; growth past a run falls back to standalone pages,
  // so drop the flat epoch and let TryReflatten consolidate (runs double
  // on consolidation: amortized O(1) per inserted slot).
  flat_ready_ = false;
  BumpGeneration();
  const uint32_t new_id = m_;
  // The zero-frequency slot must sit just before the first positive
  // frequency to keep T sorted (frequencies <= 0 exist on the left).
  const uint32_t p = LowerBoundRank(1);

  f_to_t_.push_back(0);
  slots_.push_back(RankSlot{0, kInvalidBlock});
  const uint32_t old_m = m_;
  m_ += 1;

  // Shift every block in ranks [p, old_m) one position right, processing
  // right-to-left. Within a block the id order is free, so a shift only
  // moves the block's *front* element into the hole at its right edge —
  // O(1) per block rather than O(size).
  uint32_t q = old_m;  // exclusive end of the unshifted region
  while (q > p) {
    const BlockHandle bh = slots_[q - 1].block;
    const Block b = pool_.Get(bh);  // copy: see Add()
    const uint32_t l = b.l;
    const uint32_t r = b.r;
    const uint32_t moving = slots_[l].id;
    slots_.Mutable(r + 1) = RankSlot{moving, bh};
    f_to_t_.Mutable(moving) = r + 1;
    Block& mb = pool_.GetMutable(bh);
    mb.l = l + 1;
    mb.r = r + 1;
    q = l;
  }

  // Place the new id in the hole at rank p, joining the zero block on the
  // left when there is one.
  slots_.Mutable(p).id = new_id;
  f_to_t_.Mutable(new_id) = p;
  if (p > frozen_ && pool_.Get(slots_[p - 1].block).f == 0) {
    const BlockHandle zh = slots_[p - 1].block;
    pool_.GetMutable(zh).r = p;
    slots_.Mutable(p).block = zh;
  } else {
    slots_.Mutable(p).block = pool_.Alloc(p, p, 0);
  }
  return new_id;
}

Status FrequencyProfile::Validate() const {
  // Permutation consistency.
  if (f_to_t_.size() != m_ || slots_.size() != m_) {
    return Status::Corruption("array sizes disagree with capacity");
  }
  for (uint32_t id = 0; id < m_; ++id) {
    if (f_to_t_[id] >= m_) {
      return Status::Corruption("FtoT[" + std::to_string(id) + "] out of range");
    }
    if (slots_[f_to_t_[id]].id != id) {
      return Status::Corruption("FtoT/TtoF not inverse at id " + std::to_string(id));
    }
  }

  // Block partition: walking blocks from rank 0 must tile [0, m) exactly,
  // and every rank's block pointer must reference the block covering it.
  size_t walked_blocks = 0;
  uint32_t rank = 0;
  int64_t prev_freq = 0;
  bool have_prev = false;
  while (rank < m_) {
    const BlockHandle bh = slots_[rank].block;
    const Block& b = pool_.Get(bh);
    if (b.l != rank) {
      return Status::Corruption("block at rank " + std::to_string(rank) +
                                " does not start there");
    }
    if (b.r < b.l || b.r >= m_) {
      return Status::Corruption("block [" + std::to_string(b.l) + "," +
                                std::to_string(b.r) + "] malformed");
    }
    for (uint32_t i = b.l; i <= b.r; ++i) {
      if (slots_[i].block != bh) {
        return Status::Corruption("slot " + std::to_string(i) +
                                  " does not point at covering block");
      }
    }
    const bool active_block = b.l >= frozen_;
    if (active_block && have_prev) {
      // Ascending order and block maximality over the active region only;
      // frozen tombstones record historical peel frequencies.
      if (b.f <= prev_freq) {
        return Status::Corruption("blocks not strictly ascending at rank " +
                                  std::to_string(rank));
      }
    }
    if (active_block) {
      prev_freq = b.f;
      have_prev = true;
    }
    rank = b.r + 1;
    ++walked_blocks;
  }
  if (walked_blocks != pool_.live()) {
    return Status::Corruption("live block count mismatch: walked " +
                              std::to_string(walked_blocks) + ", pool says " +
                              std::to_string(pool_.live()));
  }

  // Frozen blocks must not cross the boundary.
  if (frozen_ > 0 && frozen_ < m_) {
    const Block& first_active = pool_.Get(slots_[frozen_].block);
    if (first_active.l != frozen_) {
      return Status::Corruption("block crosses the frozen boundary");
    }
  }
  return Status::OK();
}

}  // namespace sprofile
