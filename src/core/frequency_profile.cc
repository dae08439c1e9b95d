#include "core/frequency_profile.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <string>
#include <utility>

#include "core/page_arena.h"
#include "sprofile/obs/metrics.h"
#include "sprofile/obs/trace_ring.h"

namespace sprofile {

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

// Warm-pass gate: f_to_t_ + slots_ take 12 B per id, 3 MiB at m = 2^18
// against a 2 MiB L2. Stream1 sweep, ApplyBatch in 1024-event chunks,
// ns/event over three alternating runs (docs/ENGINE.md "Batch replay"):
// below the gate the pass costs (2^16: 15.0-17.5 without it, 16.8-20.2
// with it), at 2^17 it ties, and from 2^18 on it wins (2^18: 41.5-46.0
// vs 28.9-29.7; 2^21: 106-123 vs 75-96). The batch floor keeps the pass
// to batches with enough independent misses to overlap.
constexpr uint32_t kWarmPassMinM = 1u << 18;
constexpr size_t kWarmPassMinBatch = 256;

}  // namespace

void FrequencyProfile::ApplyBatch(std::span<const Event> events) {
  if (events.empty()) return;
  // One flat-epoch probe per batch: O(1) while a snapshot pins a page.
  TryReflatten();
  if (flat_ready_ && m_ >= kWarmPassMinM &&
      events.size() >= kWarmPassMinBatch) {
    // Scalar warm pass: each event's rank load is independent of every
    // other, so their misses overlap; the prefetched slot line is the
    // first load of the event's dependent chain in the loop below.
    for (const Event& e : events) {
      SPROFILE_DCHECK(e.id < m_);
      __builtin_prefetch(flat_slots_ + flat_f_to_t_[e.id]);
    }
  }
  // Algorithm 1 in arrival order, |delta| unit steps per event.
  for (const Event& e : events) {
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
  return f_to_t_.MemoryBytes() + slots_.MemoryBytes() + pool_.MemoryBytes();
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
