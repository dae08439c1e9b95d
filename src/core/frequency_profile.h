// FrequencyProfile — the S-Profile data structure (paper §2).
//
// Maintains the *sorted* frequency array T of m objects under ±1 updates in
// O(1) worst-case time per update and O(m) space, using:
//
//   - a block set: the partition of T into maximal runs of equal frequency
//     (block_set.h),
//   - FtoT / TtoF: the permutation between object ids and ranks in T,
//   - PtrB: rank -> block handle.
//
// All ranks and ids are 0-based (the paper's pseudocode is 1-based). T is
// ascending, so rank m-1 holds a maximum-frequency object (the mode) and
// rank 0 a minimum-frequency one. Frequencies may go negative: the paper
// explicitly allows "remove" events for objects that were never added
// (§2.2, "maybe a negative number").
//
// Query cheat sheet (all over the *active* region, see PeelMin below):
//   Mode() / MinFrequent()       O(1)
//   KthLargest(k) / KthSmallest  O(1)
//   MedianEntry() / Quantile(q)  O(1)
//   Frequency(id)                O(1)
//   CountAtLeast(f) etc.         O(log m)   binary search over ranks
//   TopK(k, out)                 O(k)
//   Histogram()                  O(#blocks)
//
// Extension beyond the paper: PeelMin() freezes the current minimum object
// so it never participates in further updates or queries — the
// "extract-min forever" primitive needed by the graph-shaving applications
// the paper sketches in §2.3. Frozen ranks form a prefix of T; each keeps a
// tombstone block so Frequency() of a peeled object still answers in O(1).

#ifndef SPROFILE_CORE_FREQUENCY_PROFILE_H_
#define SPROFILE_CORE_FREQUENCY_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "core/block_set.h"
#include "core/cow_pages.h"
#include "sprofile/obs/trace_ring.h"
#include "sprofile/event.h"
#include "util/status.h"

namespace sprofile {

/// One object and its current frequency.
struct FrequencyEntry {
  uint32_t id;
  int64_t frequency;

  bool operator==(const FrequencyEntry&) const = default;
};

namespace internal {
/// Per-rank state: the paper's TtoF and PtrB arrays interleaved, so one
/// cache line serves both lookups at a rank (the update path touches ranks
/// at both ends of a possibly huge block; halving the rank-indexed arrays
/// halves those misses).
struct RankSlot {
  uint32_t id;          // TtoF: object at this rank
  BlockHandle block;    // PtrB: covering block
};

/// The rank array's storage: copy-on-write pages, so Snapshot() is an
/// O(#pages) pointer grab (core/cow_pages.h).
using RankSlotArray = cow::PagedArray<RankSlot>;
}  // namespace internal

/// A group of objects tied at one frequency — one block of the profile.
///
/// Iteration yields object ids lazily straight out of the profile's rank
/// array (no copy; Mode()/MinFrequent() stay O(1) however large the tie
/// group is). The view is invalidated by any subsequent profile update,
/// move, or destruction. In SPROFILE_DCHECK builds (NDEBUG undefined) a
/// use-after-update is caught at the accessor: the view snapshots the
/// profile's generation counter at creation and checks it on every read.
class GroupView {
 public:
  GroupView(int64_t freq, const internal::RankSlotArray* slots,
            uint32_t first_rank, uint32_t count,
            const uint64_t* live_generation = nullptr,
            uint64_t born_generation = 0)
      : frequency(freq),
        slots_(slots),
        first_rank_(first_rank),
        count_(count),
        live_generation_(live_generation),
        born_generation_(born_generation) {}

  /// The frequency every object in this group shares.
  int64_t frequency;

  /// Number of tied objects.
  uint32_t count() const {
    CheckLive();
    return count_;
  }
  uint32_t size() const {
    CheckLive();
    return count_;
  }

  /// The i-th object id of the group (arbitrary but stable order).
  uint32_t operator[](uint32_t i) const {
    CheckLive();
    return (*slots_)[first_rank_ + i].id;
  }

  /// Forward iterator over object ids (walks the paged rank array).
  class const_iterator {
   public:
    using value_type = uint32_t;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    const_iterator(const internal::RankSlotArray* slots, uint32_t rank)
        : slots_(slots), rank_(rank) {}
    uint32_t operator*() const { return (*slots_)[rank_].id; }
    const_iterator& operator++() {
      ++rank_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator tmp = *this;
      ++rank_;
      return tmp;
    }
    bool operator==(const const_iterator&) const = default;

   private:
    const internal::RankSlotArray* slots_;
    uint32_t rank_;
  };

  const_iterator begin() const {
    CheckLive();
    return const_iterator(slots_, first_rank_);
  }
  const_iterator end() const {
    CheckLive();
    return const_iterator(slots_, first_rank_ + count_);
  }

  /// Copies the group's ids out (convenience for callers that need a
  /// stable container).
  std::vector<uint32_t> ToVector() const {
    return std::vector<uint32_t>(begin(), end());
  }

 private:
  /// Debug-only staleness trap: asserts the owning profile has not been
  /// updated since this view was taken. Compiles to nothing under NDEBUG.
  void CheckLive() const {
    SPROFILE_DCHECK(live_generation_ == nullptr ||
                    *live_generation_ == born_generation_);
  }

  const internal::RankSlotArray* slots_;
  uint32_t first_rank_;
  uint32_t count_;
  // Present in ALL build modes (only read under !NDEBUG): conditioning the
  // layout on NDEBUG would silently break consumers compiled with a
  // different assert setting than the library. Two dead stores per O(1)
  // query is the price of a stable ABI.
  const uint64_t* live_generation_;
  uint64_t born_generation_;
};

/// Paged-storage bytes a dense profile of `m` objects needs: rank slots
/// (TtoF+PtrB) + the FtoT permutation + block pool (at most m+1 blocks;
/// free-list slack folded into the Block term). The single authority for
/// footprint-based allocator sizing — the profile's own default-allocator
/// choice, KeyedProfile's initial_capacity hint, and the engine's
/// per-shard first-arena sizing all call this.
constexpr uint64_t ProfileFootprintBytes(uint64_t num_objects) {
  return num_objects *
         (sizeof(internal::RankSlot) + sizeof(uint32_t) + sizeof(Block));
}

/// Largest ProfileFootprintBytes at which an engine shard publishes by
/// deep copy (Clone) rather than by sharing its pages (Snapshot). Under
/// it a copy costs less than the copy-on-write faults the shard's next
/// writes would take; over it the O(m_s) copy dominates. Set from the
/// copy-vs-COW sweep in bench_engine_scaling (docs/ENGINE.md): m_s = 2^15
/// (0.875 MiB) is the largest size at which copying made both a
/// 4096-event and a 64-event burst visible no later than COW did.
inline constexpr uint64_t kCopyPublishMaxBytes =
    ProfileFootprintBytes(uint64_t{1} << 15);

/// The allocator a profile construction path uses when the caller passed
/// none: the footprint-sized default for `num_objects` dense slots
/// (cow::MakeProfileDefaultAllocator over ProfileFootprintBytes). The
/// single authority for the null-allocator fallback — FrequencyProfile's
/// constructors and KeyedProfile's initial_capacity path all resolve
/// through here, so a policy change lands everywhere at once.
cow::PageAllocatorRef ResolveProfileAllocator(cow::PageAllocatorRef alloc,
                                              uint64_t num_objects);

/// Aggregate row of the frequency histogram: `count` objects share
/// `frequency`.
struct GroupStat {
  int64_t frequency;
  uint32_t count;

  bool operator==(const GroupStat&) const = default;
};

/// S-Profile over a dense id space [0, capacity).
///
/// Thread-compatibility: like a std container — concurrent const queries are
/// safe, any update requires external synchronization. Additionally, a
/// Snapshot() may be queried from other threads while the parent keeps
/// updating (the copy-on-write page layer isolates them; see
/// core/cow_pages.h for the exact contract).
class FrequencyProfile {
 public:
  /// Creates a profile of `num_objects` objects, all at frequency 0.
  ///
  /// Storage pages come from `alloc`; passing null picks the default for
  /// the profile's footprint (cow::MakeProfileDefaultAllocator): a private
  /// hugepage arena for large profiles, the shared heap for small ones,
  /// and always the heap in ASan / forced-heap builds. Snapshots and
  /// Clone()s share the allocator, so it outlives every page.
  ///
  /// Storage failure model (docs/ROBUSTNESS.md): a recoverable arena
  /// refusal (mmap ENOMEM) never reaches this layer — the page layer
  /// falls back to heap blocks and the profile keeps its full contract,
  /// merely losing the flat-view locality for the fallback blocks. Only
  /// true heap exhaustion escapes, as std::bad_alloc from any allocating
  /// operation (construction, growth, COW fault); the engine catches it
  /// at the shard-worker boundary and quarantines the shard rather than
  /// aborting the process.
  explicit FrequencyProfile(uint32_t num_objects,
                            cow::PageAllocatorRef alloc = nullptr);

  /// Bulk-builds a profile from initial frequencies; ties keep id order.
  /// O(m + range) by counting placement when max - min < m (the "finite
  /// values" case: few distinct frequencies), else an O(m log m) stable
  /// sort (ablation A6 measures this against m repeated Adds).
  /// Precondition: the running sum of `frequencies`, in id order, never
  /// overflows int64_t (LoadProfile rejects snapshots that break this).
  static FrequencyProfile FromFrequencies(const std::vector<int64_t>& frequencies,
                                          cow::PageAllocatorRef alloc = nullptr);

  // Movable but not copyable by accident (profiles can be large); use
  // Snapshot() for an O(#pages) copy-on-write copy or Clone() for an
  // explicit deep copy.
  FrequencyProfile(FrequencyProfile&&) = default;
  FrequencyProfile& operator=(FrequencyProfile&&) = default;

  /// An independent deep copy: O(m).
  FrequencyProfile Clone() const;

  /// A copy-on-write snapshot: O(#pages) pointer grabs, NOT O(m). The
  /// snapshot and the parent share storage pages; the first write to a
  /// shared page (on either side) copies just that page, so updates after
  /// a snapshot cost amortized O(1) extra and the snapshot's answers are
  /// frozen at the moment it was taken. The snapshot is a full profile:
  /// every query works, and it may itself be updated or re-snapshotted.
  FrequencyProfile Snapshot() const { return FrequencyProfile(*this); }

  /// Total number of object slots, frozen ones included (m in the paper).
  uint32_t capacity() const { return m_; }

  /// Objects still participating in updates and queries.
  uint32_t num_active() const { return m_ - frozen_; }

  /// Objects removed from play via PeelMin().
  uint32_t num_frozen() const { return frozen_; }

  /// Running sum of all frequencies (adds minus removes over active and
  /// frozen objects).
  int64_t total_count() const { return total_count_; }

  /// Number of live blocks (distinct frequencies, counting tombstones).
  size_t num_blocks() const { return pool_.live(); }

  // ---------------------------------------------------------------------
  // Updates — the paper's Algorithm 1; O(1) worst-case each.
  // ---------------------------------------------------------------------

  /// F[id] += 1. `id` must be in range and not frozen.
  ///
  /// Dispatches to the exclusive-epoch FLAT kernel when storage is flat
  /// (no snapshot pins any page; see TryReflatten): the same Algorithm 1
  /// steps against raw contiguous arrays, no page-table indirection.
  /// Otherwise the paged/COW kernel runs, and every kReflattenPeriod-th
  /// paged update cheaply re-probes whether the flat epoch can resume.
  /// Defined inline (bottom of this header) so callers' update loops can
  /// hoist the flat bases into registers — the whole point of the path.
  void Add(uint32_t id);

  /// F[id] -= 1. `id` must be in range and not frozen. Same flat/paged
  /// dispatch as Add.
  void Remove(uint32_t id);

  /// Applies one log-stream tuple (x, c): Add when `is_add`, else Remove.
  void Apply(uint32_t id, bool is_add) { is_add ? Add(id) : Remove(id); }

  /// Applies a batch of events in arrival order: each event is |delta|
  /// unit Add/Remove steps, so a batch costs O(Σ|delta|) steps and gives
  /// the same answers as applying the events one by one (a self-cancelling
  /// batch is not free). On the flat epoch with m >= 2^18 and a batch of
  /// at least 256 events, a warm pass first loads every event's rank and
  /// prefetches its slot line, overlapping the misses the dependent
  /// update chains would otherwise take one at a time. Every event id
  /// must be in range and unfrozen; deltas of any magnitude are allowed.
  void ApplyBatch(std::span<const Event> events);

  // ---------------------------------------------------------------------
  // Point queries.
  // ---------------------------------------------------------------------

  /// Current frequency of `id` (works for frozen ids too). O(1).
  int64_t Frequency(uint32_t id) const {
    SPROFILE_DCHECK(id < m_);
    return pool_.Get(slots_[f_to_t_[id]].block).f;
  }

  /// All objects tied at the maximum frequency (the mode; Algorithm 1
  /// steps 29–30). Requires num_active() > 0. O(1).
  GroupView Mode() const;

  /// All objects tied at the minimum frequency (steps 29a–30a). O(1).
  GroupView MinFrequent() const;

  /// The k-th largest frequency, k in [1, num_active()], with one
  /// representative object ("top-K order element", §2.2). O(1).
  FrequencyEntry KthLargest(uint64_t k) const;

  /// The k-th smallest frequency, k in [1, num_active()]. O(1).
  FrequencyEntry KthSmallest(uint64_t k) const;

  /// Lower median of the active frequencies (rank floor((a-1)/2)). O(1).
  FrequencyEntry MedianEntry() const;

  /// Upper median (rank ceil((a-1)/2)); equals MedianEntry() for odd a.
  FrequencyEntry UpperMedianEntry() const;

  /// q-quantile entry, q in [0, 1]: rank floor(q * (a - 1)). O(1).
  FrequencyEntry Quantile(double q) const;

  /// True iff some object has frequency > total_count()/2 (the classical
  /// majority; cf. Boyer–Moore [3] in the paper's related work). O(1).
  bool HasMajority() const;

  // ---------------------------------------------------------------------
  // Range / bulk queries.
  // ---------------------------------------------------------------------

  /// Number of active objects with frequency >= f. O(log m).
  uint32_t CountAtLeast(int64_t f) const;

  /// Number of active objects with frequency == f. O(log m).
  uint32_t CountEqual(int64_t f) const;

  /// Number of active objects with frequency < f. O(log m).
  uint32_t CountLess(int64_t f) const { return num_active() - CountAtLeast(f); }

  /// Appends the top-k entries (descending frequency; ties broken by rank)
  /// to *out. Emits min(k, num_active()) entries. O(k).
  void TopK(uint32_t k, std::vector<FrequencyEntry>* out) const;

  /// Frequency histogram of the active region, ascending by frequency —
  /// one GroupStat per block. O(#blocks).
  std::vector<GroupStat> Histogram() const;

  /// Reconstructs the plain frequency array F (index = object id),
  /// including frozen objects. O(m). Inverse of FromFrequencies for
  /// unfrozen profiles.
  std::vector<int64_t> ToFrequencies() const;

  /// Bytes of heap storage held by the profile (arrays + block pool).
  size_t MemoryBytes() const;

  // ---------------------------------------------------------------------
  // Structural operations (extensions; see DESIGN.md §5).
  // ---------------------------------------------------------------------

  /// Freezes one minimum-frequency object: it is removed from all future
  /// queries and must not be updated again. Returns the peeled entry.
  /// O(1). Requires num_active() > 0.
  FrequencyEntry PeelMin();

  /// Grows the profile by one object slot at frequency 0 and returns its
  /// id (== old capacity()). O(log m + #blocks with positive frequency).
  uint32_t InsertSlot();

  /// True if `id` was peeled by PeelMin().
  bool IsFrozen(uint32_t id) const {
    SPROFILE_DCHECK(id < m_);
    return f_to_t_[id] < frozen_;
  }

  // ---------------------------------------------------------------------
  // Introspection.
  // ---------------------------------------------------------------------

  /// Full structural check: PtrB/FtoT/TtoF consistency, block partition,
  /// maximality, ascending order over the active region. O(m). Intended
  /// for tests and debugging.
  Status Validate() const;

  /// Rank of `id` in the sorted array T (ascending). Exposed for tests.
  uint32_t RankOf(uint32_t id) const {
    SPROFILE_DCHECK(id < m_);
    return f_to_t_[id];
  }

  /// Object at rank `rank` of T. Exposed for tests.
  uint32_t IdAtRank(uint32_t rank) const {
    SPROFILE_DCHECK(rank < m_);
    return slots_[rank].id;
  }

  /// Structural-update count backing the GroupView staleness trap. Only
  /// advanced in SPROFILE_DCHECK builds; always 0 under NDEBUG.
  uint64_t generation() const { return generation_; }

  /// Storage pages co-owned with live snapshots, and the total page count
  /// (diagnostics: a fresh Snapshot() shares every page; each subsequent
  /// write un-shares at most one).
  size_t SharedStoragePages() const {
    return f_to_t_.SharedPageCount() + slots_.SharedPageCount() +
           pool_.SharedPageCount();
  }
  size_t TotalStoragePages() const {
    return f_to_t_.num_pages() + slots_.num_pages() + pool_.PageCount();
  }

  /// The allocator every storage page of this profile (and its snapshots)
  /// comes from. Never null.
  const cow::PageAllocatorRef& page_allocator() const { return alloc_; }

  // ---------------------------------------------------------------------
  // Storage epochs (the flat fast path; see docs/ENGINE.md memory layout).
  // ---------------------------------------------------------------------

  /// True while updates run through the flat kernel: every storage page
  /// is exclusively owned and home-resident in its contiguous run. Any
  /// Snapshot() ends the epoch; it resumes via TryReflatten once the last
  /// pinning snapshot dies.
  bool storage_flat() const { return flat_ready_; }

  /// Attempts to (re-)enter the flat epoch now (ApplyBatch and the engine
  /// worker's idle loop call this; singles re-probe every
  /// kReflattenPeriod paged updates). O(1) while a known snapshot still
  /// pins a page (a witness refcount is polled); otherwise O(#pages) plus
  /// one dirty-run copy per page faulted since the last publication.
  /// Returns storage_flat(). Never available on non-run allocators
  /// (HeapPageAllocator / ASan builds) — everything else behaves
  /// identically there.
  bool TryReflatten();

  /// Updates that ran through the PAGED kernel since construction (the
  /// flat share of N total updates is (N - paged_updates()) / N). Counted
  /// on the paged path only so the flat hot path stays counter-free.
  uint64_t paged_updates() const { return paged_updates_; }

  /// Paged updates between flat re-entry probes on the singles path.
  static constexpr uint32_t kReflattenPeriod = 64;

  /// Paged updates tolerated (since the last flat epoch) before
  /// TryReflatten forcibly diverges snapshot-pinned pages. At ~30 ns of
  /// paged-kernel premium per update this is ~120 us of waste — about the
  /// cost of the full-array copy the force pays — so a profile that keeps
  /// ingesting breaks even immediately and wins from there on, while a
  /// briefly-written profile never triggers it.
  static constexpr uint32_t kForceReflattenUpdates = 4096;

  /// Allocator counters for this profile's storage: pages live, COW
  /// faults, arenas created/reclaimed (zero arena fields under the heap
  /// allocator). Shared-allocator caveat: profiles constructed with the
  /// same allocator (e.g. small profiles on the process heap) share one
  /// counter set.
  cow::PageAllocStats StorageStats() const { return alloc_->Stats(); }

 private:
  using RankSlot = internal::RankSlot;

  /// Selects the constructor that sizes every array but leaves the rank
  /// cells and the block pool for the caller to fill (FromFrequencies).
  struct Unfilled {};
  FrequencyProfile(uint32_t num_objects, cow::PageAllocatorRef alloc,
                   Unfilled);

  /// Bulk-build writer of the rank cells: puts `id` at `rank` in `block`.
  /// Writes through raw pointers when both fresh arrays are flat
  /// (run-capable allocators), else through Mutable(); the page-table
  /// walk would double the cost of the restart's placement pass.
  class RankWriter {
   public:
    explicit RankWriter(FrequencyProfile& p);
    void Place(uint32_t id, uint32_t rank, BlockHandle block) {
      if (slots_ != nullptr) {
        slots_[rank] = RankSlot{id, block};
        ranks_[id] = rank;
        return;
      }
      p_.slots_.Mutable(rank) = RankSlot{id, block};
      p_.f_to_t_.Mutable(id) = rank;
    }

   private:
    FrequencyProfile& p_;
    RankSlot* slots_ = nullptr;
    uint32_t* ranks_ = nullptr;
  };

  /// COW share: O(#pages). Backs Snapshot(). Sharing ends the SOURCE's flat epoch too (its pages are now pinned),
  /// so its flat_ready_ cache is cleared — the flag is mutable for
  /// exactly this owner-side bookkeeping.
  FrequencyProfile(const FrequencyProfile& other)
      : m_(other.m_),
        frozen_(other.frozen_),
        total_count_(other.total_count_),
        generation_(other.generation_),
        alloc_(other.alloc_),
        pool_(other.pool_),
        f_to_t_(other.f_to_t_),
        slots_(other.slots_) {
    if (other.flat_ready_) {
      // The share ends the source's flat epoch: record the flip with how
      // many paged updates the previous paged span accumulated.
      obs::Trace(obs::TraceEvent::kEpochFlip, 0, other.paged_updates_);
    }
    other.flat_ready_ = false;
  }

  /// Swaps the objects at ranks a and b (both must belong to one block, so
  /// the block pointers need no fixup).
  void SwapRanks(uint32_t a, uint32_t b) {
    if (a == b) return;
    const uint32_t ida = slots_[a].id;
    const uint32_t idb = slots_[b].id;
    slots_.Mutable(a).id = idb;
    slots_.Mutable(b).id = ida;
    f_to_t_.Mutable(ida) = b;
    f_to_t_.Mutable(idb) = a;
  }

  // ---------------------------------------------------------------------
  // The update kernel, written ONCE and instantiated over two storage
  // policies (frequency_profile.cc): PagedOps (the COW arrays, exactly
  // the PR-3/4 path) and FlatOps (raw base pointers from the exclusive
  // epoch — zero page-table loads, the layout of the pre-COW flat
  // arrays). Selected per drained batch / cached flag for singles.
  // ---------------------------------------------------------------------

  struct PagedOps {
    FrequencyProfile* p;

    uint32_t rank(uint32_t id) const { return p->f_to_t_[id]; }
    BlockHandle slot_block(uint32_t r) const { return p->slots_[r].block; }
    // Copy the block out: writes may COW-fault its page, and pool
    // references must not be held across other pool operations.
    Block block(BlockHandle h) const { return p->pool_.Get(h); }
    Block& mutable_block(BlockHandle h) { return p->pool_.GetMutable(h); }
    void set_slot_block(uint32_t r, BlockHandle h) {
      p->slots_.Mutable(r).block = h;
    }
    BlockHandle alloc_block(uint32_t l, uint32_t r, int64_t f) {
      return p->pool_.Alloc(l, r, f);
    }
    void free_block(BlockHandle h) { p->pool_.Free(h); }
    void swap_ranks(uint32_t a, uint32_t b) { p->SwapRanks(a, b); }
  };

  /// Raw-pointer ops for the exclusive epoch. The block base is hoisted
  /// once per update: it only moves on consolidation (never mid-update),
  /// and the one op that can degrade the pool mid-update (alloc_block
  /// growing past the run) is always the kernel's last block access — the
  /// wrapper re-checks pool_.flat_ok() before the next update.
  struct FlatOps {
    FrequencyProfile* p;
    uint32_t* f_to_t;
    internal::RankSlot* slots;
    Block* blocks;

    uint32_t rank(uint32_t id) const { return f_to_t[id]; }
    BlockHandle slot_block(uint32_t r) const { return slots[r].block; }
    Block block(BlockHandle h) const { return blocks[h]; }
    Block& mutable_block(BlockHandle h) { return blocks[h]; }
    void set_slot_block(uint32_t r, BlockHandle h) { slots[r].block = h; }
    BlockHandle alloc_block(uint32_t l, uint32_t r, int64_t f) {
      return p->pool_.FlatAlloc(l, r, f);
    }
    void free_block(BlockHandle h) { p->pool_.FlatFree(h); }
    void swap_ranks(uint32_t a, uint32_t b) {
      if (a == b) return;
      const uint32_t ida = slots[a].id;
      const uint32_t idb = slots[b].id;
      slots[a].id = idb;
      slots[b].id = ida;
      f_to_t[ida] = b;
      f_to_t[idb] = a;
    }
  };

  template <typename Ops>
  void AddImpl(Ops& ops, uint32_t id);
  template <typename Ops>
  void RemoveImpl(Ops& ops, uint32_t id);

  /// Paged-epoch halves of Add/Remove, kept out of line (.cc) so the
  /// inline wrappers stay small enough to disappear into callers' update
  /// loops: a flag test plus the flat kernel.
  void AddPaged(uint32_t id);
  void RemovePaged(uint32_t id);

  FlatOps MakeFlatOps() {
    return FlatOps{this, flat_f_to_t_, flat_slots_, pool_.flat_blocks_base()};
  }

  /// Singles-path re-entry throttle: probe TryReflatten every
  /// kReflattenPeriod paged updates (the probe itself is O(1) while a
  /// witness page stays pinned).
  bool ShouldProbeReflatten() {
    if (++reflatten_tick_ < kReflattenPeriod) return false;
    reflatten_tick_ = 0;
    return true;
  }

  /// First active rank whose frequency is >= f (== m_ when none).
  uint32_t LowerBoundRank(int64_t f) const;

  GroupView GroupAt(uint32_t rank) const;

  /// Debug-only: marks every outstanding GroupView stale. A no-op under
  /// NDEBUG so the release hot path is untouched.
  void BumpGeneration() {
#ifndef NDEBUG
    ++generation_;
#endif
  }

  uint32_t m_ = 0;       // total slots (frozen + active)
  uint32_t frozen_ = 0;  // frozen prefix length of T
  int64_t total_count_ = 0;
  uint64_t generation_ = 0;  // see BumpGeneration()

  cow::PageAllocatorRef alloc_;       // backs every paged member below
  BlockPool pool_;
  cow::PagedArray<uint32_t> f_to_t_;  // id -> rank (FtoT)
  internal::RankSlotArray slots_;     // rank -> (id, block)

  // Flat-epoch state: cached raw bases (valid only while flat_ready_) and
  // the dispatch flag itself. Mutable: taking a snapshot of a logically
  // const profile must end the source's flat epoch.
  mutable bool flat_ready_ = false;
  uint32_t* flat_f_to_t_ = nullptr;
  internal::RankSlot* flat_slots_ = nullptr;
  uint32_t reflatten_tick_ = 0;
  uint64_t paged_updates_ = 0;
  // paged_updates_ as of the last successful reflatten: once the delta
  // passes kForceReflattenUpdates, TryReflatten escalates to forced
  // divergence (CowPageArray::ForceFlat) instead of waiting for pinning
  // snapshots to die.
  uint64_t flat_paged_mark_ = 0;
};

// ---------------------------------------------------------------------------
// The update kernel: Algorithm 1 written once, instantiated over the two
// storage policies (PagedOps — the COW page path, exactly the PR-3/4
// behavior — and FlatOps — the exclusive-epoch raw-pointer path). Inline
// in the header so a caller's update loop sees through the dispatch and
// keeps the flat bases in registers.
// ---------------------------------------------------------------------------

// Algorithm 1, "add" branch (0-based). One extra step relative to the
// paper's pseudocode: x must first be swapped to the *end* of its block
// (Figure 1(b) shows the swap; the listing leaves it implicit).
template <typename Ops>
inline void FrequencyProfile::AddImpl(Ops& ops, uint32_t id) {
  BumpGeneration();

  const uint32_t rank = ops.rank(id);
  const BlockHandle bh = ops.slot_block(rank);
  const Block b = ops.block(bh);
  const uint32_t r = b.r;
  const int64_t f = b.f;

  // Move x to the right edge of its block; ranks inside a block are
  // interchangeable, so this keeps T sorted.
  ops.swap_ranks(rank, r);

  // Shrink the block from the right (steps 5-8); drop it when empty.
  if (b.l == r) {
    ops.free_block(bh);
  } else {
    ops.mutable_block(bh).r = r - 1;
  }

  // Attach rank r at frequency f+1: extend the right neighbour when it
  // already holds f+1 (steps 9-11), otherwise open a new block (12-14).
  if (r + 1 < m_) {
    const BlockHandle nh = ops.slot_block(r + 1);
    if (ops.block(nh).f == f + 1) {
      ops.mutable_block(nh).l = r;
      ops.set_slot_block(r, nh);
      ++total_count_;
      return;
    }
  }
  ops.set_slot_block(r, ops.alloc_block(r, r, f + 1));
  ++total_count_;
}

// Algorithm 1, "remove" branch (steps 16-27), mirrored.
template <typename Ops>
inline void FrequencyProfile::RemoveImpl(Ops& ops, uint32_t id) {
  BumpGeneration();

  const uint32_t rank = ops.rank(id);
  const BlockHandle bh = ops.slot_block(rank);
  const Block b = ops.block(bh);
  const uint32_t l = b.l;
  const int64_t f = b.f;

  // Move x to the left edge of its block.
  ops.swap_ranks(rank, l);

  // Shrink from the left (steps 17-20).
  if (b.r == l) {
    ops.free_block(bh);
  } else {
    ops.mutable_block(bh).l = l + 1;
  }

  // Attach rank l at frequency f-1: merge into the left neighbour when it
  // holds f-1 (steps 21-23) — but never across the frozen boundary —
  // otherwise open a new block (24-26).
  if (l > frozen_) {
    const BlockHandle ph = ops.slot_block(l - 1);
    if (ops.block(ph).f == f - 1) {
      ops.mutable_block(ph).r = l;
      ops.set_slot_block(l, ph);
      --total_count_;
      return;
    }
  }
  ops.set_slot_block(l, ops.alloc_block(l, l, f - 1));
  --total_count_;
}

inline void FrequencyProfile::Add(uint32_t id) {
  SPROFILE_DCHECK(id < m_);
  SPROFILE_DCHECK(f_to_t_[id] >= frozen_);
  if (flat_ready_) [[likely]] {
    FlatOps ops = MakeFlatOps();
    AddImpl(ops, id);
    if (!pool_.flat_ok()) [[unlikely]] flat_ready_ = false;
    return;
  }
  AddPaged(id);
}

inline void FrequencyProfile::Remove(uint32_t id) {
  SPROFILE_DCHECK(id < m_);
  SPROFILE_DCHECK(f_to_t_[id] >= frozen_);
  if (flat_ready_) [[likely]] {
    FlatOps ops = MakeFlatOps();
    RemoveImpl(ops, id);
    if (!pool_.flat_ok()) [[unlikely]] flat_ready_ = false;
    return;
  }
  RemovePaged(id);
}

}  // namespace sprofile

#endif  // SPROFILE_CORE_FREQUENCY_PROFILE_H_
