// ShardedProfiler — the concurrent profiling engine (ROADMAP: scale the
// paper's O(1) structure across cores).
//
// The paper's S-Profile is inherently sequential: one ±1 update mutates the
// block partition, so a single structure cannot take concurrent writers
// without serializing them. The engine keeps the per-structure optimality
// and shards the id space instead:
//
//   writer threads ──Add/ApplyBatch──► route by id ──► per-shard MPSC ring
//                                                         │ (bounded, lock-free)
//                                                         ▼
//                                           shard worker thread
//                                           drains via ApplyBatch into its
//                                           OWN backend profile (no locks
//                                           on the update hot path)
//                                                         │ publishes
//                                                         ▼
//                                           epoch-versioned read snapshot
//                                                         │
//   reader threads ◄──merged queries (k-way merge / summation)──┘
//
// Routing is the stride partition: shard(id) = id % N, local(id) = id / N —
// the identity-hash special case of hash sharding, which keeps every
// shard's local id space dense (a requirement of the array-based backend)
// and statically balanced to ±1 slot. The same decomposition underlies
// space-partitioned stream summaries (Chen–Indyk–Woodruff 2023).
//
// Consistency model (see docs/ENGINE.md):
//   - Queries are served from per-shard snapshots and NEVER block or lock
//     against ingestion; they may lag it.
//   - Each shard's snapshot is internally consistent and epoch-versioned
//     (epoch = events applied when it was taken); epochs are monotonic.
//   - Cross-shard reads are not a global atomic cut: a merged query can
//     observe shard A at a later epoch than shard B.
//   - Flush() is the read-your-writes barrier: on return, every event
//     enqueued before the call is applied AND visible to queries. It
//     waits for visibility only, not for the worker to free the snapshot
//     the new one replaced.
//   - Drain() additionally quiesces: it loops Flush until no new events
//     arrived and waits out every worker-side retire, leaving queues
//     empty and no free pending (assuming producers have stopped).
//   - Degraded mode (docs/ROBUSTNESS.md): a shard whose worker dies is
//     quarantined, not process-fatal — it sheds new events and serves
//     its last published snapshot; barriers return without its epoch
//     guarantee. Under OverloadPolicy::kShed/kDeadline a full ring may
//     drop events (counted in ShedEvents()), so read-your-writes holds
//     only for events Push actually accepted.
//
// Updates accept any Profiler-concept-shaped traffic (Add/Remove/Apply/
// ApplyBatch with arbitrary deltas); ShardedProfiler itself models
// FullProfiler, so the engine drops into any harness written against the
// concept vocabulary.

#ifndef SPROFILE_SPROFILE_ENGINE_SHARDED_PROFILER_H_
#define SPROFILE_SPROFILE_ENGINE_SHARDED_PROFILER_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/cow_pages.h"
#include "sprofile/adapters.h"
#include "sprofile/engine/engine_options.h"
#include "sprofile/engine/hazard_slots.h"
#include "sprofile/engine/ring_buffer.h"
#include "sprofile/event.h"
#include "sprofile/obs/metrics.h"
#include "sprofile/obs/trace_ring.h"
#include "sprofile/profiler_concept.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace sprofile {
namespace engine {

/// What a backend must provide to power a shard: the full concept
/// vocabulary (merged queries lean on TopK/KthSmallest/CountEqual/
/// Histogram), construction
/// from a capacity, and both snapshot primitives — Clone() as an explicit
/// deep copy, Snapshot() as a frozen copy that may be read from other
/// threads while the original keeps updating (copy-on-write for SProfile;
/// a plain deep copy trivially satisfies the contract too). A shard
/// publishes by Clone() or Snapshot() according to its size
/// (ShardWorker::MakePublishCopy).
template <typename B>
concept ShardBackend = FullProfiler<B> && std::constructible_from<B, uint32_t> &&
                       requires(const B& b) {
                         { b.Clone() } -> std::same_as<B>;
                         { b.Snapshot() } -> std::same_as<B>;
                       };

/// One shard's published read state: a frozen copy of its profile (deep
/// or COW-shared by the shard's size; ShardWorker::MakePublishCopy) plus
/// the number of events that had been applied when the copy was taken.
template <ShardBackend Backend>
struct ShardSnapshot {
  uint64_t epoch = 0;
  Backend profile;
};

/// Backends that can take their storage pages from an injected allocator
/// (the per-shard arena seam; adapters::SProfile models this).
template <typename B>
concept AllocatorAwareBackend =
    requires(uint32_t n, cow::PageAllocatorRef a) { B(n, std::move(a)); };

/// Backends that can report which allocator backs them (snapshot-restored
/// engines recover MemoryStats through this).
template <typename B>
concept ReportsPageAllocator = requires(const B& b) {
  { b.page_allocator() } -> std::convertible_to<cow::PageAllocatorRef>;
};

/// Backends with a storage-maintenance hook (adapters::SProfile models
/// this with FrequencyProfile::TryReflatten): the shard worker calls it
/// whenever its queue runs dry, so the backend can re-enter its
/// exclusive-epoch flat layout — merging post-publish fault copies back
/// into contiguous runs — off the ingestion path. Bounded work: O(1)
/// while the last published snapshot still pins pages (a witness
/// refcount is polled), one dirty-run copy per faulted page otherwise.
template <typename B>
concept MaintainsStorage = requires(B& b) { b.MaintainStorage(); };

/// Aggregated storage counters across every shard whose allocator the
/// engine knows (ShardedProfilerT::MemoryStats): arena lifecycle, live
/// pages, and the post-publish COW fault tally.
struct EngineMemoryStats {
  cow::PageAllocStats totals;
  /// Shards contributing to `totals` (a backend without an allocator seam
  /// reports nothing).
  uint32_t shards_reporting = 0;
};

/// One shard's supervision state (ShardedProfilerT::HealthOf). A
/// quarantined shard has lost its worker to an uncaught drain failure:
/// it sheds all new events but keeps answering queries from the last
/// snapshot it published — the stale-serve rung of the degradation
/// ladder (docs/ROBUSTNESS.md).
struct ShardHealth {
  bool quarantined = false;
  /// The quarantining exception's what(); empty while healthy.
  std::string message;
  /// Epoch of the snapshot currently being served. Frozen from the
  /// moment of quarantine onward.
  uint64_t published_epoch = 0;
  /// Events this shard's Push dropped (overload shed or quarantine).
  uint64_t shed_events = 0;
};

namespace internal {

/// Builds the per-shard arena allocator (NUMA binding included). Defined
/// out of line in src/engine/sharded_profiler.cc so this public header
/// does not reach into core/page_arena.h — the splint facade-includes
/// rule (tools/lint/README.md) holds the boundary.
cow::PageAllocatorRef MakeEngineArenaAllocator(const EngineOptions& options,
                                               int pin_core,
                                               uint64_t footprint_bytes);

/// One shard: the ingestion queue, the worker thread that drains it, the
/// live (worker-private) profile, and the published snapshot.
///
/// Thread roles:
///   producers   Push(), enqueued()
///   worker      Run() — sole toucher of live_ after construction
///   readers     snapshot(), SnapshotFrequency(), applied(),
///               RequestSnapshotAt(), AwaitSnapshotAt(), WaitRetired()
template <ShardBackend Backend>
class ShardWorker {
 public:
  /// The backend is NOT constructed here: `factory` runs on the worker
  /// thread after it has (optionally) pinned itself, so the profile's
  /// arena pages are first touched — and therefore NUMA-placed — on the
  /// core that will run every update (EngineOptions::numa_policy).
  /// Callers must WaitReady() before reading snapshots.
  ShardWorker(std::function<Backend()> factory, const EngineOptions& options,
              uint32_t shard_index, int pin_core,
              cow::PageAllocatorRef allocator)
      : queue_(options.queue_capacity),
        drain_batch_(options.drain_batch),
        snapshot_interval_(options.snapshot_interval == 0
                               ? std::numeric_limits<uint64_t>::max()
                               : options.snapshot_interval),
        overload_policy_(options.overload_policy),
        push_deadline_us_(options.push_deadline_us),
        pin_core_(pin_core),
        pause_capacity_(options.pause_sample_capacity),
        shard_index_(static_cast<uint16_t>(shard_index)),
        allocator_(std::move(allocator)),
        factory_(std::move(factory)) {
    worker_ = std::thread([this] { Run(); });
  }

  ~ShardWorker() {
    stop_.store(true, std::memory_order_release);
    WakeIfParked();
    worker_.join();
    // No lookup runs during destruction: nothing can name what is left.
    retired_.clear();
  }

  /// Blocks until the worker has constructed its backend and published
  /// the epoch-0 snapshot. The engine constructor calls this for every
  /// shard before returning, so all other members may assume readiness.
  /// If backend construction threw on the worker thread (e.g. bad_alloc
  /// on a huge capacity), the exception is rethrown HERE, on the caller,
  /// keeping engine construction failures catchable at the construction
  /// site exactly as when backends were built on the caller thread.
  void WaitReady() SPROFILE_EXCLUDES(done_mu_) {
    std::exception_ptr error;
    {
      MutexLock lock(done_mu_);
      while (!ready_) done_cv_.Wait(done_mu_);
      error = init_error_;
    }
    if (error) std::rethrow_exception(error);
  }

  /// The allocator backing this shard's pages; null when unknown (backend
  /// without an allocator seam).
  const cow::PageAllocatorRef& allocator() const { return allocator_; }

  /// This shard's lifecycle trace ring: every obs::Trace() emitted on the
  /// worker thread — publishes, COW faults, re-flattens, arena ops —
  /// lands here (ScopedTraceRing installed for the whole of Run()).
  const obs::TraceRing& trace_ring() const { return trace_; }

  /// Producer-contention counters from the ingestion ring, cumulative
  /// (see MpscRingBuffer). The engine sums these into callback gauges.
  uint64_t ring_enqueue_retries() const { return queue_.enqueue_retries(); }
  uint64_t ring_full_rejections() const { return queue_.full_rejections(); }

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  /// Failed full-ring probes tolerated before Push stops trusting
  /// sched_yield and sleeps for real.
  static constexpr uint32_t kPushSpinLimit = 64;

  /// Ceiling of the slow-path sleep ladder under kBlock/kDeadline: well
  /// under the time the worker needs to drain a few batches, so a
  /// recovering ring never runs dry waiting on a sleeping producer.
  static constexpr uint64_t kPushBackoffCapUs = 256;

  /// Enqueues up to n events per the configured OverloadPolicy. Returns
  /// how many the ring accepted: always n under kBlock; possibly fewer
  /// under kShed/kDeadline, with the remainder counted in shed_events()
  /// and the sprofile_engine_shed_events counter. A quarantined shard
  /// sheds immediately under every policy — its worker will never drain
  /// again, so waiting on it would hang. Safe from any number of
  /// producer threads.
  size_t Push(const Event* data, size_t n) {
    size_t done = 0;
    uint32_t spins = 0;
    uint64_t backoff_us = 1;
    std::chrono::steady_clock::time_point wait_start{};
    bool waited = false;
    while (done < n) {
      // orders: acquire pairs with Quarantine's release store — a
      // producer that sees the flag also sees the worker gone for good.
      if (quarantined_.load(std::memory_order_acquire)) break;
      const size_t pushed = queue_.TryPushSpan(data + done, n - done);
      done += pushed;
      if (done >= n) break;
      // Full: make sure the worker is running, then let it drain.
      WakeIfParked();
      if (pushed > 0) {
        spins = 0;
        backoff_us = 1;
      }
      if (++spins <= kPushSpinLimit) {
        std::this_thread::yield();
        continue;
      }
      // The yield phase failed: the worker is behind by a whole queue
      // capacity, so there is nothing useful to do for a while. kShed
      // gives up right here. The waiting policies force a real
      // deschedule — on an oversubscribed machine sched_yield is only a
      // hint, and a spinning producer can burn its whole timeslice
      // re-probing while the worker waits for the core — with the sleep
      // doubling from 1 us up to kPushBackoffCapUs: short while the
      // backlog is transient, capped once it clearly is not.
      if (overload_policy_ == OverloadPolicy::kShed) break;
      const auto now = std::chrono::steady_clock::now();
      if (!waited) {
        waited = true;
        wait_start = now;
      }
      uint64_t sleep_us = backoff_us;
      if (overload_policy_ == OverloadPolicy::kDeadline) {
        const auto budget = std::chrono::microseconds(push_deadline_us_);
        const auto spent = now - wait_start;
        if (spent >= budget) break;
        // Clamp the last sleep to the remaining budget so the bound in
        // sprofile_engine_ring_push_wait_ns overshoots the deadline by
        // scheduler noise only, never by a whole backoff step.
        const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
            budget - spent);
        sleep_us = std::min<uint64_t>(
            sleep_us, static_cast<uint64_t>(left.count()) + 1);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
      backoff_us = std::min<uint64_t>(backoff_us * 2, kPushBackoffCapUs);
      spins = 0;
    }
    if (waited) {
      SPROFILE_METRIC_HISTOGRAM(
          "sprofile_engine_ring_push_wait_ns", "ns",
          "Producer slow-path wait per Push once yield spins gave up")
          .Record(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - wait_start)
                  .count()));
    }
    if (done > 0) WakeIfParked();
    if (done < n) RecordShed(n - done);
    return done;
  }

  /// Events pushed into this shard's ring, counted in ring order: every
  /// event of a Push that has returned is below it, so it is the epoch a
  /// barrier waits for. A count bumped as each Push returns would not do:
  /// it can count a producer whose events sit behind another producer's
  /// still-unwritten ones, and a snapshot at that count holds the other
  /// producer's events instead.
  uint64_t enqueued() const { return queue_.reserved(); }
  uint64_t applied() const { return applied_.load(std::memory_order_acquire); }

  /// True once the worker has died on an uncaught drain failure. The
  /// shard stops ingesting (Push sheds) but keeps serving its last
  /// published snapshot — the stale-serve rung of the degradation
  /// ladder (docs/ROBUSTNESS.md).
  bool quarantined() const {
    // orders: acquire pairs with Quarantine's release store.
    return quarantined_.load(std::memory_order_acquire);
  }

  /// What killed the worker; empty while healthy. Stable once set (the
  /// worker quarantines at most once).
  std::string quarantine_message() const SPROFILE_EXCLUDES(done_mu_) {
    MutexLock lock(done_mu_);
    return quarantine_message_;
  }

  /// Events dropped by Push under kShed/kDeadline overload or against a
  /// quarantined shard, cumulative.
  uint64_t shed_events() const {
    // orders: relaxed — advisory statistic, mirrors the ring counters.
    return shed_.load(std::memory_order_relaxed);
  }

  /// Epoch of the currently published snapshot, without touching the
  /// snapshot itself (health probes use this so they do not count as
  /// stale serves).
  uint64_t published_epoch() const {
    // orders: acquire pairs with Publish's release store.
    return snapshot_epoch_.load(std::memory_order_acquire);
  }

  /// The current published snapshot (never null; epoch 0 at startup).
  /// Reads against a quarantined shard still succeed — frozen at the
  /// last published epoch — and are tallied in
  /// sprofile_engine_stale_query_serves.
  std::shared_ptr<const ShardSnapshot<Backend>> snapshot() const
      SPROFILE_EXCLUDES(snapshot_mu_) {
    CountStaleServe();
    MutexLock lock(snapshot_mu_);
    return snapshot_;
  }

  /// Frequency of local id `id` in the current snapshot, read with no
  /// lock and no refcount change: the calling thread's hazard slot names
  /// the snapshot for the length of the lookup (hazard_slots.h), and the
  /// worker frees a replaced snapshot only once no slot names it.
  int64_t SnapshotFrequency(uint32_t id) const {
    CountStaleServe();
    const HazardPointer<ShardSnapshot<Backend>> snap(current_);
    return snap->profile.Frequency(id);
  }

  /// Publish pauses observed so far (ns the worker spent producing and
  /// swapping in each snapshot copy — the per-publication ingestion
  /// stall). Bounded history: the most recent
  /// EngineOptions::pause_sample_capacity samples, overwritten in ring
  /// order. The obs histogram sprofile_engine_publish_pause_ns keeps the
  /// full-history log-bucketed view.
  std::vector<uint64_t> PublishPausesNs() const
      SPROFILE_EXCLUDES(snapshot_mu_) {
    MutexLock lock(snapshot_mu_);
    return pause_ns_;
  }

  /// How long AwaitSnapshotAt polls before it sleeps on done_cv_: about
  /// one publish. A condvar round trip to a sleeping waiter costs tens of
  /// microseconds on a virtualized host, against well under one when the
  /// waiter is still polling as the epoch lands.
  static constexpr auto kAwaitSpin = std::chrono::microseconds(100);

  /// First half of a barrier: asks the worker for a snapshot with epoch
  /// >= target and wakes it if it is parked. Returns at once, so a
  /// barrier can post to every shard before it waits on any. `target`
  /// must be <= enqueued() (otherwise nothing guarantees progress).
  void RequestSnapshotAt(uint64_t target) {
    uint64_t cur = snapshot_target_.load(std::memory_order_relaxed);
    // orders: release pairs with SnapshotDue's acquire load.
    while (cur < target && !snapshot_target_.compare_exchange_weak(
                               cur, target, std::memory_order_release)) {
    }
    WakeIfParked();
  }

  /// Second half of a barrier: blocks until a snapshot with epoch >=
  /// target is published. Polls for up to kAwaitSpin, then sleeps on
  /// done_cv_. Returns early — without the epoch guarantee — if the
  /// worker quarantines: a dead worker publishes nothing more, and
  /// barriers (Flush/Drain) must not hang on it.
  void AwaitSnapshotAt(uint64_t target) SPROFILE_EXCLUDES(done_mu_) {
    if (Reached(target)) return;
    const auto spin_end = std::chrono::steady_clock::now() + kAwaitSpin;
    while (!Reached(target)) {
      if (std::chrono::steady_clock::now() >= spin_end) {
        MutexLock lock(done_mu_);
        while (!Reached(target)) done_cv_.Wait(done_mu_);
        return;
      }
    }
  }

  /// Blocks until the worker has freed every snapshot replaced up to the
  /// currently published epoch: no worker-side free is pending on return.
  /// Returns early if the worker quarantines, like AwaitSnapshotAt.
  void WaitRetired() SPROFILE_EXCLUDES(done_mu_) {
    const uint64_t target = published_epoch();
    MutexLock lock(done_mu_);
    while (retired_epoch_ < target &&
           !quarantined_.load(std::memory_order_acquire)) {
      done_cv_.Wait(done_mu_);
    }
  }

 private:
  void Run() {
    PinIfConfigured();
    // Every lifecycle event emitted below this frame — COW faults inside
    // ApplyBatch, arena create/reclaim, re-flatten probes, the publish
    // begin/end pairs — lands in this shard's ring with its shard id.
    obs::ScopedTraceRing trace_scope(&trace_, shard_index_);
    try {
      // Construct the backend on THIS thread: with an arena allocator the
      // construction loop is the first touch of every storage page, which
      // places the mapping node-local under a pinned worker (the
      // libnuma-free half of numa_policy=local).
      live_.emplace(factory_());
      factory_ = nullptr;  // release captured state (restored backends)
      copy_publish_ =
          ProfileFootprintBytes(live_->capacity()) <= kCopyPublishMaxBytes;
      Publish(/*initial=*/true);  // the epoch-0 snapshot
    } catch (...) {
      // Hand the failure to WaitReady (the engine constructor) instead of
      // letting it escape the thread function as std::terminate.
      {
        MutexLock lock(done_mu_);
        init_error_ = std::current_exception();
        ready_ = true;
      }
      done_cv_.NotifyAll();
      return;
    }
    {
      MutexLock lock(done_mu_);
      ready_ = true;
    }
    done_cv_.NotifyAll();

    // Metric references hoisted out of the drain loop: the macros memoize
    // the registry lookup in a function-local static already, but hoisting
    // keeps even the static-init guard check off the per-batch path.
    obs::Counter& m_drained = SPROFILE_METRIC_COUNTER(
        "sprofile_engine_events_drained", "events",
        "Events applied by shard workers, summed over all shards");
    obs::Counter& m_batches = SPROFILE_METRIC_COUNTER(
        "sprofile_engine_drain_batches", "batches",
        "Ring drains that returned at least one event");
    obs::Histogram& m_drain_ns = SPROFILE_METRIC_HISTOGRAM(
        "sprofile_engine_drain_batch_ns", "ns",
        "Per-batch drain latency: queue pop through backend ApplyBatch");
    obs::Gauge& m_depth_hw = SPROFILE_METRIC_GAUGE(
        "sprofile_engine_ring_depth_highwater", "events",
        "Deepest ingestion backlog (enqueued - applied) seen at drain time");
    std::vector<Event> batch(drain_batch_);
    uint64_t since_snapshot = 0;
    // Supervision: a drain-loop failure (backend invariant blown,
    // bad_alloc past the heap-fallback rung, injected fault) quarantines
    // THIS shard instead of taking the process down via std::terminate.
    // The last published snapshot keeps serving; Push sheds from now on.
    try {
    for (;;) {
      const size_t n = queue_.TryPopBatch(batch.data(), drain_batch_);
      if (n > 0) {
        if (SPROFILE_FAILPOINT("engine_worker_drain_fail")) {
          throw std::runtime_error(
              "injected drain failure (failpoint engine_worker_drain_fail)");
        }
        // The Enabled() gate keeps both clock reads off the drain path
        // when obs is off (the bench's obs={on,off} overhead row).
        const uint64_t t0 = obs::Enabled() ? obs::TraceRing::NowNs() : 0;
        live_->ApplyBatch(std::span<const Event>(batch.data(), n));
        applied_.fetch_add(n, std::memory_order_release);
        if (t0 != 0) m_drain_ns.Record(obs::TraceRing::NowNs() - t0);
        m_drained.Add(n);
        m_batches.Increment();
        // Backlog including the batch just popped (it is still the
        // worker's unapplied debt).
        m_depth_hw.UpdateMax(static_cast<int64_t>(
            enqueued() - (applied_.load(std::memory_order_relaxed) - n)));
        since_snapshot += n;
        if (since_snapshot >= snapshot_interval_ || SnapshotDue()) {
          Publish();
          since_snapshot = 0;
        }
        continue;
      }
      // Queue drained. An explicit snapshot barrier (RequestSnapshotAt)
      // publishes immediately; the freshness-only idle refresh is
      // deferred until a park expires — roughly a millisecond of genuine
      // idleness — so "write burst, then read" workloads still see fresh
      // statistics without a Flush. A transient empty during
      // producer/worker ping-pong (the common case under sustained
      // ingestion, where the producer re-wakes the worker within
      // microseconds) no longer pays a COW publish: each one left every
      // live page shared with the retained snapshot, and the ~175 us of
      // page-unsharing write faults per publish cycle (m = 2^16) was the
      // single largest cost on a core-constrained ingestion run.
      if (SnapshotDue()) {
        Publish();
        since_snapshot = 0;
      }
      // A point lookup still named a replaced snapshot when it was
      // retired: retry the free before parking, so a Drain waits for it
      // one park at most.
      if (!retired_.empty()) {
        ReclaimRetired();
        if (retired_.empty()) {
          SettleStorage();
          MarkRetired(snapshot_epoch_.load(std::memory_order_relaxed));
        }
      }
      // Idle storage maintenance: let the backend re-flatten toward its
      // exclusive-epoch layout while nothing is queued (copy-published
      // shards, once their epoch-0 grab is gone, and burst-idle COW
      // shards profit; under a live COW snapshot this is one witness
      // poll). The backend also probes per drained batch inside its own
      // ApplyBatch.
      if constexpr (MaintainsStorage<Backend>) {
        live_->MaintainStorage();
      }
      if (stop_.load(std::memory_order_acquire)) {
        if (queue_.Empty()) return;
        continue;  // a straggler push raced the stop flag; drain it
      }
      if (Park() && queue_.Empty() &&
          snapshot_epoch_.load(std::memory_order_relaxed) !=
              applied_.load(std::memory_order_relaxed)) {
        Publish();
        since_snapshot = 0;
      }
    }
    } catch (...) {
      Quarantine(std::current_exception());
    }
  }

  /// Marks this shard dead-but-serving after a drain failure: producers
  /// shed, barriers stop waiting on it, queries keep answering from the
  /// frozen snapshot. Worker thread only; runs at most once, then the
  /// thread exits.
  void Quarantine(std::exception_ptr error)
      SPROFILE_EXCLUDES(done_mu_) {
    std::string msg = "unknown exception";
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      msg = e.what();
    } catch (...) {
    }
    {
      MutexLock lock(done_mu_);
      quarantine_message_ = std::move(msg);
      // orders: release pairs with the acquire loads in Push, snapshot(),
      // quarantined() and Reached — whoever sees the flag also sees the
      // message and the final snapshot state. Stored under done_mu_ so a
      // sleeping AwaitSnapshotAt cannot miss the notify between its
      // condition check and its wait.
      quarantined_.store(true, std::memory_order_release);
    }
    done_cv_.NotifyAll();
    obs::Trace(obs::TraceEvent::kQuarantine, shard_index_);
    SPROFILE_METRIC_COUNTER(
        "sprofile_engine_quarantines", "shards",
        "Shard workers quarantined after an uncaught drain failure")
        .Increment();
  }

  /// True once a barrier waiting for `target` may return: the epoch is
  /// published, or the shard quarantined and will publish nothing more.
  bool Reached(uint64_t target) const {
    // orders: acquire pairs with Publish's release store of
    // snapshot_epoch_ — the published snapshot contents happen-before the
    // waiter's reads — and with Quarantine's release store.
    return snapshot_epoch_.load(std::memory_order_acquire) >= target ||
           quarantined_.load(std::memory_order_acquire);
  }

  /// A barrier asked for a snapshot at snapshot_target_ and enough events
  /// have been applied to honor it.
  bool SnapshotDue() const {
    const uint64_t target = snapshot_target_.load(std::memory_order_acquire);
    return target > snapshot_epoch_.load(std::memory_order_relaxed) &&
           applied_.load(std::memory_order_relaxed) >= target;
  }

  /// The snapshot copy, chosen by the shard's storage footprint. At or
  /// under kCopyPublishMaxBytes it is a deep copy (Clone): the live
  /// profile then shares no page, so its writes never COW-fault, and the
  /// O(m_s) copy costs less than those faults would. A larger shard grabs
  /// its pages (Snapshot, O(#pages)). The epoch-0 snapshot is always a
  /// grab: nothing has been written yet, so a copy would only first-touch
  /// fresh memory. Worker thread only (the backend lives there).
  Backend MakePublishCopy(bool initial) const {
    return copy_publish_ && !initial ? live_->Clone() : live_->Snapshot();
  }

  void PinIfConfigured() {
#if defined(__linux__)
    // Cores beyond the static cpu_set_t range are skipped rather than
    // wrapped: pinning shard 1500 to core 1500 % 1024 would collide two
    // workers on one core and bind arenas to the wrong node. Best-effort
    // throughout: any failure (cpuset-restricted container, exotic
    // machine) leaves the worker floating — correct, just without the
    // locality win.
    if (pin_core_ < 0 || pin_core_ >= static_cast<int>(CPU_SETSIZE)) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<unsigned>(pin_core_), &set);
    (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#endif
  }

  /// Tallies a snapshot read against a quarantined shard.
  void CountStaleServe() const {
    if (quarantined_.load(std::memory_order_acquire)) {
      SPROFILE_METRIC_COUNTER(
          "sprofile_engine_stale_query_serves", "queries",
          "Snapshot reads answered from a quarantined shard's frozen state")
          .Increment();
    }
  }

  /// Publishes a snapshot at the applied epoch. `initial` marks the
  /// epoch-0 publish: always a page grab, and its pause is not recorded.
  void Publish(bool initial = false)
      SPROFILE_EXCLUDES(snapshot_mu_, done_mu_) {
    const uint64_t epoch = applied_.load(std::memory_order_relaxed);
    obs::Trace(obs::TraceEvent::kPublishBegin, static_cast<uint32_t>(epoch));
    // The publish stall is everything between the worker pausing ingestion
    // and resuming it: producing the copy, swapping it in, and freeing the
    // replaced snapshots no lookup names (an O(m_s) free for a
    // copy-published shard). The epoch is published before the free, so
    // a Flush waiter pays for visibility only; Drain waits for the free
    // through retired_epoch_.
    const auto pause_start = std::chrono::steady_clock::now();
    auto snap = std::make_shared<const ShardSnapshot<Backend>>(
        ShardSnapshot<Backend>{epoch, MakePublishCopy(initial)});
    // Room for the replaced snapshot now: a throw after the swap would
    // free it while a lookup may still name it.
    retired_.reserve(retired_.size() + 1);
    {
      MutexLock lock(snapshot_mu_);
      if (snapshot_ != nullptr) retired_.push_back(std::move(snapshot_));
      snapshot_ = std::move(snap);
      // orders: seq_cst — the reclaimer's half of the hazard Dekker pair
      // (hazard_slots.h): it precedes the slot scan in ReclaimRetired in
      // one total order with the readers' slot exchanges and re-loads.
      // Also a release for the readers' acquire load of the new snapshot.
      current_.store(snapshot_.get(), std::memory_order_seq_cst);
    }
    {
      // Epoch advances under done_mu_ so a sleeping AwaitSnapshotAt
      // cannot miss the notify between its condition check and its wait.
      // orders: release pairs with Reached's acquire load.
      MutexLock lock(done_mu_);
      snapshot_epoch_.store(epoch, std::memory_order_release);
    }
    const auto retire_start = std::chrono::steady_clock::now();
    done_cv_.NotifyAll();
    ReclaimRetired();  // old-snapshot teardown, still charged to the stall
    if (retired_.empty()) SettleStorage();
    const auto retire_end = std::chrono::steady_clock::now();
    const auto ns = [](auto d) {
      return static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
    };
    const uint64_t pause_ns = ns(retire_end - pause_start);
    obs::Trace(obs::TraceEvent::kPublishEnd, static_cast<uint32_t>(epoch),
               pause_ns);
    SPROFILE_METRIC_COUNTER("sprofile_engine_publishes", "snapshots",
                            "Shard snapshot publications (epoch-0 included)")
        .Increment();
    if (!initial) {
      SPROFILE_METRIC_HISTOGRAM(
          "sprofile_engine_publish_pause_ns", "ns",
          "Worker ingestion stall per snapshot publication")
          .Record(pause_ns);
      SPROFILE_METRIC_HISTOGRAM(
          "sprofile_engine_publish_retire_ns", "ns",
          "Publish tail after the epoch is visible: notify plus retiring "
          "the previous snapshot")
          .Record(ns(retire_end - retire_start));
      MutexLock lock(snapshot_mu_);
      if (pause_ns_.size() < pause_capacity_) {
        pause_ns_.push_back(pause_ns);
      } else {
        pause_ns_[pause_ring_next_++ % pause_capacity_] = pause_ns;
      }
    }
    if (retired_.empty()) MarkRetired(epoch);
  }

  /// Frees every retired snapshot that no hazard slot names and keeps
  /// the rest for a later publish or idle pass. Runs after current_ has
  /// moved off them. Worker thread only.
  void ReclaimRetired() {
    const HazardRegistry& hazards = HazardRegistry::Global();
    std::erase_if(retired_, [&hazards](const auto& snap) {
      return !hazards.Named(snap.get());
    });
    if (!retired_.empty()) {
      SPROFILE_METRIC_COUNTER(
          "sprofile_engine_retire_deferred", "snapshots",
          "Snapshot frees a retire scan deferred because a point lookup "
          "still named the snapshot, counted per snapshot per scan")
          .Add(retired_.size());
    }
  }

  /// Runs once no replaced snapshot is left, before MarkRetired. A
  /// copy-published shard shares pages with nothing but its epoch-0 grab,
  /// so once that is gone it re-flattens here: its first burst's fault
  /// copies are freed before Drain is told the retire is done, not on a
  /// later idle tick. Afterwards, and on a COW shard, whose published
  /// snapshot always pins its pages, this is one witness poll.
  void SettleStorage() {
    if constexpr (MaintainsStorage<Backend>) {
      live_->MaintainStorage();
    }
  }

  /// Tells Drain that every snapshot replaced up to `epoch` is freed. A
  /// Drain that sees the epoch under done_mu_ also sees the frees and
  /// every record Publish made before this.
  void MarkRetired(uint64_t epoch) SPROFILE_EXCLUDES(done_mu_) {
    {
      MutexLock lock(done_mu_);
      retired_epoch_ = epoch;
    }
    done_cv_.NotifyAll();
  }

  /// Returns true when the park expired on its own — roughly a
  /// millisecond of genuine idleness — rather than being cut short by a
  /// producer wake (or skipped entirely). The drain loop uses an expired
  /// park as its cue that the shard is actually idle and a deferred
  /// freshness publish is worth paying for.
  bool Park() SPROFILE_EXCLUDES(wake_mu_) {
    SPROFILE_METRIC_COUNTER("sprofile_engine_parks", "parks",
                            "Worker park attempts on an empty queue")
        .Increment();
    MutexLock lock(wake_mu_);
    parked_.store(true, std::memory_order_release);
    // The parked_ flag narrows the missed-wakeup window but cannot close
    // it (a producer can push between Empty() and wait); the bounded
    // wait_for is the safety net that turns a missed notify into 1ms of
    // latency instead of a hang.
    bool expired = false;
    if (queue_.Empty() && !stop_.load(std::memory_order_acquire) &&
        !SnapshotDue()) {
      expired = !wake_cv_.WaitFor(wake_mu_, std::chrono::milliseconds(1));
    }
    parked_.store(false, std::memory_order_release);
    return expired;
  }

  /// Tallies events Push gave up on (policy drop or quarantine): the
  /// shard-local counter behind shed_events(), the process counter, and
  /// a trace record carrying the drop size.
  void RecordShed(size_t dropped) {
    // orders: relaxed — advisory statistic, mirrors the ring counters.
    shed_.fetch_add(dropped, std::memory_order_relaxed);
    SPROFILE_METRIC_COUNTER(
        "sprofile_engine_shed_events", "events",
        "Events dropped under kShed/kDeadline overload or quarantine")
        .Add(static_cast<int64_t>(dropped));
    obs::Trace(obs::TraceEvent::kShed, shard_index_, dropped);
  }

  void WakeIfParked() SPROFILE_EXCLUDES(wake_mu_) {
    // orders: acquire pairs with Park's release store of parked_, so a
    // producer that sees the flag also sees the worker committed to (or
    // already inside) the bounded wait.
    if (parked_.load(std::memory_order_acquire)) {
      // Counted only when a notify is actually sent: the flag check above
      // runs on every producer Push and must stay a single load.
      SPROFILE_METRIC_COUNTER(
          "sprofile_engine_wakes", "wakes",
          "Wake notifications sent to parked workers by producers and "
          "barriers")
          .Increment();
      MutexLock lock(wake_mu_);
      wake_cv_.NotifyOne();
    }
  }

  MpscRingBuffer<Event> queue_;
  const uint32_t drain_batch_;
  const uint64_t snapshot_interval_;
  const OverloadPolicy overload_policy_;
  const uint32_t push_deadline_us_;  // kDeadline wait budget per Push
  const int pin_core_;  // -1 = unpinned
  const uint32_t pause_capacity_;   // EngineOptions::pause_sample_capacity
  const uint16_t shard_index_;      // recorded on every trace event
  // Per-shard lifecycle ring: 1024 slots (32 KiB) — lifecycle events are
  // per publish/fault/arena-op, so a small window covers a post-mortem.
  obs::TraceRing trace_{1024};

  std::atomic<uint64_t> applied_{0};
  std::atomic<uint64_t> snapshot_target_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> parked_{false};
  std::atomic<uint64_t> shed_{0};
  // What a barrier waiter polls, alone on its cache line: a spinning
  // AwaitSnapshotAt must not pull the line that every drained batch
  // (applied_) writes. Both are written rarely: once per publish and
  // once per quarantine.
  alignas(kCacheLineBytes) std::atomic<uint64_t> snapshot_epoch_{0};
  std::atomic<bool> quarantined_{false};

  // May be null; stats only. Aligned to close the waiters' line above.
  alignas(kCacheLineBytes) cow::PageAllocatorRef allocator_;
  std::function<Backend()> factory_;    // consumed by the worker thread
  std::optional<Backend> live_;         // worker-private; built in Run()
  bool copy_publish_ = false;           // worker-only; set in Run()

  // snapshot() and the merged queries lock this; point lookups read
  // current_ instead. Aligned so the lock word, snapshot_ and current_
  // share no line with the tail of live_, which the worker writes on
  // every paged update. current_ sits on the lock's line so that point
  // lookups keep it warm for a reader's next merged query (perfbench
  // zipf_serve topk_us and median_us read 0.91-0.94x against current_ on
  // the waiters' line, in paired runs on a 4-vCPU KVM guest).
  alignas(kCacheLineBytes) mutable Mutex snapshot_mu_;
  std::shared_ptr<const ShardSnapshot<Backend>> snapshot_
      SPROFILE_GUARDED_BY(snapshot_mu_);
  // Raw mirror of snapshot_ for the lock-free point lookup; stored right
  // after each swap.
  std::atomic<const ShardSnapshot<Backend>*> current_{nullptr};
  std::vector<uint64_t> pause_ns_ SPROFILE_GUARDED_BY(snapshot_mu_);
  size_t pause_ring_next_ = 0;  // worker-only
  // Replaced snapshots not yet freed because a hazard slot named them at
  // the last scan. Worker-only (the destructor clears it after the join).
  std::vector<std::shared_ptr<const ShardSnapshot<Backend>>> retired_;

  mutable Mutex done_mu_;
  CondVar done_cv_;
  bool ready_ SPROFILE_GUARDED_BY(done_mu_) = false;
  std::exception_ptr init_error_ SPROFILE_GUARDED_BY(done_mu_);
  std::string quarantine_message_ SPROFILE_GUARDED_BY(done_mu_);
  // Epoch at which the worker last found retired_ empty: every snapshot
  // replaced up to it is freed. Trails snapshot_epoch_ by one publish
  // tail, or by one park while a lookup names a replaced snapshot.
  uint64_t retired_epoch_ SPROFILE_GUARDED_BY(done_mu_) = 0;
  Mutex wake_mu_;
  CondVar wake_cv_;

  std::thread worker_;  // last member: starts after everything is ready
};

}  // namespace internal

template <ShardBackend Backend = adapters::SProfile>
class ShardedProfilerT {
 public:
  using Snapshot = ShardSnapshot<Backend>;

  /// An engine over the dense id space [0, capacity), sharded per
  /// `options`. Options must be valid (use MakeShardedProfiler for checked
  /// construction).
  ShardedProfilerT(uint32_t capacity, const EngineOptions& options)
      : capacity_(capacity), options_(options) {
    SPROFILE_CHECK_MSG(options.Validate().ok(), "invalid EngineOptions");
    shards_.reserve(options_.shards);
    for (uint32_t s = 0; s < options_.shards; ++s) {
      const uint32_t shard_capacity =
          ShardCapacity(capacity, options_.shards, s);
      const int core = PinCoreFor(s);
      cow::PageAllocatorRef alloc =
          MakeShardAllocator(options_, core, shard_capacity);
      std::function<Backend()> factory;
      if constexpr (AllocatorAwareBackend<Backend>) {
        factory = [shard_capacity, alloc] {
          return Backend(shard_capacity, alloc);
        };
      } else {
        factory = [shard_capacity] { return Backend(shard_capacity); };
      }
      shards_.push_back(std::make_unique<internal::ShardWorker<Backend>>(
          std::move(factory), options_, s, core, std::move(alloc)));
    }
    WaitAllReady();
    RegisterObsGauges();
  }

  /// Rebuilds an engine from per-shard backends (snapshot restore).
  /// backends.size() must equal options.shards and each backend's capacity
  /// must match the stride partition of `capacity`. The backends carry
  /// their own storage (options.page_allocator does not re-seat them).
  ShardedProfilerT(std::vector<Backend> backends, uint32_t capacity,
                   const EngineOptions& options)
      : capacity_(capacity), options_(options) {
    SPROFILE_CHECK_MSG(options.Validate().ok(), "invalid EngineOptions");
    SPROFILE_CHECK_MSG(backends.size() == options.shards,
                       "backend count != options.shards");
    shards_.reserve(backends.size());
    for (uint32_t s = 0; s < backends.size(); ++s) {
      SPROFILE_CHECK_MSG(
          backends[s].capacity() == ShardCapacity(capacity, options_.shards, s),
          "backend capacity does not match the stride partition");
      cow::PageAllocatorRef alloc;
      if constexpr (ReportsPageAllocator<Backend>) {
        alloc = backends[s].page_allocator();
      }
      // shared_ptr holder: std::function requires a copyable callable, the
      // backend is move-only. The factory runs exactly once.
      auto holder = std::make_shared<Backend>(std::move(backends[s]));
      shards_.push_back(std::make_unique<internal::ShardWorker<Backend>>(
          [holder] { return std::move(*holder); }, options_, s, PinCoreFor(s),
          std::move(alloc)));
    }
    WaitAllReady();
    RegisterObsGauges();
  }

  // Movable (shards live behind stable unique_ptrs), not copyable.
  ShardedProfilerT(ShardedProfilerT&&) = default;
  ShardedProfilerT& operator=(ShardedProfilerT&&) = default;

  // ---------------------------------------------------------------------
  // Shape.
  // ---------------------------------------------------------------------

  uint32_t capacity() const { return capacity_; }
  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  const EngineOptions& options() const { return options_; }

  /// Stride routing: which shard owns a global id, and its dense id there.
  uint32_t ShardOf(uint32_t id) const { return id % num_shards(); }
  uint32_t LocalId(uint32_t id) const { return id / num_shards(); }
  uint32_t GlobalId(uint32_t shard, uint32_t local) const {
    return local * num_shards() + shard;
  }

  /// Slots shard s owns out of `capacity` under the stride partition.
  static constexpr uint32_t ShardCapacity(uint32_t capacity,
                                          uint32_t shards, uint32_t s) {
    return capacity > s ? (capacity - s - 1) / shards + 1 : 0;
  }

  // ---------------------------------------------------------------------
  // Ingestion — thread-safe, non-blocking except ring backpressure.
  // Every method reports how many events the rings actually accepted:
  // always everything under OverloadPolicy::kBlock on a healthy engine;
  // possibly less under kShed/kDeadline or against a quarantined shard
  // (the shortfall is counted in ShedEvents()). Callers on the unchecked
  // tier may ignore the return — shedding is silent here; the checked
  // facade turns a shortfall into Status::Unavailable.
  // ---------------------------------------------------------------------

  bool Add(uint32_t id) { return PushOne(id, +1); }
  bool Remove(uint32_t id) { return PushOne(id, -1); }
  bool Apply(uint32_t id, bool is_add) {
    return PushOne(id, is_add ? +1 : -1);
  }

  /// Routes a batch: one counting-scatter pass partitions the events by
  /// shard (remapping to local ids), then each shard gets its run in one
  /// Push — a single reservation CAS per shard per batch. Returns the
  /// number of events accepted across all shards.
  size_t ApplyBatch(std::span<const Event> events) {
    const uint32_t ns = num_shards();
    if (events.empty()) return 0;
    if (ns == 1) {
      // local id == global id; forward the span unmodified.
      SPROFILE_DCHECK(CheckIds(events));
      return shards_[0]->Push(events.data(), events.size());
    }
    SPROFILE_DCHECK(CheckIds(events));
    // Per-producer-thread scratch: ApplyBatch is the producer hot path, so
    // the counting scatter must not pay allocator traffic per chunk. Each
    // thread's buffers grow to its largest batch and stay.
    thread_local std::vector<uint32_t> offsets;
    thread_local std::vector<Event> scratch;
    offsets.assign(ns + 1, 0);
    scratch.resize(events.size());
    for (const Event& e : events) ++offsets[e.id % ns + 1];
    for (uint32_t s = 0; s < ns; ++s) offsets[s + 1] += offsets[s];
    // Scatter advancing offsets[s] in place; afterwards offsets[s] is the
    // END of shard s's run (== the original offsets[s + 1]).
    for (const Event& e : events) {
      scratch[offsets[e.id % ns]++] = Event{e.id / ns, e.delta};
    }
    size_t accepted = 0;
    for (uint32_t s = 0; s < ns; ++s) {
      const uint32_t begin = s == 0 ? 0 : offsets[s - 1];
      const uint32_t count = offsets[s] - begin;
      if (count > 0) accepted += shards_[s]->Push(&scratch[begin], count);
    }
    return accepted;
  }

  // ---------------------------------------------------------------------
  // Barriers.
  // ---------------------------------------------------------------------

  /// Read-your-writes: blocks until every event enqueued before this call
  /// is applied and published in its shard's snapshot. Every shard's
  /// request is posted before any is awaited, so the workers publish in
  /// parallel and a Flush costs one round trip to the slowest shard; a
  /// shard already published at its target costs one load. It waits for
  /// visibility only; the worker may still be freeing the snapshot the
  /// new one replaced.
  void Flush() {
    const uint64_t t0 = obs::Enabled() ? obs::TraceRing::NowNs() : 0;
    // Per-thread scratch, as in ApplyBatch: both read-your-writes latency
    // rows time this path, so it must not allocate per call.
    thread_local std::vector<uint64_t> targets;
    targets.resize(shards_.size());
    for (size_t s = 0; s < shards_.size(); ++s) {
      targets[s] = shards_[s]->enqueued();
      if (shards_[s]->published_epoch() < targets[s]) {
        shards_[s]->RequestSnapshotAt(targets[s]);
      }
    }
    for (size_t s = 0; s < shards_.size(); ++s) {
      shards_[s]->AwaitSnapshotAt(targets[s]);
    }
    if (t0 != 0) {
      SPROFILE_METRIC_HISTOGRAM("sprofile_engine_flush_ns", "ns",
                                "Flush barrier latency, per call")
          .Record(obs::TraceRing::NowNs() - t0);
    }
  }

  /// Quiesce: Flush in a loop until no new events arrive during the
  /// barrier, and wait out every worker-side retire of a replaced
  /// snapshot. With producers stopped, queues are empty and no worker
  /// free is pending on return.
  void Drain() {
    for (;;) {
      const uint64_t before = TotalEnqueued();
      Flush();
      for (const auto& s : shards_) s->WaitRetired();
      if (TotalEnqueued() == before) return;
    }
  }

  uint64_t TotalEnqueued() const {
    uint64_t sum = 0;
    for (const auto& s : shards_) sum += s->enqueued();
    return sum;
  }

  uint64_t TotalApplied() const {
    uint64_t sum = 0;
    for (const auto& s : shards_) sum += s->applied();
    return sum;
  }

  // ---------------------------------------------------------------------
  // Snapshot access.
  // ---------------------------------------------------------------------

  /// Grabs every shard's current snapshot. Each is internally consistent;
  /// the set is not a global atomic cut (see the consistency model above).
  std::vector<std::shared_ptr<const Snapshot>> SnapshotAll() const {
    std::vector<std::shared_ptr<const Snapshot>> out;
    out.reserve(shards_.size());
    for (const auto& s : shards_) out.push_back(s->snapshot());
    return out;
  }

  /// One shard's snapshot (for tests / snapshot IO).
  std::shared_ptr<const Snapshot> ShardSnapshotOf(uint32_t shard) const {
    return shards_[shard]->snapshot();
  }

  /// Aggregated storage counters across shards with a known allocator:
  /// live pages and bytes, COW fault count, arena lifecycle
  /// (created / live / reclaimed / hugepage-flagged), mapped bytes. The
  /// values are per-counter atomic reads, not a consistent cut — fine for
  /// monitoring, not for exact accounting under load.
  EngineMemoryStats MemoryStats() const {
    EngineMemoryStats out;
    for (const auto& s : shards_) {
      if (s->allocator() == nullptr) continue;
      out.totals.Accumulate(s->allocator()->Stats());
      ++out.shards_reporting;
    }
    return out;
  }

  // ---------------------------------------------------------------------
  // Health — the degradation ladder's reporting surface
  // (docs/ROBUSTNESS.md). None of these touch snapshots, so probing
  // health does not count as a stale serve.
  // ---------------------------------------------------------------------

  /// One shard's supervision state.
  ShardHealth HealthOf(uint32_t shard) const {
    const auto& w = *shards_[shard];
    ShardHealth h;
    h.quarantined = w.quarantined();
    if (h.quarantined) h.message = w.quarantine_message();
    h.published_epoch = w.published_epoch();
    h.shed_events = w.shed_events();
    return h;
  }

  /// Shards whose worker has quarantined (0 on a healthy engine). Also
  /// exported as the sprofile_engine_quarantined_shards gauge.
  uint32_t QuarantinedShards() const {
    uint32_t n = 0;
    for (const auto& s : shards_) n += s->quarantined() ? 1 : 0;
    return n;
  }

  /// True while every shard's worker is alive and ingesting.
  bool Healthy() const { return QuarantinedShards() == 0; }

  /// Events dropped across all shards (overload shed or quarantine),
  /// cumulative. 0 under OverloadPolicy::kBlock on a healthy engine.
  uint64_t ShedEvents() const {
    uint64_t sum = 0;
    for (const auto& s : shards_) sum += s->shed_events();
    return sum;
  }

  /// Publish-pause samples (ns) from every shard, unordered: how long each
  /// snapshot publication stalled its worker's ingestion. This is the
  /// metric bench_engine_scaling reports as the snapshot-publish stall:
  /// O(m_s) for a copy-published shard, O(#pages) for a COW one.
  std::vector<uint64_t> SnapshotPauseSamplesNs() const {
    std::vector<uint64_t> all;
    for (const auto& s : shards_) {
      const std::vector<uint64_t> one = s->PublishPausesNs();
      all.insert(all.end(), one.begin(), one.end());
    }
    return all;
  }

  /// Post-mortem lifecycle timeline: every shard's trace ring plus the
  /// process-global fallback ring (events emitted off worker threads),
  /// merged into one time-ordered dump. Safe concurrently with ingestion
  /// — see the obs/trace_ring.h read model (a racing wrap-around can tear
  /// individual records, never the dump).
  std::vector<obs::TraceRecord> DumpTrace() const {
    std::vector<std::vector<obs::TraceRecord>> dumps;
    dumps.reserve(shards_.size() + 1);
    for (const auto& s : shards_) dumps.push_back(s->trace_ring().Dump());
    dumps.push_back(obs::GlobalTraceRing().Dump());
    return obs::MergeTraces(dumps);
  }

  // ---------------------------------------------------------------------
  // Merged queries — all served from snapshots; none blocks ingestion.
  // ---------------------------------------------------------------------

  /// Sum of per-shard snapshot totals.
  int64_t total_count() const {
    SPROFILE_METRIC_COUNTER("sprofile_engine_query_total", "queries",
                            "total_count() merges served")
        .Increment();
    int64_t sum = 0;
    for (const auto& snap : SnapshotAll()) sum += snap->profile.total_count();
    return sum;
  }

  /// Frequency of one global id, from its owning shard's snapshot.
  int64_t Frequency(uint32_t id) const {
    SPROFILE_DCHECK(id < capacity_);
    SPROFILE_METRIC_COUNTER("sprofile_engine_query_point", "queries",
                            "Single-id Frequency() lookups served")
        .Increment();
    return shards_[ShardOf(id)]->SnapshotFrequency(LocalId(id));
  }

  /// Global maximum frequency with its tie-group size: the max of shard
  /// modes, count summed via CountEqual across shards.
  GroupStat MergedMode() const {
    SPROFILE_METRIC_COUNTER("sprofile_engine_query_mode", "queries",
                            "MergedMode()/Mode() merges served")
        .Increment();
    const auto snaps = SnapshotAll();
    bool any = false;
    int64_t best = 0;
    for (const auto& snap : snaps) {
      if (snap->profile.capacity() == 0) continue;
      const int64_t f = snap->profile.Mode();
      if (!any || f > best) best = f;
      any = true;
    }
    SPROFILE_DCHECK(any);
    uint32_t count = 0;
    for (const auto& snap : snaps) {
      if (snap->profile.capacity() == 0) continue;
      count += snap->profile.CountEqual(best);
    }
    return GroupStat{best, count};
  }

  int64_t Mode() const { return MergedMode().frequency; }

  /// Merged ascending histogram: k-way merge of per-shard histograms with
  /// equal frequencies summed. O(Σ groups · S) for S shards. The only
  /// merged query that materialises histograms: it returns every group.
  std::vector<GroupStat> Histogram() const {
    SPROFILE_METRIC_COUNTER("sprofile_engine_query_histogram", "queries",
                            "Merged Histogram() builds served")
        .Increment();
    std::vector<std::vector<GroupStat>> per_shard = PerShardHistograms();
    std::vector<size_t> cursor(per_shard.size(), 0);
    std::vector<GroupStat> merged;
    for (;;) {
      bool any = false;
      int64_t lowest = 0;
      for (size_t s = 0; s < per_shard.size(); ++s) {
        if (cursor[s] >= per_shard[s].size()) continue;
        const int64_t f = per_shard[s][cursor[s]].frequency;
        if (!any || f < lowest) lowest = f;
        any = true;
      }
      if (!any) break;
      uint32_t count = 0;
      for (size_t s = 0; s < per_shard.size(); ++s) {
        if (cursor[s] < per_shard[s].size() &&
            per_shard[s][cursor[s]].frequency == lowest) {
          count += per_shard[s][cursor[s]].count;
          ++cursor[s];
        }
      }
      merged.push_back(GroupStat{lowest, count});
    }
    return merged;
  }

  /// k-th smallest frequency over all ids, k in [1, capacity()], by S-way
  /// discard selection over the shards' own KthSmallest on one
  /// SnapshotAll(). Each round probes every non-exhausted shard at
  /// `step = max(1, k / live)` ranks past its offset (fewer if the shard
  /// has fewer left) and drops the probed prefix of the shard whose probe
  /// is smallest. In a merged order that breaks ties toward that shard,
  /// the prefix ends at rank <= live·step − (live − 1) < k, so dropping
  /// it keeps the answer. O(S² log k) probes, each O(1) on S-Profile.
  int64_t KthSmallest(uint64_t k) const {
    SPROFILE_DCHECK(k >= 1 && k <= capacity_);
    SPROFILE_METRIC_COUNTER(
        "sprofile_engine_query_quantile", "queries",
        "Rank queries served (KthSmallest/KthLargest/Median/Quantile)")
        .Increment();
    struct Cursor {
      const Backend* profile;
      uint64_t offset;  // smallest ranks already dropped
      uint64_t size;
    };
    const auto snaps = SnapshotAll();
    std::vector<Cursor> live;
    live.reserve(snaps.size());
    for (const auto& snap : snaps) {
      if (snap->profile.capacity() == 0) continue;
      live.push_back(Cursor{&snap->profile, 0, snap->profile.capacity()});
    }
    for (;;) {
      SPROFILE_DCHECK(!live.empty());
      if (live.size() == 1) {
        SPROFILE_CHECK_MSG(k >= 1 && live[0].offset + k <= live[0].size,
                           "KthSmallest rank outside the merged profile");
        return live[0].profile->KthSmallest(live[0].offset + k);
      }
      const uint64_t step = std::max<uint64_t>(1, k / live.size());
      size_t best = 0;
      uint64_t best_take = 0;
      int64_t best_value = 0;
      for (size_t i = 0; i < live.size(); ++i) {
        const uint64_t take = std::min(step, live[i].size - live[i].offset);
        const int64_t v = live[i].profile->KthSmallest(live[i].offset + take);
        if (i == 0 || v < best_value) {
          best = i;
          best_take = take;
          best_value = v;
        }
      }
      // k == 1 probed every head: the smallest is the answer.
      if (k == 1) return best_value;
      k -= best_take;
      live[best].offset += best_take;
      if (live[best].offset == live[best].size) {
        live.erase(live.begin() + best);
      }
    }
  }

  int64_t KthLargest(uint64_t k) const {
    SPROFILE_DCHECK(k >= 1 && k <= capacity_);
    return KthSmallest(capacity_ - k + 1);
  }

  /// Lower median over all ids (rank floor((capacity-1)/2)).
  int64_t Median() const { return KthSmallest((capacity_ - 1) / 2 + 1); }

  /// q-quantile, q in [0, 1]: rank floor(q * (capacity - 1)).
  int64_t Quantile(double q) const {
    SPROFILE_DCHECK(q >= 0.0 && q <= 1.0);
    const uint64_t k = static_cast<uint64_t>(q * (capacity_ - 1)) + 1;
    return KthSmallest(k);
  }

  uint32_t CountAtLeast(int64_t f) const {
    SPROFILE_METRIC_COUNTER("sprofile_engine_query_count", "queries",
                            "CountAtLeast/CountEqual merges served")
        .Increment();
    uint32_t sum = 0;
    for (const auto& snap : SnapshotAll()) {
      if (snap->profile.capacity() == 0) continue;
      sum += snap->profile.CountAtLeast(f);
    }
    return sum;
  }

  uint32_t CountEqual(int64_t f) const {
    SPROFILE_METRIC_COUNTER("sprofile_engine_query_count", "queries",
                            "CountAtLeast/CountEqual merges served")
        .Increment();
    uint32_t sum = 0;
    for (const auto& snap : SnapshotAll()) {
      if (snap->profile.capacity() == 0) continue;
      sum += snap->profile.CountEqual(f);
    }
    return sum;
  }

  /// Top-k frequencies, descending: each shard's own TopK(k) on one
  /// SnapshotAll(), merged and cut to min(k, capacity()) values. O(S·k).
  std::vector<int64_t> TopK(uint32_t k) const {
    SPROFILE_METRIC_COUNTER("sprofile_engine_query_topk", "queries",
                            "TopK() merges served")
        .Increment();
    const size_t want = std::min<uint64_t>(k, capacity_);
    std::vector<int64_t> out;
    std::vector<int64_t> merged;
    for (const auto& snap : SnapshotAll()) {
      if (snap->profile.capacity() == 0) continue;
      const std::vector<int64_t> top = snap->profile.TopK(k);
      merged.resize(out.size() + top.size());
      std::merge(out.begin(), out.end(), top.begin(), top.end(),
                 merged.begin(), std::greater<>());
      merged.resize(std::min(merged.size(), want));
      out.swap(merged);
    }
    return out;
  }

 private:
  /// The core shard s's worker pins to, or -1 when pinning is off.
  /// Validate() guarantees shards <= cores when the core count is known.
  int PinCoreFor(uint32_t s) const {
    return options_.pin_threads ? static_cast<int>(s) : -1;
  }

  /// Registers this engine's pull gauges with the global registry. Every
  /// engine instance contributes under the same names; the registry sums
  /// registrants at snapshot time (two engines' pages_live add up).
  ///
  /// Lifetime: the callbacks capture the per-shard allocator shared_ptrs
  /// and raw ShardWorker pointers — both stable across an engine MOVE
  /// (workers live behind unique_ptrs; the handles travel with the
  /// engine). obs_handles_ is declared after shards_, so on destruction
  /// the callbacks unregister before any worker dies. Do not move-ASSIGN
  /// over a live engine while a registry snapshot runs concurrently: the
  /// target's old workers die before its old handles release.
  void RegisterObsGauges() {
    std::vector<internal::ShardWorker<Backend>*> workers;
    std::vector<cow::PageAllocatorRef> allocs;
    workers.reserve(shards_.size());
    for (const auto& s : shards_) {
      workers.push_back(s.get());
      if (s->allocator() != nullptr) allocs.push_back(s->allocator());
    }
    auto& reg = obs::Registry::Global();
    obs_handles_.push_back(reg.AddCallbackGauge(
        "sprofile_engine_ring_enqueue_retries", "retries",
        "Lost span-reservation CASes on ingestion rings (producer "
        "contention)",
        [workers] {
          int64_t sum = 0;
          for (const auto* w : workers) {
            sum += static_cast<int64_t>(w->ring_enqueue_retries());
          }
          return sum;
        }));
    obs_handles_.push_back(reg.AddCallbackGauge(
        "sprofile_engine_ring_full_rejections", "rejections",
        "Ingestion-ring pushes that found no free cell (backpressure)",
        [workers] {
          int64_t sum = 0;
          for (const auto* w : workers) {
            sum += static_cast<int64_t>(w->ring_full_rejections());
          }
          return sum;
        }));
    obs_handles_.push_back(reg.AddCallbackGauge(
        "sprofile_engine_quarantined_shards", "shards",
        "Shards whose worker died and now serve frozen snapshots",
        [workers] {
          int64_t n = 0;
          for (const auto* w : workers) n += w->quarantined() ? 1 : 0;
          return n;
        }));
    if (allocs.empty()) return;
    // Storage gauges rebased onto the allocators' PageAllocStats seam —
    // the same counters MemoryStats() aggregates, now pullable from the
    // registry without holding an engine reference at the read site.
    struct StatGauge {
      const char* name;
      const char* unit;
      const char* help;
      uint64_t (*get)(const cow::PageAllocStats&);
    };
    static constexpr StatGauge kStatGauges[] = {
        {"sprofile_engine_pages_live", "pages",
         "Storage blocks currently allocated across shard allocators",
         [](const cow::PageAllocStats& s) { return s.pages_live(); }},
        {"sprofile_engine_page_bytes_live", "bytes",
         "Bytes of storage blocks currently out across shard allocators",
         [](const cow::PageAllocStats& s) { return s.page_bytes_live; }},
        {"sprofile_engine_arenas_live", "arenas",
         "Arena mappings currently held (incl. warm spares)",
         [](const cow::PageAllocStats& s) { return s.arenas_live; }},
        {"sprofile_engine_arenas_created", "arenas",
         "Arena mappings created since engine start (cumulative)",
         [](const cow::PageAllocStats& s) { return s.arenas_created; }},
        {"sprofile_engine_arena_bytes_mapped", "bytes",
         "Bytes currently mmap-reserved by shard arenas (incl. spares)",
         [](const cow::PageAllocStats& s) { return s.arena_bytes_mapped; }},
        {"sprofile_engine_hugepage_arenas", "arenas",
         "Live arena mappings flagged MADV_HUGEPAGE",
         [](const cow::PageAllocStats& s) { return s.hugepage_arenas; }},
    };
    for (const StatGauge& g : kStatGauges) {
      obs_handles_.push_back(
          reg.AddCallbackGauge(g.name, g.unit, g.help, [allocs, get = g.get] {
            int64_t sum = 0;
            for (const auto& a : allocs) {
              sum += static_cast<int64_t>(get(a->Stats()));
            }
            return sum;
          }));
    }
  }

  /// Per-shard allocator per options.page_allocator; null for backends
  /// without an allocator seam (they construct their own storage).
  ///
  /// `shard_capacity` sizes the FIRST arena mapping to the shard's
  /// expected storage footprint (clamped to [64 KiB, arena_bytes]): a
  /// shard whose data is hugepage-sized starts on a hugepage-eligible
  /// mapping instead of climbing the 64 KiB doubling ladder — which made
  /// `hugepage_arenas` depend on where the ladder happened to stop (the
  /// ISSUE 5 "0 at 8 shards" report: small per-shard m simply never
  /// reached a 2 MiB arena; see MemoryStats docs).
  static cow::PageAllocatorRef MakeShardAllocator(const EngineOptions& options,
                                                  int pin_core,
                                                  uint32_t shard_capacity) {
    if constexpr (!AllocatorAwareBackend<Backend>) {
      (void)pin_core;
      return nullptr;
    } else {
      bool arena;
      switch (options.page_allocator) {
        case PageAllocatorKind::kArena:
          arena = true;
          break;
        case PageAllocatorKind::kHeap:
          arena = false;
          break;
        case PageAllocatorKind::kDefault:
        default:
          // The build default: arenas, except where the sanitizer needs
          // per-page allocations (SPROFILE_HEAP_PAGES_DEFAULT).
          arena = !SPROFILE_HEAP_PAGES_DEFAULT;
          break;
      }
      if (!arena) return std::make_shared<cow::HeapPageAllocator>();
      // The default backend's per-slot storage cost (an estimate for
      // other allocator-aware backends) sizes the first mapping; the
      // arena construction itself lives out of line so this facade
      // header need not include core/page_arena.h.
      return internal::MakeEngineArenaAllocator(
          options, pin_core, ProfileFootprintBytes(shard_capacity));
    }
  }

  void WaitAllReady() {
    for (const auto& s : shards_) s->WaitReady();
  }

  bool PushOne(uint32_t id, int32_t delta) {
    SPROFILE_DCHECK(id < capacity_);
    const Event e{LocalId(id), delta};
    return shards_[ShardOf(id)]->Push(&e, 1) == 1;
  }

  bool CheckIds(std::span<const Event> events) const {
    for (const Event& e : events) {
      if (e.id >= capacity_) return false;
    }
    return true;
  }

  std::vector<std::vector<GroupStat>> PerShardHistograms() const {
    std::vector<std::vector<GroupStat>> out;
    out.reserve(shards_.size());
    for (const auto& snap : SnapshotAll()) {
      if (snap->profile.capacity() == 0) continue;
      out.push_back(snap->profile.Histogram());
    }
    return out;
  }

  uint32_t capacity_;
  EngineOptions options_;
  std::vector<std::unique_ptr<internal::ShardWorker<Backend>>> shards_;
  // After shards_: destroyed first, so the registered callbacks (which
  // point into the workers/allocators) unregister before any worker dies.
  std::vector<obs::CallbackGaugeHandle> obs_handles_;
};

/// The default engine: S-Profile shards (O(1) updates, O(1)/O(log m)
/// queries per shard). Explicitly instantiated in src/engine/.
using ShardedProfiler = ShardedProfilerT<adapters::SProfile>;

extern template class internal::ShardWorker<adapters::SProfile>;
extern template class ShardedProfilerT<adapters::SProfile>;

}  // namespace engine
}  // namespace sprofile

#endif  // SPROFILE_SPROFILE_ENGINE_SHARDED_PROFILER_H_
