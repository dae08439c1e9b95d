// MpscRingBuffer — the engine's bounded lock-free ingestion queue.
//
// A fixed-capacity ring of (sequence, value) cells in the style of
// Vyukov's bounded MPMC queue, specialized to the engine's shape: many
// producers (serving threads calling Add/ApplyBatch), exactly one consumer
// (the shard's worker thread). The single-consumer restriction buys a
// cheaper dequeue — no CAS, just one acquire load and two stores per
// popped cell — and lets the consumer pop a whole batch per call, the
// span it hands to ApplyBatch.
//
// Properties:
//   - TryPushSpan reserves a contiguous run of cells with ONE CAS for the
//     whole span, so batched producers pay O(1) contended operations per
//     batch rather than per event.
//   - Full queue -> TryPush returns false (callers implement backpressure;
//     the shard worker spins producers via yield).
//   - Capacity is rounded up to a power of two; indexes are 64-bit, so
//     wraparound of the position counters is not a practical concern.
//
// Memory ordering: producers publish a cell by a release store of its
// sequence number; the consumer acquires it before reading the value. The
// consumer retires cells with a release store of the cell sequence and
// then advances dequeue_pos_ (release); producers bound their free-space
// estimate with an acquire load of dequeue_pos_, which is conservative —
// it can only under-report free slots, never hand out a cell that is
// still being read.

#ifndef SPROFILE_SPROFILE_ENGINE_RING_BUFFER_H_
#define SPROFILE_SPROFILE_ENGINE_RING_BUFFER_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/failpoint.h"
#include "util/logging.h"

namespace sprofile {
namespace engine {

inline constexpr size_t kCacheLineBytes = 64;

inline uint64_t RoundUpToPowerOfTwo(uint64_t v) {
  return std::bit_ceil(v < 2 ? uint64_t{2} : v);
}

template <typename T>
class MpscRingBuffer {
 public:
  explicit MpscRingBuffer(size_t min_capacity)
      : mask_(RoundUpToPowerOfTwo(min_capacity) - 1), cells_(mask_ + 1) {
    for (uint64_t i = 0; i <= mask_; ++i) {
      // orders: relaxed — single-threaded construction; the handoff to
      // producer/consumer threads is ordered by whatever publishes the
      // queue itself (e.g. std::thread construction).
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpscRingBuffer(const MpscRingBuffer&) = delete;
  MpscRingBuffer& operator=(const MpscRingBuffer&) = delete;

  size_t capacity() const { return mask_ + 1; }

  /// Multi-producer: enqueues one item. False when the queue is full.
  bool TryPush(const T& value) { return TryPushSpan(&value, 1) == 1; }

  /// Multi-producer: enqueues a prefix of data[0, n), reserving the whole
  /// run with a single CAS. Returns how many items were enqueued (possibly
  /// 0 when full, possibly < n when nearly full).
  size_t TryPushSpan(const T* data, size_t n) {
    if (n == 0) return 0;
    if (SPROFILE_FAILPOINT("engine_ring_push_full")) {
      // Injected full queue: exercises every overload policy above this
      // seam without needing a real saturated consumer.
      // orders: relaxed — contention statistic only, as below.
      full_rejections_.fetch_add(1, std::memory_order_relaxed);
      return 0;
    }
    // orders: relaxed — only a CAS seed; the CAS below revalidates it and
    // cell ownership is transferred by seq, not by this counter.
    uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    uint64_t take;
    for (;;) {
      // orders: acquire pairs with the consumer's release store of
      // dequeue_pos_ in TryPopBatch — a producer that sees deq also sees
      // those cells' retirement stores, so reusing them cannot race the
      // consumer's reads.
      const uint64_t deq = dequeue_pos_.load(std::memory_order_acquire);
      const int64_t in_flight = static_cast<int64_t>(pos - deq);
      if (in_flight < 0) {
        // Stale pos from a CAS race; reload and retry.
        // orders: relaxed — same CAS-seed role as the initial load.
        pos = enqueue_pos_.load(std::memory_order_relaxed);
        continue;
      }
      const uint64_t free = capacity() - static_cast<uint64_t>(in_flight);
      take = n < free ? n : free;
      if (take == 0) {
        // orders: relaxed — contention statistic only, read by
        // full_rejections(); never ordered against the queue state.
        full_rejections_.fetch_add(1, std::memory_order_relaxed);
        return 0;
      }
      // orders: relaxed — the CAS only arbitrates WHICH producer owns the
      // span; it publishes nothing. Publication happens per cell via the
      // seq release store below, which is what the consumer synchronizes
      // on.
      if (enqueue_pos_.compare_exchange_weak(pos, pos + take,
                                             std::memory_order_relaxed)) {
        break;
      }
      // pos was refreshed by the failed CAS; loop.
      // orders: relaxed — contention statistic only (another producer won
      // the span); the uncontended success path never touches it.
      enqueue_retries_.fetch_add(1, std::memory_order_relaxed);
    }
    // The dequeue_pos_ bound above guarantees cells [pos, pos + take) are
    // retired; this producer owns them exclusively after winning the CAS.
    for (uint64_t i = 0; i < take; ++i) {
      Cell& cell = cells_[(pos + i) & mask_];
      // orders: relaxed — debug-only sanity read of a cell this producer
      // already owns exclusively (ownership was established by the
      // dequeue_pos_ acquire above).
      SPROFILE_DCHECK(cell.seq.load(std::memory_order_relaxed) == pos + i);
      cell.value = data[i];
      // orders: release pairs with the consumer's seq acquire load in
      // TryPopBatch — publishes cell.value.
      cell.seq.store(pos + i + 1, std::memory_order_release);
    }
    return take;
  }

  /// Single consumer: pops up to `max` items into out[0..). Returns the
  /// number popped (0 when empty or the next cell is still being written).
  size_t TryPopBatch(T* out, size_t max) {
    // orders: relaxed — single consumer: only this thread writes
    // dequeue_pos_, so it reads back its own last store.
    const uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    size_t n = 0;
    while (n < max) {
      Cell& cell = cells_[(pos + n) & mask_];
      // orders: acquire pairs with the producer's seq release store in
      // TryPushSpan — seeing seq == pos+n+1 makes cell.value visible.
      if (cell.seq.load(std::memory_order_acquire) != pos + n + 1) break;
      out[n] = cell.value;
      // Retire the cell for the producers' next lap before advancing
      // dequeue_pos_ (producers trust dequeue_pos_ as a free-space bound).
      // orders: release so a producer that observes the retired seq (via
      // its relaxed DCHECK read after an acquire of dequeue_pos_) is also
      // ordered after our read of cell.value.
      cell.seq.store(pos + n + capacity(), std::memory_order_release);
      ++n;
    }
    // orders: release pairs with the producers' dequeue_pos_ acquire load
    // in TryPushSpan — carries the cell retirements above with it.
    if (n > 0) dequeue_pos_.store(pos + n, std::memory_order_release);
    return n;
  }

  /// Producer contention counters, cumulative. A retry is a lost
  /// span-reservation CAS (another producer won the slot); a full
  /// rejection is a TryPushSpan that found no free cell. Both are
  /// advisory (relaxed) and exported as engine gauges by ShardWorker.
  uint64_t enqueue_retries() const {
    // orders: relaxed — advisory statistic; see the increments above.
    return enqueue_retries_.load(std::memory_order_relaxed);
  }
  uint64_t full_rejections() const {
    // orders: relaxed — advisory statistic; see the increments above.
    return full_rejections_.load(std::memory_order_relaxed);
  }

  /// Items reserved by producers so far, cumulative: every item of a
  /// TryPushSpan that has returned sits below this position, and the
  /// consumer pops in position order. Reserved cells not yet written
  /// belong to a producer that is writing them now.
  uint64_t reserved() const {
    // orders: acquire — a caller ordered after a producer's return (its
    // own thread, or any synchronization with it) reads that producer's
    // reservation or a later one; the CAS itself publishes no data.
    return enqueue_pos_.load(std::memory_order_acquire);
  }

  /// Approximate emptiness (exact when producers are quiesced).
  bool Empty() const {
    // orders: acquire on both — pairs with the consumer's dequeue_pos_
    // release (TryPopBatch) and the producers' enqueue side so a true
    // result is never stale for the caller's own prior pushes; the
    // comparison is still approximate under concurrent traffic.
    return dequeue_pos_.load(std::memory_order_acquire) ==
           enqueue_pos_.load(std::memory_order_acquire);
  }

 private:
  struct Cell {
    std::atomic<uint64_t> seq;
    T value;
  };

  const uint64_t mask_;
  std::vector<Cell> cells_;
  alignas(kCacheLineBytes) std::atomic<uint64_t> enqueue_pos_{0};
  alignas(kCacheLineBytes) std::atomic<uint64_t> dequeue_pos_{0};
  // Own line: bumped only on contention, but a false-shared neighbor of
  // dequeue_pos_ would tax the consumer on every pop.
  alignas(kCacheLineBytes) std::atomic<uint64_t> enqueue_retries_{0};
  std::atomic<uint64_t> full_rejections_{0};
};

}  // namespace engine
}  // namespace sprofile

#endif  // SPROFILE_SPROFILE_ENGINE_RING_BUFFER_H_
