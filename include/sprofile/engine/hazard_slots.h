// Hazard slots — lock-free reads of a pointer that another thread frees.
//
// A point lookup (ShardedProfilerT::Frequency) reads its shard's current
// snapshot without a lock and without touching the snapshot's shared_ptr
// refcount, while the shard worker replaces and frees snapshots. This is
// the hazard-pointer scheme (M. M. Michael, "Hazard Pointers: Safe Memory
// Reclamation for Lock-Free Objects", IEEE TPDS 2004): a reader names the
// object it is about to dereference in a slot only it writes, and the
// reclaimer frees a retired object only when no slot names it.
//
// Reader (HazardPointer):
//   1. load the published pointer p;
//   2. exchange p into this thread's slot (seq_cst);
//   3. re-load the published pointer, and retry from 2 if it moved;
//   4. dereference p;
//   5. clear the slot (release).
// Reclaimer: store the new pointer (seq_cst), keep the replaced object on
// a private retired list, and free each retired object for which
// HazardRegistry::Named (seq_cst loads) finds no slot. Steps 2-3 and the
// reclaimer's store-then-scan form a Dekker pair: in the single total
// order of seq_cst operations, either the reader's re-load sees the new
// pointer and retries, or the scan sees the slot and defers the free.
//
// Slots live in one process-wide registry. They are cache-line padded, so
// readers on different cores share no line, allocated on demand and never
// freed, because a scan may walk the list at any time. A thread takes one
// slot on its first read and gives it back when it exits; a later thread
// reuses it. One slot per thread is enough because a thread holds at most
// one HazardPointer at a time.

#ifndef SPROFILE_SPROFILE_ENGINE_HAZARD_SLOTS_H_
#define SPROFILE_SPROFILE_ENGINE_HAZARD_SLOTS_H_

#include <atomic>

#include "sprofile/engine/ring_buffer.h"
#include "util/logging.h"

namespace sprofile {
namespace engine {
namespace internal {

/// One reader thread's announcement: the object it may be dereferencing,
/// or null. Written by its owning thread only; read by every scan.
class alignas(kCacheLineBytes) HazardSlot {
 public:
  /// Loads `published`, names the value in this slot and returns it once
  /// a re-load confirms it is still the published one. Until Clear(), a
  /// reclaimer that scans after retiring it does not free it.
  template <typename T>
  const T* Protect(const std::atomic<const T*>& published) {
    // orders: relaxed — a debug check of this thread's own slot.
    SPROFILE_DCHECK(named_.load(std::memory_order_relaxed) == nullptr);
    // orders: acquire pairs with the publisher's seq_cst store, so the
    // object's contents are visible before it is dereferenced.
    const T* p = published.load(std::memory_order_acquire);
    for (;;) {
      // orders: seq_cst — first half of the Dekker pair: the slot write
      // may not pass the re-load below, and it sits in one total order
      // with the reclaimer's seq_cst store of the new pointer.
      named_.exchange(p, std::memory_order_seq_cst);
      // orders: seq_cst — second half: if the reclaimer's scan missed the
      // slot, its store of the new pointer precedes this load.
      const T* now = published.load(std::memory_order_seq_cst);
      if (now == p) return p;
      p = now;
    }
  }

  /// Withdraws the announcement.
  void Clear() {
    // orders: release pairs with the seq_cst load in
    // HazardRegistry::Named: a scan that sees the slot empty also sees
    // every read of the object it named, before it frees the object.
    named_.store(nullptr, std::memory_order_release);
  }

 private:
  friend class HazardRegistry;

  std::atomic<const void*> named_{nullptr};
  std::atomic<bool> taken_{false};
  HazardSlot* next_ = nullptr;  // immutable once linked into the registry
};

/// The process-wide slot list: an intrusive stack that only grows.
class HazardRegistry {
 public:
  /// Leaked, so that threads exiting after static destruction can still
  /// give their slot back.
  static HazardRegistry& Global() {
    static HazardRegistry* const registry = new HazardRegistry;
    return *registry;
  }

  /// A free slot for the calling thread: a returned one if any, else a
  /// new one pushed onto the list.
  HazardSlot* Acquire() {
    // orders: acquire pairs with the release CAS that linked each slot,
    // so its next_ is initialized.
    for (HazardSlot* s = head_.load(std::memory_order_acquire); s != nullptr;
         s = s->next_) {
      // orders: relaxed peek; the acquire exchange pairs with Release's
      // release store, ordering the last owner's Clear() before reuse.
      if (!s->taken_.load(std::memory_order_relaxed) &&
          !s->taken_.exchange(true, std::memory_order_acquire)) {
        return s;
      }
    }
    auto* s = new HazardSlot;
    // orders: relaxed — the slot is unpublished until the CAS below.
    s->taken_.store(true, std::memory_order_relaxed);
    // orders: relaxed — only seeds the CAS's expected value.
    s->next_ = head_.load(std::memory_order_relaxed);
    // orders: release publishes the slot's fields to scans that acquire
    // head_; relaxed on failure (retry with the fresh head).
    while (!head_.compare_exchange_weak(s->next_, s, std::memory_order_release,
                                        std::memory_order_relaxed)) {
    }
    return s;
  }

  /// Hands a slot back (at thread exit).
  void Release(HazardSlot* s) {
    s->Clear();
    // orders: release pairs with Acquire's acquire exchange.
    s->taken_.store(false, std::memory_order_release);
  }

  /// True if some slot names `p` (which must not be null). Call after the
  /// seq_cst store that unpublished `p`.
  bool Named(const void* p) const {
    // orders: acquire — see Acquire().
    for (const HazardSlot* s = head_.load(std::memory_order_acquire);
         s != nullptr; s = s->next_) {
      // orders: seq_cst — the reclaimer's half of the Dekker pair (see
      // HazardSlot::Protect); also acquires a reader's Clear().
      if (s->named_.load(std::memory_order_seq_cst) == p) return true;
    }
    return false;
  }

 private:
  HazardRegistry() = default;

  std::atomic<HazardSlot*> head_{nullptr};
};

/// The calling thread's slot, taken on first use and given back when the
/// thread exits. The cached pointer is trivially destructible, so the
/// lookup path reads it without a TLS initialization guard; only the
/// first call constructs the lease. Reads from thread_local destructors
/// that run after the lease's are not supported.
inline HazardSlot& ThisThreadHazardSlot() {
  thread_local HazardSlot* slot = nullptr;
  if (slot == nullptr) [[unlikely]] {
    struct Lease {
      Lease() = default;
      Lease(const Lease&) = delete;
      Lease& operator=(const Lease&) = delete;
      ~Lease() { HazardRegistry::Global().Release(taken); }
      HazardSlot* const taken = HazardRegistry::Global().Acquire();
    };
    thread_local Lease lease;
    slot = lease.taken;
  }
  return *slot;
}

/// Scoped protection of the object `published` points to: the calling
/// thread's slot names it from construction to destruction. At most one
/// may be alive per thread.
template <typename T>
class HazardPointer {
 public:
  explicit HazardPointer(const std::atomic<const T*>& published)
      : slot_(ThisThreadHazardSlot()), ptr_(slot_.Protect(published)) {}
  ~HazardPointer() { slot_.Clear(); }
  HazardPointer(const HazardPointer&) = delete;
  HazardPointer& operator=(const HazardPointer&) = delete;

  const T* operator->() const { return ptr_; }

 private:
  HazardSlot& slot_;
  const T* const ptr_;
};

}  // namespace internal
}  // namespace engine
}  // namespace sprofile

#endif  // SPROFILE_SPROFILE_ENGINE_HAZARD_SLOTS_H_
