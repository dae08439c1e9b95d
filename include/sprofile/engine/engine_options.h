// EngineOptions — configuration for the sharded concurrent profiling
// engine (sprofile/engine/sharded_profiler.h).
//
// Leaf header: standard library + util/status.h only, so the facade can
// include it without pulling the threading machinery.

#ifndef SPROFILE_SPROFILE_ENGINE_ENGINE_OPTIONS_H_
#define SPROFILE_SPROFILE_ENGINE_ENGINE_OPTIONS_H_

#include <cstdint>
#include <string>
#include <thread>

#include "util/status.h"

namespace sprofile {
namespace engine {

/// Where a shard's COW storage pages come from (core/page_arena.h).
enum class PageAllocatorKind : uint8_t {
  /// The build's default: a per-shard hugepage arena, except in ASan /
  /// forced-heap builds (SPROFILE_HEAP_PAGES_DEFAULT) where it is the
  /// per-page heap so the sanitizer sees page lifetimes individually.
  kDefault,
  /// A per-shard hugepage arena, unconditionally.
  kArena,
  /// One heap allocation per page, unconditionally.
  kHeap,
};

/// What a producer does when a shard's ingestion ring stays full (the
/// degradation ladder's overload rung; docs/ROBUSTNESS.md).
enum class OverloadPolicy : uint8_t {
  /// Wait for space with capped exponential backoff (yield spins, then
  /// sleeps doubling up to ~256 us). Never loses events; a stalled
  /// worker stalls its producers. The default, and the only policy the
  /// oracle-parity suites run under.
  kBlock,
  /// Give up after the yield-spin phase and drop the remaining events,
  /// counting them in shed_events(). The unchecked facade sheds
  /// silently; the checked Try* tier reports Status::Unavailable.
  kShed,
  /// Block with backoff, but only up to push_deadline_us per call; then
  /// drop the remainder as in kShed. Bounds producer latency (measured
  /// in the sprofile_engine_ring_push_wait_ns histogram).
  kDeadline,
};

/// Memory placement for pinned shard workers.
enum class NumaPolicy : uint8_t {
  /// No placement policy: the OS decides.
  kNone,
  /// Shard storage lands on the worker's NUMA node: each worker constructs
  /// (and first-touches) its own profile after pinning, and
  /// SPROFILE_HAVE_NUMA builds additionally bind arena mappings with
  /// libnuma. Requires pin_threads (placement is meaningless for a
  /// floating thread).
  kLocal,
};

/// Tuning knobs for ShardedProfiler. Aggregate, so call sites can spell
/// exactly the fields they care about:
///
///   EngineOptions{.shards = 8, .queue_capacity = 1 << 18}
struct EngineOptions {
  /// Number of shards == number of worker threads. Each shard owns one
  /// backend profile over its stripe of the id space.
  uint32_t shards = 4;

  /// Per-shard ingestion queue capacity in events (rounded up to a power
  /// of two). A full queue exerts backpressure: producers spin-yield until
  /// the worker drains.
  uint32_t queue_capacity = 1 << 16;

  /// Maximum events a worker applies per ApplyBatch drain. Larger batches
  /// amortize queue traffic and give the batch warm pass more misses to
  /// overlap; smaller batches tighten flush latency.
  uint32_t drain_batch = 1024;

  /// Applied events between automatically published read snapshots while
  /// a shard is under sustained load (it always publishes when its queue
  /// goes idle and on Flush/Drain). 0 disables interval publishing:
  /// snapshots then refresh only on idle and barriers — the right setting
  /// for pure-ingestion workloads where publish cost must stay off the
  /// steady-state path entirely.
  uint32_t snapshot_interval = 1 << 18;

  /// Page storage for each shard's profile (see PageAllocatorKind).
  /// Ignored by backends that do not take an injected allocator.
  PageAllocatorKind page_allocator = PageAllocatorKind::kDefault;

  /// Steady-state arena mapping size for arena-backed shards. Must be a
  /// multiple of the 4 KiB base page, in [64 KiB, 1 GiB]. 2 MiB — one
  /// x86-64 huge page — is the default.
  uint64_t arena_bytes = uint64_t{2} << 20;

  /// Pin each shard's worker thread to its own core (shard s -> core s).
  /// Requires shards <= the machine's hardware concurrency.
  bool pin_threads = false;

  /// Memory placement for pinned workers (see NumaPolicy).
  NumaPolicy numa_policy = NumaPolicy::kNone;

  /// Producer behavior on a persistently full shard ring (see
  /// OverloadPolicy). kBlock preserves every event; kShed / kDeadline
  /// trade loss for bounded producer latency.
  OverloadPolicy overload_policy = OverloadPolicy::kBlock;

  /// Per-Push producer wait budget in microseconds under
  /// OverloadPolicy::kDeadline (ignored by the other policies). Must be
  /// in [1, kMaxPushDeadlineUs].
  uint32_t push_deadline_us = 1000;

  /// Per-shard capacity of the publish-pause sample ring backing
  /// SnapshotPauseSamplesNs(): the most recent N pause durations are
  /// retained (older samples are overwritten in ring order). Exact
  /// percentiles over the retained window; the obs histogram
  /// (sprofile_engine_publish_pause_ns) keeps the full-history
  /// log-bucketed view. Small values make wraparound testable.
  uint32_t pause_sample_capacity = 1 << 16;

  Status Validate() const {
    if (shards == 0 || shards > kMaxShards) {
      return Status::InvalidArgument(
          "engine shards must be in [1, " + std::to_string(kMaxShards) +
          "], got " + std::to_string(shards));
    }
    if (queue_capacity < 2 || queue_capacity > kMaxQueueCapacity) {
      return Status::InvalidArgument(
          "engine queue_capacity must be in [2, " +
          std::to_string(kMaxQueueCapacity) + "], got " +
          std::to_string(queue_capacity));
    }
    if (drain_batch == 0 || drain_batch > queue_capacity) {
      return Status::InvalidArgument(
          "engine drain_batch must be in [1, queue_capacity], got " +
          std::to_string(drain_batch));
    }
    if (page_allocator != PageAllocatorKind::kDefault &&
        page_allocator != PageAllocatorKind::kArena &&
        page_allocator != PageAllocatorKind::kHeap) {
      return Status::InvalidArgument(
          "engine page_allocator is not a PageAllocatorKind value: " +
          std::to_string(static_cast<unsigned>(page_allocator)));
    }
    if (arena_bytes % kArenaBytesUnit != 0) {
      return Status::InvalidArgument(
          "engine arena_bytes must be a multiple of the 4 KiB base page, "
          "got " + std::to_string(arena_bytes));
    }
    if (arena_bytes < kMinArenaBytes || arena_bytes > kMaxArenaBytes) {
      return Status::InvalidArgument(
          "engine arena_bytes must be in [" + std::to_string(kMinArenaBytes) +
          ", " + std::to_string(kMaxArenaBytes) + "], got " +
          std::to_string(arena_bytes));
    }
    if (pin_threads) {
      const uint32_t cores = std::thread::hardware_concurrency();
      // hardware_concurrency may legitimately report 0 ("unknown"); only a
      // positive report can prove the request over-subscribed.
      if (cores > 0 && shards > cores) {
        return Status::InvalidArgument(
            "pin_threads with " + std::to_string(shards) +
            " shards exceeds the " + std::to_string(cores) +
            " available cores");
      }
    }
    if (numa_policy != NumaPolicy::kNone && numa_policy != NumaPolicy::kLocal) {
      return Status::InvalidArgument(
          "engine numa_policy is not a NumaPolicy value: " +
          std::to_string(static_cast<unsigned>(numa_policy)));
    }
    if (pause_sample_capacity == 0 ||
        pause_sample_capacity > kMaxPauseSampleCapacity) {
      return Status::InvalidArgument(
          "engine pause_sample_capacity must be in [1, " +
          std::to_string(kMaxPauseSampleCapacity) + "], got " +
          std::to_string(pause_sample_capacity));
    }
    if (overload_policy != OverloadPolicy::kBlock &&
        overload_policy != OverloadPolicy::kShed &&
        overload_policy != OverloadPolicy::kDeadline) {
      return Status::InvalidArgument(
          "engine overload_policy is not an OverloadPolicy value: " +
          std::to_string(static_cast<unsigned>(overload_policy)));
    }
    if (overload_policy == OverloadPolicy::kDeadline &&
        (push_deadline_us == 0 || push_deadline_us > kMaxPushDeadlineUs)) {
      return Status::InvalidArgument(
          "engine push_deadline_us must be in [1, " +
          std::to_string(kMaxPushDeadlineUs) + "] under overload_policy="
          "deadline, got " + std::to_string(push_deadline_us));
    }
    if (numa_policy == NumaPolicy::kLocal && !pin_threads) {
      return Status::InvalidArgument(
          "numa_policy=local requires pin_threads: node-local placement is "
          "meaningless for a floating worker");
    }
    return Status::OK();
  }

  static constexpr uint32_t kMaxShards = 4096;
  // 2^24 ring cells x 16 bytes (Event + sequence word) = 256 MiB per shard.
  static constexpr uint32_t kMaxQueueCapacity = 1u << 24;
  static constexpr uint64_t kArenaBytesUnit = 4096;
  static constexpr uint64_t kMinArenaBytes = 64 * 1024;
  static constexpr uint64_t kMaxArenaBytes = uint64_t{1} << 30;
  // 2^20 samples x 8 bytes = 8 MiB per shard at the extreme.
  static constexpr uint32_t kMaxPauseSampleCapacity = 1u << 20;
  // 60 s: far beyond any sane producer budget, small enough that a typo
  // (ms vs us) cannot silently mean "block for an hour".
  static constexpr uint32_t kMaxPushDeadlineUs = 60u * 1000 * 1000;
};

}  // namespace engine
}  // namespace sprofile

#endif  // SPROFILE_SPROFILE_ENGINE_ENGINE_OPTIONS_H_
