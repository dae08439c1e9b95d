// Engine durability: per-shard SPPF snapshots plus a manifest.
//
// SaveAll barriers the engine with Flush() — NOT Drain() — then serializes
// each non-empty shard's *published snapshot* (a frozen copy, or a COW
// page set for a shard over kCopyPublishMaxBytes) as an ordinary SPPF
// image (core/profile_io.h) into `dir`, and finally a text MANIFEST that
// binds them together. Because the serialization reads frozen snapshots,
// ingestion keeps running while the save is in flight: producers never
// wait on the disk.
//
// MANIFEST format (whitespace-separated records, no comments):
//
//   sprofile-engine-snapshot 1
//   capacity <global id-space size>
//   shards <N>
//   generation <g>
//   shard <index> <shard capacity> <epoch> <shard-<index>.g<g>.sppf|->
//
// "-" marks a zero-capacity shard (capacity < shards), which has no file.
//
// Crash consistency: shard file names embed the save generation, so a
// re-save into the same directory never overwrites a file the current
// manifest names; the manifest itself is committed by an atomic rename.
// A crash at ANY byte offset of a SaveAll therefore leaves the previous
// manifest generation fully loadable and at worst orphans some
// next-generation files (reclaimed by the next successful SaveAll). This
// guarantee is enforced by the crash-injection suite in
// tests/engine_snapshot_io_test.cc, which kills a SaveAll at every byte
// offset in turn and asserts LoadAll always recovers the previous
// generation, never a torn one.
//
// LoadAll validates the partition arithmetic (every shard capacity must
// match the engine's stride partition of `capacity`, every file name must
// be the one the index and generation dictate) before touching any shard
// file, loads each profile (checksummed by profile_io), and rebuilds a
// running engine. The shard count comes from the manifest; the caller's
// EngineOptions supplies the runtime knobs (queues, batches, snapshot
// mode) and its `shards` field is ignored.

#ifndef SPROFILE_SPROFILE_ENGINE_SNAPSHOT_IO_H_
#define SPROFILE_SPROFILE_ENGINE_SNAPSHOT_IO_H_

#include <string>
#include <string_view>

#include "sprofile/engine/sharded_profiler.h"
#include "util/status.h"

namespace sprofile {
namespace engine {

/// Name of the manifest file inside a snapshot directory.
inline constexpr const char* kManifestFileName = "MANIFEST";

/// The storage operations SaveAll performs, virtualized so tests can
/// inject crashes at any byte offset (and future backends can write
/// somewhere other than the local filesystem). The default implementation
/// is the real filesystem.
class SnapshotSink {
 public:
  virtual ~SnapshotSink() = default;

  /// Creates `dir` (and parents) if missing.
  virtual Status CreateDir(const std::string& dir);

  /// Writes `bytes` to `path`, replacing any previous content. A failure
  /// may leave a torn prefix behind (exactly like a crash mid-write);
  /// SaveAll's commit protocol must tolerate that.
  virtual Status WriteFile(const std::string& path, std::string_view bytes);

  /// Atomically renames `from` over `to` — the single commit point.
  virtual Status RenameFile(const std::string& from, const std::string& to);

  /// Best-effort removal of an unreferenced file (old-generation cleanup).
  virtual void RemoveFileBestEffort(const std::string& path);
};

/// The process-wide real-filesystem sink.
SnapshotSink& DefaultSnapshotSink();

/// Flushes `engine` (read-your-writes: every event enqueued before the
/// call is captured) and writes its state under `dir` (created if
/// missing) through `sink`. Ingestion continues while shard images are
/// serialized from their frozen snapshots.
Status SaveAll(ShardedProfiler& engine, const std::string& dir,
               SnapshotSink& sink);
Status SaveAll(ShardedProfiler& engine, const std::string& dir);

/// Restores an engine saved with SaveAll. `options.shards` is ignored in
/// favor of the manifest's shard count; the other knobs apply to the new
/// engine's runtime.
StatusOr<ShardedProfiler> LoadAll(const std::string& dir,
                                  const EngineOptions& options);

}  // namespace engine
}  // namespace sprofile

#endif  // SPROFILE_SPROFILE_ENGINE_SNAPSHOT_IO_H_
