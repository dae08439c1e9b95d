// Profile persistence.
//
// A long-running profiling service needs to survive restarts without
// replaying the whole log stream. The snapshot format "SPPF" stores the
// plain frequency array (the profile's entire logical state) with a masked
// CRC32C, and LoadProfile rebuilds the block set with FromFrequencies in
// O(m + range) by counting placement when the frequencies span fewer than
// m values, else in O(m log m) by sorting.
//
// Frozen (peeled) state is deliberately not persisted: peeling is a
// transient consumption pattern (shaving loops), not durable state. Saving
// a profile with frozen objects is rejected with FailedPrecondition.
//
// Format (little-endian):
//   [magic u32 = 'SPPF'] [version u32 = 1] [m u32] [pad u32 = 0]
//   m × [frequency i64]
//   [masked crc32c u32 of the frequency bytes]

#ifndef SPROFILE_CORE_PROFILE_IO_H_
#define SPROFILE_CORE_PROFILE_IO_H_

#include <string>

#include "core/frequency_profile.h"
#include "util/status.h"

namespace sprofile {

/// Serializes `profile` to the SPPF wire format in memory — byte-for-byte
/// what SaveProfile writes. Same preconditions as SaveProfile. This is the
/// path the engine uses to snapshot to storage through an injectable sink
/// (sprofile/engine/snapshot_io.h) without re-opening files itself.
Result<std::string> SerializeProfile(const FrequencyProfile& profile);

/// Writes a snapshot of `profile` to `path`. FailedPrecondition when the
/// profile has frozen objects (see header comment).
Status SaveProfile(const FrequencyProfile& profile, const std::string& path);

/// Reads a snapshot; verifies magic, version and checksum, and rejects
/// with InvalidArgument a frequency array whose sum overflows int64.
Result<FrequencyProfile> LoadProfile(const std::string& path);

}  // namespace sprofile

#endif  // SPROFILE_CORE_PROFILE_IO_H_
