// CRC32C (Castagnoli) checksum, portable slicing-by-8 (software) implementation.
//
// Used by the stream IO format to detect corruption in persisted log
// streams, mirroring how RocksDB checksums its blocks.

#ifndef SPROFILE_UTIL_CRC32C_H_
#define SPROFILE_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace sprofile {
namespace crc32c {

/// Extends a running CRC32C with `n` bytes at `data`. Start with crc = 0.
uint32_t Extend(uint32_t crc, const void* data, size_t n);

/// One-shot CRC32C of a buffer.
inline uint32_t Value(const void* data, size_t n) { return Extend(0, data, n); }

/// Masked CRC (same motivation as RocksDB/LevelDB: storing a CRC of data
/// that itself contains CRCs is error-prone, so stored values are masked).
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}

inline uint32_t Unmask(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace crc32c
}  // namespace sprofile

#endif  // SPROFILE_UTIL_CRC32C_H_
