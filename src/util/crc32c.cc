#include "util/crc32c.h"

#include <array>
#include <bit>
#include <cstring>

namespace sprofile {
namespace crc32c {

namespace {

// CRC32C polynomial (Castagnoli), reflected representation.
constexpr uint32_t kPoly = 0x82f63b78u;

// Slicing-by-8: table[0] is the classic byte table; table[k][b] is the CRC
// of byte b followed by k zero bytes, so one 8-byte word folds in with
// eight independent lookups instead of a serial chain of eight.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

// Little-endian load of 8 bytes from any alignment.
uint64_t LoadLe64(const uint8_t* p) {
  uint64_t w = 0;
  std::memcpy(&w, p, sizeof(w));
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  return w;
}

}  // namespace

uint32_t Extend(uint32_t crc, const void* data, size_t n) {
  const auto& t = kTables;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint64_t w = LoadLe64(p) ^ c;
    c = t[7][w & 0xffu] ^ t[6][(w >> 8) & 0xffu] ^ t[5][(w >> 16) & 0xffu] ^
        t[4][(w >> 24) & 0xffu] ^ t[3][(w >> 32) & 0xffu] ^
        t[2][(w >> 40) & 0xffu] ^ t[1][(w >> 48) & 0xffu] ^ t[0][w >> 56];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

}  // namespace crc32c
}  // namespace sprofile
