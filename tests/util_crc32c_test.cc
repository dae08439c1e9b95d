#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

namespace sprofile {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 / standard CRC32C test vectors.
  EXPECT_EQ(crc32c::Value("", 0), 0x00000000u);
  const char* digits = "123456789";
  EXPECT_EQ(crc32c::Value(digits, 9), 0xe3069283u);
  std::string zeros(32, '\0');
  EXPECT_EQ(crc32c::Value(zeros.data(), zeros.size()), 0x8a9136aau);
}

TEST(Crc32cTest, ExtendIsComposable) {
  const char* data = "hello, sprofile";
  const size_t n = std::strlen(data);
  const uint32_t whole = crc32c::Value(data, n);
  for (size_t split = 0; split <= n; ++split) {
    uint32_t crc = crc32c::Extend(0, data, split);
    crc = crc32c::Extend(crc, data + split, n - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

// Bit-at-a-time CRC32C: the definition the table-driven Extend must match.
uint32_t ReferenceCrc(uint32_t crc, const uint8_t* p, size_t n) {
  uint32_t c = ~crc;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit) c = (c & 1) ? (c >> 1) ^ 0x82f63b78u : c >> 1;
  }
  return ~c;
}

TEST(Crc32cTest, MatchesReferenceAtEveryLengthAndAlignment) {
  uint8_t buf[8 + 80];
  uint32_t x = 0x9e3779b9u;
  for (uint8_t& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<uint8_t>(x >> 24);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    const uint8_t* p = buf + offset;
    for (size_t n = 0; n <= 80; ++n) {
      const uint32_t want = ReferenceCrc(0, p, n);
      ASSERT_EQ(crc32c::Value(p, n), want) << "offset " << offset << " n " << n;
      for (size_t split = 0; split <= n; ++split) {
        const uint32_t head = crc32c::Extend(0, p, split);
        ASSERT_EQ(head, ReferenceCrc(0, p, split));
        ASSERT_EQ(crc32c::Extend(head, p + split, n - split), want)
            << "offset " << offset << " n " << n << " split " << split;
      }
    }
  }
}

TEST(Crc32cTest, DifferentInputsDiffer) {
  EXPECT_NE(crc32c::Value("abc", 3), crc32c::Value("abd", 3));
  EXPECT_NE(crc32c::Value("abc", 3), crc32c::Value("abc", 2));
}

TEST(Crc32cTest, MaskRoundTrips) {
  for (uint32_t crc : {0u, 1u, 0xdeadbeefu, 0xffffffffu, 0xe3069283u}) {
    EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
    EXPECT_NE(crc32c::Mask(crc), crc);
  }
}

}  // namespace
}  // namespace sprofile
