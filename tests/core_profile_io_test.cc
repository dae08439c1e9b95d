#include "core/profile_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "stream/log_stream.h"
#include "util/crc32c.h"

namespace sprofile {
namespace {

class ProfileIoTest : public testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    const std::string p = testing::TempDir() + "/sprofile_pio_" + name;
    created_.push_back(p);
    return p;
  }

  void TearDown() override {
    for (const std::string& p : created_) std::remove(p.c_str());
  }

  std::vector<std::string> created_;
};

FrequencyProfile MakeWarm(uint32_t m, uint64_t n, uint64_t seed) {
  FrequencyProfile p(m);
  stream::LogStreamGenerator gen(stream::MakePaperStreamConfig(2, m, seed));
  for (uint64_t i = 0; i < n; ++i) {
    const auto t = gen.Next();
    p.Apply(t.id, t.is_add);
  }
  return p;
}

TEST_F(ProfileIoTest, RoundTripPreservesEverything) {
  const FrequencyProfile original = MakeWarm(500, 20000, 3);
  const std::string path = TempPath("roundtrip.sppf");
  ASSERT_TRUE(SaveProfile(original, path).ok());

  auto loaded = LoadProfile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const FrequencyProfile& p = loaded.value();
  ASSERT_TRUE(p.Validate().ok());
  ASSERT_EQ(p.capacity(), original.capacity());
  for (uint32_t id = 0; id < p.capacity(); ++id) {
    ASSERT_EQ(p.Frequency(id), original.Frequency(id)) << "id " << id;
  }
  EXPECT_EQ(p.Histogram(), original.Histogram());
  EXPECT_EQ(p.total_count(), original.total_count());
  EXPECT_EQ(p.Mode().frequency, original.Mode().frequency);
}

TEST_F(ProfileIoTest, LoadedProfileAcceptsUpdates) {
  const FrequencyProfile original = MakeWarm(100, 5000, 4);
  const std::string path = TempPath("updatable.sppf");
  ASSERT_TRUE(SaveProfile(original, path).ok());
  auto loaded = LoadProfile(path);
  ASSERT_TRUE(loaded.ok());
  FrequencyProfile p = std::move(loaded).value();
  p.Add(0);
  p.Remove(99);
  EXPECT_TRUE(p.Validate().ok());
  EXPECT_EQ(p.Frequency(0), original.Frequency(0) + 1);
}

TEST_F(ProfileIoTest, EmptyProfileRejectedOnSave) {
  FrequencyProfile empty(0);
  EXPECT_EQ(SaveProfile(empty, TempPath("empty.sppf")).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ProfileIoTest, ZeroMRejectedOnLoad) {
  const std::string path = TempPath("zero_m.sppf");
  {
    std::ofstream f(path, std::ios::binary);
    const uint32_t header[4] = {0x46505053u, 1u, 0u, 0u};  // m == 0
    f.write(reinterpret_cast<const char*>(header), sizeof(header));
    const uint32_t crc = 0;
    f.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  }
  EXPECT_EQ(LoadProfile(path).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ProfileIoTest, OversizedMRejectedBeforeAllocating) {
  const std::string path = TempPath("huge_m.sppf");
  {
    std::ofstream f(path, std::ios::binary);
    // m = 2^32 - 16: accepting this header would mean a ~32 GiB vector.
    const uint32_t header[4] = {0x46505053u, 1u, 0xFFFFFFF0u, 0u};
    f.write(reinterpret_cast<const char*>(header), sizeof(header));
  }
  EXPECT_EQ(LoadProfile(path).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ProfileIoTest, MDisagreeingWithPayloadRejected) {
  const FrequencyProfile original = MakeWarm(8, 100, 7);
  const std::string path = TempPath("lying_m.sppf");
  ASSERT_TRUE(SaveProfile(original, path).ok());
  {
    // Inflate the declared m far past the payload the file carries.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);
    const uint32_t lying_m = 100000;
    f.write(reinterpret_cast<const char*>(&lying_m), sizeof(lying_m));
  }
  EXPECT_EQ(LoadProfile(path).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ProfileIoTest, NonzeroPadRejected) {
  const FrequencyProfile original = MakeWarm(16, 200, 8);
  const std::string path = TempPath("bad_pad.sppf");
  ASSERT_TRUE(SaveProfile(original, path).ok());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(12);
    const uint32_t pad = 0xDEADBEEFu;
    f.write(reinterpret_cast<const char*>(&pad), sizeof(pad));
  }
  EXPECT_EQ(LoadProfile(path).status().code(), StatusCode::kCorruption);
}

TEST_F(ProfileIoTest, FrozenProfileRejected) {
  FrequencyProfile p = FrequencyProfile::FromFrequencies({1, 2, 3});
  p.PeelMin();
  EXPECT_EQ(SaveProfile(p, TempPath("frozen.sppf")).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ProfileIoTest, DetectsCorruption) {
  const FrequencyProfile original = MakeWarm(200, 5000, 5);
  const std::string path = TempPath("corrupt.sppf");
  ASSERT_TRUE(SaveProfile(original, path).ok());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64);
    char byte;
    f.read(&byte, 1);
    f.seekp(64);
    byte = static_cast<char>(byte ^ 0x01);
    f.write(&byte, 1);
  }
  EXPECT_EQ(LoadProfile(path).status().code(), StatusCode::kCorruption);
}

TEST_F(ProfileIoTest, OverflowingFrequencySumRejected) {
  // A well-formed, CRC-valid file whose total_count() would overflow.
  const std::string path = TempPath("sum_overflow.sppf");
  const int64_t freqs[2] = {INT64_MAX, 1};
  {
    std::ofstream f(path, std::ios::binary);
    const uint32_t header[4] = {0x46505053u, 1u, 2u, 0u};
    f.write(reinterpret_cast<const char*>(header), sizeof(header));
    f.write(reinterpret_cast<const char*>(freqs), sizeof(freqs));
    const uint32_t masked = crc32c::Mask(crc32c::Value(freqs, sizeof(freqs)));
    f.write(reinterpret_cast<const char*>(&masked), sizeof(masked));
  }
  EXPECT_EQ(LoadProfile(path).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ProfileIoTest, BadMagicRejected) {
  const std::string path = TempPath("garbage.sppf");
  {
    std::ofstream f(path, std::ios::binary);
    f << "not a profile snapshot";
  }
  EXPECT_EQ(LoadProfile(path).status().code(), StatusCode::kCorruption);
}

TEST_F(ProfileIoTest, MissingFileIsIOError) {
  EXPECT_EQ(LoadProfile("/nonexistent/x.sppf").status().code(),
            StatusCode::kIOError);
}

TEST(ToFrequenciesTest, InverseOfFromFrequencies) {
  const std::vector<int64_t> freqs{5, -2, 0, 0, 9, 3};
  FrequencyProfile p = FrequencyProfile::FromFrequencies(freqs);
  EXPECT_EQ(p.ToFrequencies(), freqs);
}

TEST(ToFrequenciesTest, ReflectsUpdates) {
  FrequencyProfile p(3);
  p.Add(1);
  p.Add(1);
  p.Remove(2);
  EXPECT_EQ(p.ToFrequencies(), (std::vector<int64_t>{0, 2, -1}));
}

TEST(MemoryBytesTest, GrowsWithCapacity) {
  FrequencyProfile small(100);
  FrequencyProfile large(100000);
  EXPECT_GT(large.MemoryBytes(), small.MemoryBytes());
  // 12 bytes of array state per object + pooled blocks.
  EXPECT_GE(large.MemoryBytes(), 100000u * 12);
}

}  // namespace
}  // namespace sprofile
