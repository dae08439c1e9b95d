#include "core/profile_io.h"

#include <cstdio>
#include <filesystem>
#include <memory>
#include <system_error>
#include <vector>

#include "util/crc32c.h"

namespace sprofile {

namespace {

constexpr uint32_t kMagic = 0x46505053u;  // "SPPF" little-endian
constexpr uint32_t kVersion = 1;

// Hard ceiling on snapshot size: 2^28 objects (2 GiB of frequencies) is
// well above the paper's largest run (1e8) and small enough that a
// corrupted header can never trigger a multi-terabyte allocation.
constexpr uint32_t kMaxSnapshotObjects = 1u << 28;

// Header (16 bytes) + m frequencies + masked CRC.
constexpr size_t SnapshotFileBytes(uint32_t m) {
  return 4 * sizeof(uint32_t) + static_cast<size_t>(m) * sizeof(int64_t) +
         sizeof(uint32_t);
}

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

Status WriteAll(std::FILE* f, const void* data, size_t n, const std::string& path) {
  if (std::fwrite(data, 1, n, f) != n) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

Status ReadAll(std::FILE* f, void* data, size_t n, const std::string& path) {
  if (std::fread(data, 1, n, f) != n) {
    return Status::IOError("short read from " + path);
  }
  return Status::OK();
}

}  // namespace

Result<std::string> SerializeProfile(const FrequencyProfile& profile) {
  if (profile.num_frozen() > 0) {
    return Status::FailedPrecondition(
        "profiles with frozen (peeled) objects cannot be snapshotted");
  }
  if (profile.capacity() == 0) {
    return Status::InvalidArgument(
        "profiles with zero capacity have no snapshot form (LoadProfile "
        "rejects m == 0)");
  }
  if (profile.capacity() > kMaxSnapshotObjects) {
    return Status::InvalidArgument(
        "profile capacity " + std::to_string(profile.capacity()) +
        " exceeds the snapshot format's limit of " +
        std::to_string(kMaxSnapshotObjects) + " objects");
  }

  const uint32_t m = profile.capacity();
  const uint32_t pad = 0;
  const std::vector<int64_t> freqs = profile.ToFrequencies();
  const size_t payload = freqs.size() * sizeof(int64_t);
  const uint32_t masked = crc32c::Mask(crc32c::Value(freqs.data(), payload));

  std::string out;
  out.reserve(SnapshotFileBytes(m));
  const auto append = [&out](const void* data, size_t n) {
    out.append(static_cast<const char*>(data), n);
  };
  append(&kMagic, sizeof(kMagic));
  append(&kVersion, sizeof(kVersion));
  append(&m, sizeof(m));
  append(&pad, sizeof(pad));
  append(freqs.data(), payload);
  append(&masked, sizeof(masked));
  return out;
}

Status SaveProfile(const FrequencyProfile& profile, const std::string& path) {
  SPROFILE_ASSIGN_OR_RETURN(const std::string bytes, SerializeProfile(profile));

  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) return Status::IOError("cannot open " + path + " for writing");
  SPROFILE_RETURN_NOT_OK(WriteAll(f.get(), bytes.data(), bytes.size(), path));
  if (std::fflush(f.get()) != 0) return Status::IOError("flush failed for " + path);
  return Status::OK();
}

Result<FrequencyProfile> LoadProfile(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return Status::IOError("cannot open " + path);

  uint32_t magic = 0, version = 0, m = 0, pad = 0;
  SPROFILE_RETURN_NOT_OK(ReadAll(f.get(), &magic, sizeof(magic), path));
  if (magic != kMagic) return Status::Corruption(path + ": bad magic");
  SPROFILE_RETURN_NOT_OK(ReadAll(f.get(), &version, sizeof(version), path));
  if (version != kVersion) {
    return Status::Corruption(path + ": unsupported version " +
                              std::to_string(version));
  }
  SPROFILE_RETURN_NOT_OK(ReadAll(f.get(), &m, sizeof(m), path));
  SPROFILE_RETURN_NOT_OK(ReadAll(f.get(), &pad, sizeof(pad), path));

  // Validate the header BEFORE the O(m) allocation: a corrupted or hostile
  // m must not turn into a giant vector (or a zero-object profile that no
  // query can serve).
  if (m == 0) {
    return Status::InvalidArgument(path + ": snapshot declares m == 0");
  }
  if (m > kMaxSnapshotObjects) {
    return Status::InvalidArgument(
        path + ": snapshot declares m = " + std::to_string(m) +
        ", above the format limit of " + std::to_string(kMaxSnapshotObjects));
  }
  if (pad != 0) {
    return Status::Corruption(path + ": nonzero header pad field");
  }
  // 64-bit size query (ftell's long overflows at the format limit on
  // LLP64 platforms); the stream position stays at the payload start.
  std::error_code ec;
  const uintmax_t file_size = std::filesystem::file_size(path, ec);
  if (ec) return Status::IOError("cannot size " + path + ": " + ec.message());
  if (file_size != SnapshotFileBytes(m)) {
    return Status::InvalidArgument(
        path + ": declared m = " + std::to_string(m) + " implies " +
        std::to_string(SnapshotFileBytes(m)) + " bytes but the file has " +
        std::to_string(file_size));
  }

  std::vector<int64_t> freqs(m);
  const size_t bytes = freqs.size() * sizeof(int64_t);
  SPROFILE_RETURN_NOT_OK(ReadAll(f.get(), freqs.data(), bytes, path));

  uint32_t masked = 0;
  SPROFILE_RETURN_NOT_OK(ReadAll(f.get(), &masked, sizeof(masked), path));
  if (crc32c::Unmask(masked) != crc32c::Value(freqs.data(), bytes)) {
    return Status::Corruption(path + ": checksum mismatch");
  }
  // FromFrequencies' precondition: a CRC-valid file can still hold a
  // frequency array whose total_count() does not fit int64_t.
  int64_t total = 0;
  for (const int64_t f : freqs) {
    if (__builtin_add_overflow(total, f, &total)) {
      return Status::InvalidArgument(path +
                                     ": frequency sum overflows int64");
    }
  }
  return FrequencyProfile::FromFrequencies(freqs);
}

}  // namespace sprofile
