// CheckedProfile — the Status-returning facade over FrequencyProfile.
//
// The core hot path (frequency_profile.h) keeps the paper's contract: O(1)
// updates whose preconditions are SPROFILE_DCHECKs that compile out under
// NDEBUG. That is the right trade for the inner loop and the wrong one for
// a serving edge, where a malformed request must come back as an error, not
// a crash. CheckedProfile wraps every fallible operation in a Try* method
// returning Status / StatusOr<T>:
//
//   out-of-range id        -> OutOfRange
//   update of a peeled id  -> FailedPrecondition
//   k == 0 order statistic -> InvalidArgument
//   k > num_active()       -> OutOfRange
//   quantile q outside     -> InvalidArgument
//   [0, 1] or NaN
//   query on an empty      -> FailedPrecondition
//   active region
//
// TryApplyBatch validates the WHOLE batch before applying anything, so a
// rejected batch leaves the profile untouched (all-or-nothing), which is
// what a replicated ingestion pipeline needs to retry safely.
//
// The unchecked tier stays one call away via profile() — checked and
// unchecked calls may be mixed freely on the same instance.

#ifndef SPROFILE_SPROFILE_CHECKED_H_
#define SPROFILE_SPROFILE_CHECKED_H_

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/frequency_profile.h"
#include "sprofile/event.h"
#include "util/status.h"

namespace sprofile {

class CheckedProfile {
 public:
  /// A profile of `num_objects` objects, all at frequency 0.
  explicit CheckedProfile(uint32_t num_objects) : p_(num_objects) {}

  /// Wraps an existing profile (takes ownership).
  explicit CheckedProfile(FrequencyProfile profile) : p_(std::move(profile)) {}

  uint32_t capacity() const { return p_.capacity(); }
  uint32_t num_active() const { return p_.num_active(); }
  uint32_t num_frozen() const { return p_.num_frozen(); }
  int64_t total_count() const { return p_.total_count(); }

  // ---------------------------------------------------------------------
  // Checked updates.
  // ---------------------------------------------------------------------

  /// F[id] += 1. OutOfRange / FailedPrecondition instead of asserting.
  Status TryAdd(uint32_t id) {
    SPROFILE_RETURN_NOT_OK(CheckUpdatableId(id));
    p_.Add(id);
    return Status::OK();
  }

  /// F[id] -= 1.
  Status TryRemove(uint32_t id) {
    SPROFILE_RETURN_NOT_OK(CheckUpdatableId(id));
    p_.Remove(id);
    return Status::OK();
  }

  /// One log tuple: Add when `is_add`, else Remove.
  Status TryApply(uint32_t id, bool is_add) {
    return is_add ? TryAdd(id) : TryRemove(id);
  }

  /// Validates every event, then applies the batch through the native
  /// batch path. All-or-nothing: a non-OK return means nothing was applied.
  Status TryApplyBatch(std::span<const Event> events) {
    for (size_t i = 0; i < events.size(); ++i) {
      Status s = CheckUpdatableId(events[i].id);
      if (!s.ok()) {
        return Status::FromCode(
            s.code(), "batch event " + std::to_string(i) + ": " + s.message());
      }
    }
    p_.ApplyBatch(events);
    return Status::OK();
  }

  /// Freezes one minimum-frequency object. FailedPrecondition when no
  /// active objects remain.
  StatusOr<FrequencyEntry> TryPeelMin() {
    if (p_.num_active() == 0) {
      return Status::FailedPrecondition("PeelMin on empty active region");
    }
    return p_.PeelMin();
  }

  // ---------------------------------------------------------------------
  // Checked queries.
  // ---------------------------------------------------------------------

  /// Current frequency of `id` (peeled ids included). OutOfRange otherwise.
  StatusOr<int64_t> TryFrequency(uint32_t id) const {
    if (id >= p_.capacity()) return OutOfRangeId(id);
    return p_.Frequency(id);
  }

  /// Maximum frequency and the size of its tie group. Materialized (a
  /// GroupStat, not a view), so the result outlives later updates.
  StatusOr<GroupStat> TryMode() const {
    if (p_.num_active() == 0) return EmptyActive("Mode");
    const GroupView g = p_.Mode();
    return GroupStat{g.frequency, g.count()};
  }

  /// Minimum frequency and the size of its tie group.
  StatusOr<GroupStat> TryMinFrequent() const {
    if (p_.num_active() == 0) return EmptyActive("MinFrequent");
    const GroupView g = p_.MinFrequent();
    return GroupStat{g.frequency, g.count()};
  }

  /// k-th largest, k in [1, num_active()]. InvalidArgument for k == 0,
  /// OutOfRange beyond the active count, FailedPrecondition when empty.
  StatusOr<FrequencyEntry> TryKthLargest(uint64_t k) const {
    SPROFILE_RETURN_NOT_OK(CheckOrderStatistic(k, "KthLargest"));
    return p_.KthLargest(k);
  }

  /// k-th smallest, same contract as TryKthLargest.
  StatusOr<FrequencyEntry> TryKthSmallest(uint64_t k) const {
    SPROFILE_RETURN_NOT_OK(CheckOrderStatistic(k, "KthSmallest"));
    return p_.KthSmallest(k);
  }

  /// Lower median of the active frequencies.
  StatusOr<FrequencyEntry> TryMedian() const {
    if (p_.num_active() == 0) return EmptyActive("Median");
    return p_.MedianEntry();
  }

  /// q-quantile, q in [0, 1]. InvalidArgument for NaN or out-of-interval q,
  /// FailedPrecondition on an empty active region.
  StatusOr<FrequencyEntry> TryQuantile(double q) const {
    if (std::isnan(q) || q < 0.0 || q > 1.0) {
      return Status::InvalidArgument("quantile q=" + std::to_string(q) +
                                     " outside [0, 1]");
    }
    if (p_.num_active() == 0) return EmptyActive("Quantile");
    return p_.Quantile(q);
  }

  /// Top-k entries, descending; emits min(k, num_active()) of them. Never
  /// fails — the StatusOr spelling keeps the tier uniform for callers that
  /// template over Try* methods.
  StatusOr<std::vector<FrequencyEntry>> TryTopK(uint32_t k) const {
    std::vector<FrequencyEntry> out;
    p_.TopK(k, &out);
    return out;
  }

  /// Number of active objects with frequency >= f.
  StatusOr<uint32_t> TryCountAtLeast(int64_t f) const {
    return p_.CountAtLeast(f);
  }

  // ---------------------------------------------------------------------
  // The unchecked tier (the paper's O(1) hot path), one call away.
  // ---------------------------------------------------------------------

  FrequencyProfile& profile() { return p_; }
  const FrequencyProfile& profile() const { return p_; }

 private:
  Status CheckUpdatableId(uint32_t id) const {
    if (id >= p_.capacity()) return OutOfRangeId(id);
    if (p_.IsFrozen(id)) {
      return Status::FailedPrecondition(
          "id " + std::to_string(id) + " was peeled (frozen) and is no "
          "longer updatable");
    }
    return Status::OK();
  }

  Status CheckOrderStatistic(uint64_t k, const char* what) const {
    if (k == 0) {
      return Status::InvalidArgument(std::string(what) +
                                     " is 1-based; k must be >= 1");
    }
    if (p_.num_active() == 0) return EmptyActive(what);
    if (k > p_.num_active()) {
      return Status::OutOfRange(std::string(what) + " k=" + std::to_string(k) +
                                " exceeds num_active()=" +
                                std::to_string(p_.num_active()));
    }
    return Status::OK();
  }

  Status OutOfRangeId(uint32_t id) const {
    return Status::OutOfRange("id " + std::to_string(id) +
                              " outside [0, " + std::to_string(p_.capacity()) +
                              ")");
  }

  static Status EmptyActive(const char* what) {
    return Status::FailedPrecondition(std::string(what) +
                                      " on empty active region");
  }

  FrequencyProfile p_;
};

}  // namespace sprofile

#endif  // SPROFILE_SPROFILE_CHECKED_H_
