// KeyedProfile — S-Profile over arbitrary keys.
//
// FrequencyProfile requires dense ids in [0, m). Real log streams carry
// user ids, URLs, item SKUs. KeyedProfile maps keys to dense ids with a
// RobinHoodMap, grows the profile on first sight of a key, and (optionally)
// recycles the dense id of a key whose frequency returns to zero — a new
// key starts at frequency 0, exactly the state of the recycled slot, so
// recycling needs no structural work in the profile.
//
// Amortized cost per event: one hash-map operation + the O(1) profile
// update (ablation A7 quantifies the constant).

#ifndef SPROFILE_CORE_KEYED_PROFILE_H_
#define SPROFILE_CORE_KEYED_PROFILE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/frequency_profile.h"
#include "core/robin_hood_map.h"
#include "util/status.h"

namespace sprofile {

/// Configuration for KeyedProfile.
struct KeyedProfileOptions {
  /// Pre-size the profile and map for this many distinct keys.
  uint32_t initial_capacity = 0;

  /// When a key's frequency returns to exactly 0 on Remove, drop the key
  /// and recycle its dense id. Keeps m bounded by the number of keys
  /// *currently present* rather than ever seen.
  bool release_zero_keys = false;

  /// Allow Remove() of a never-seen key (creates it at frequency -1,
  /// matching the paper's unchecked semantics). When false such a Remove
  /// returns NotFound.
  bool create_on_remove = false;

  /// Backing store for the dense profile's pages. Null picks the
  /// footprint default FOR initial_capacity (ResolveProfileAllocator in
  /// frequency_profile.h): a keyed profile grows from zero
  /// capacity, so without the hint it would always land on the shared
  /// heap — sizing initial_capacity to the expected key universe is what
  /// buys large keyed profiles an arena (and with it the exclusive-epoch
  /// flat update path).
  cow::PageAllocatorRef page_allocator;
};

/// A group of tied keys (materialized; unlike GroupView this stays valid
/// after updates).
template <typename Key>
struct KeyedGroup {
  int64_t frequency = 0;
  std::vector<Key> keys;
};

template <typename Key, typename Hash = ProfileHash<Key>>
class KeyedProfile {
 public:
  explicit KeyedProfile(KeyedProfileOptions options = {})
      : options_(std::move(options)),
        profile_(0, ResolveProfileAllocator(options_.page_allocator,
                                            options_.initial_capacity)) {
    if (options_.initial_capacity > 0) {
      map_.Reserve(options_.initial_capacity);
      id_to_key_.reserve(options_.initial_capacity);
    }
  }

  /// Number of distinct keys currently tracked.
  uint32_t num_keys() const { return profile_.capacity() - static_cast<uint32_t>(free_ids_.size()); }

  /// Sum of all frequencies.
  int64_t total_count() const { return profile_.total_count(); }

  /// Records one occurrence of `key`, creating it at frequency 0 first if
  /// unseen. O(1) amortized.
  void Add(const Key& key) { profile_.Add(IdFor(key)); }

  /// Removes one occurrence. NotFound when the key is unseen and
  /// `create_on_remove` is off.
  Status Remove(const Key& key) {
    uint32_t* id = map_.Find(key);
    if (id == nullptr) {
      if (!options_.create_on_remove) {
        return Status::NotFound("key not present");
      }
      profile_.Remove(IdFor(key));
      return Status::OK();
    }
    const uint32_t dense = *id;
    profile_.Remove(dense);
    if (options_.release_zero_keys && profile_.Frequency(dense) == 0) {
      map_.Erase(key);
      free_ids_.push_back(dense);
    }
    return Status::OK();
  }

  /// Applies a log tuple.
  Status Apply(const Key& key, bool is_add) {
    if (is_add) {
      Add(key);
      return Status::OK();
    }
    return Remove(key);
  }

  /// One keyed event for ApplyBatch (mirrors sprofile::Event for dense ids).
  struct KeyedEvent {
    Key key;
    bool is_add = true;
  };

  /// Applies events in order; stops at the first failing Remove and returns
  /// its status (earlier events stay applied). One hash-map hop per event;
  /// the dense-id batch path is FrequencyProfile::ApplyBatch.
  Status ApplyBatch(std::span<const KeyedEvent> events) {
    for (const KeyedEvent& e : events) {
      SPROFILE_RETURN_NOT_OK(Apply(e.key, e.is_add));
    }
    return Status::OK();
  }

  /// Current frequency; NotFound for unseen keys.
  Result<int64_t> Frequency(const Key& key) const {
    const uint32_t* id = map_.Find(key);
    if (id == nullptr) return Status::NotFound("key not present");
    return profile_.Frequency(*id);
  }

  /// All keys tied at the maximum frequency. FailedPrecondition when empty.
  Result<KeyedGroup<Key>> Mode() const { return Materialize(/*top=*/true); }

  /// All keys tied at the minimum frequency.
  Result<KeyedGroup<Key>> MinFrequent() const { return Materialize(/*top=*/false); }

  /// Top-k (key, frequency) pairs, descending.
  std::vector<std::pair<Key, int64_t>> TopK(uint32_t k) const {
    std::vector<FrequencyEntry> entries;
    profile_.TopK(k, &entries);
    std::vector<std::pair<Key, int64_t>> out;
    out.reserve(entries.size());
    for (const FrequencyEntry& e : entries) {
      // Skip recycled slots (frequency-0 placeholders awaiting reuse).
      if (IsFreeSlot(e.id)) continue;
      out.emplace_back(id_to_key_[e.id], e.frequency);
    }
    return out;
  }

  /// Median frequency over tracked slots (see class comment on recycling:
  /// released slots sit at frequency 0 until reused and are excluded).
  Result<int64_t> MedianFrequency() const {
    if (num_keys() == 0) return Status::FailedPrecondition("no keys tracked");
    // Released ids all hold frequency 0; KthSmallest over the full slot
    // space is still correct for any rank that lands outside the released
    // group only if none were released. With releases we fall back to the
    // histogram walk (still fast: O(#blocks)).
    if (free_ids_.empty()) {
      return profile_.MedianEntry().frequency;
    }
    const uint32_t target = (num_keys() - 1) / 2 + 1;  // 1-based among live keys
    uint32_t seen = 0;
    uint32_t zero_slack = static_cast<uint32_t>(free_ids_.size());
    for (const GroupStat& g : profile_.Histogram()) {
      uint32_t count = g.count;
      if (g.frequency == 0) count -= std::min(count, zero_slack);
      seen += count;
      if (seen >= target) return g.frequency;
    }
    return Status::Corruption("median walk exhausted histogram");
  }

  /// Underlying dense profile (advanced queries, tests).
  const FrequencyProfile& profile() const { return profile_; }

  /// The key occupying dense id `id`. Precondition: id is a live slot.
  const Key& KeyForId(uint32_t id) const {
    SPROFILE_DCHECK(id < id_to_key_.size());
    return id_to_key_[id];
  }

 private:
  uint32_t IdFor(const Key& key) {
    uint32_t* existing = map_.Find(key);
    if (existing != nullptr) return *existing;
    uint32_t id;
    if (!free_ids_.empty()) {
      id = free_ids_.back();
      free_ids_.pop_back();
      id_to_key_[id] = key;
    } else {
      id = profile_.InsertSlot();
      id_to_key_.push_back(key);
    }
    map_.Insert(key, id);
    return id;
  }

  bool IsFreeSlot(uint32_t id) const {
    // Free slots are rare (only under release_zero_keys); linear scan of the
    // free list is acceptable for the query paths that need it.
    for (uint32_t f : free_ids_) {
      if (f == id) return true;
    }
    return false;
  }

  Result<KeyedGroup<Key>> Materialize(bool top) const {
    if (num_keys() == 0) return Status::FailedPrecondition("no keys tracked");
    // Walk blocks from the extreme end toward the middle; a block can be
    // occupied entirely by recycled zero slots (under release_zero_keys),
    // in which case the true extreme among live keys is in the next block.
    const uint32_t m = profile_.capacity();
    uint32_t rank = top ? m - 1 : 0;
    for (;;) {
      KeyedGroup<Key> group;
      group.frequency = profile_.Frequency(profile_.IdAtRank(rank));
      uint32_t block_lo = rank, block_hi = rank;
      // Expand to the whole block via rank probes sharing the frequency
      // through the profile's CountEqual boundaries.
      while (block_lo > 0 &&
             profile_.Frequency(profile_.IdAtRank(block_lo - 1)) == group.frequency) {
        --block_lo;
      }
      while (block_hi + 1 < m &&
             profile_.Frequency(profile_.IdAtRank(block_hi + 1)) == group.frequency) {
        ++block_hi;
      }
      for (uint32_t i = block_lo; i <= block_hi; ++i) {
        const uint32_t id = profile_.IdAtRank(i);
        if (IsFreeSlot(id)) continue;
        group.keys.push_back(id_to_key_[id]);
      }
      if (!group.keys.empty()) return group;
      if (top) {
        if (block_lo == 0) break;
        rank = block_lo - 1;
      } else {
        if (block_hi + 1 >= m) break;
        rank = block_hi + 1;
      }
    }
    return Status::Corruption("no live keys found in any block");
  }

  KeyedProfileOptions options_;
  FrequencyProfile profile_;
  RobinHoodMap<Key, uint32_t, Hash> map_;
  std::vector<Key> id_to_key_;
  std::vector<uint32_t> free_ids_;
};

}  // namespace sprofile

#endif  // SPROFILE_CORE_KEYED_PROFILE_H_
