// Event — the unit of batched ingestion across the sprofile:: public API.
//
// One event carries a signed frequency delta for one object; the ±1 stream
// tuples of the paper map to delta = +1 (add) / -1 (remove), and ApplyBatch()
// replays a batch of events as |delta| such steps each. This header is a leaf: the core library includes it, so
// it must not include anything beyond the standard library.

#ifndef SPROFILE_SPROFILE_EVENT_H_
#define SPROFILE_SPROFILE_EVENT_H_

#include <cstdint>

namespace sprofile {

/// One ingestion event: apply `delta` to object `id`'s frequency.
struct Event {
  uint32_t id = 0;
  int32_t delta = +1;

  /// The paper's "add" tuple (x, +).
  static constexpr Event Add(uint32_t id) { return Event{id, +1}; }

  /// The paper's "remove" tuple (x, -).
  static constexpr Event Remove(uint32_t id) { return Event{id, -1}; }

  bool operator==(const Event&) const = default;
};

}  // namespace sprofile

#endif  // SPROFILE_SPROFILE_EVENT_H_
