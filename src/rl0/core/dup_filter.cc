#include "rl0/core/dup_filter.h"

#include <algorithm>

namespace rl0 {

DupFilter::DupFilter(size_t dim, size_t payload_len, bool enabled)
    : enabled_(enabled && kCompiledIn), dim_(dim), payload_len_(payload_len) {
  if (!enabled_) return;
  tags_.assign(kEntries, 0);
  epochs_.assign(kEntries, 0);
  payload_.assign(kEntries * payload_len_, 0);
  bytes_.assign(kEntries * dim_, 0.0);
  mru_.assign(kSets, 0);
}

DupFilter::View DupFilter::Lookup(PointView p) const {
  View v;
  if (!enabled_) return v;
  const Slot s = SlotFor(p);
  for (size_t way = 0; way < kWays; ++way) {
    const size_t e = s.set * kWays + way;
    if (!EntryMatches(e, s, p)) continue;
    mru_[s.set] = static_cast<uint8_t>(way);
    v.payload = &payload_[e * payload_len_];
    v.epoch = epochs_[e];
    v.found = true;
    return v;
  }
  return v;
}

uint32_t* DupFilter::Store(uint64_t epoch, PointView p) {
  if (!enabled_) return nullptr;
  const Slot s = SlotFor(p);
  // Refresh an identical entry in place (epoch/payload update after a stale
  // replay), else fill an empty way, else evict the way the set touched
  // least recently — keeping the hot entry of a set resident while a
  // conflicting one churns the other way.
  size_t way = kWays;
  bool refresh = false;
  for (size_t w = 0; w < kWays; ++w) {
    if (EntryMatches(s.set * kWays + w, s, p)) {
      way = w;
      refresh = true;
      break;
    }
  }
  if (way == kWays) {
    for (size_t w = 0; w < kWays; ++w) {
      if (tags_[s.set * kWays + w] == 0) {
        way = w;
        break;
      }
    }
  }
  if (way == kWays) way = 1u - mru_[s.set];
  const size_t e = s.set * kWays + way;
  mru_[s.set] = static_cast<uint8_t>(way);
  epochs_[e] = epoch;
  if (!refresh) {
    tags_[e] = s.tag;
    std::memcpy(&bytes_[e * dim_], p.data(), dim_ * sizeof(double));
  }
  return &payload_[e * payload_len_];
}

void DupFilter::Invalidate() {
  if (!enabled_) return;
  std::fill(tags_.begin(), tags_.end(), uint16_t{0});
}

}  // namespace rl0
