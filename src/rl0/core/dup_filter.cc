#include "rl0/core/dup_filter.h"

namespace rl0 {

DupFilter::DupFilter(size_t dim, bool enabled)
    : enabled_(enabled && kCompiledIn), dim_(dim) {
  if (!enabled_) return;
  tags_.assign(kEntries, 0);
  epochs_.assign(kEntries, 0);
  payloads_.assign(kEntries, 0);
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
    v.payload = payloads_[e];
    v.epoch = epochs_[e];
    v.found = true;
    return v;
  }
  return v;
}

void DupFilter::Store(uint64_t epoch, PointView p, uint32_t payload) {
  if (!enabled_) return;
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
  payloads_[e] = payload;
  if (!refresh) {
    tags_[e] = s.tag;
    std::memcpy(&bytes_[e * dim_], p.data(), dim_ * sizeof(double));
  }
}

}  // namespace rl0
