#include "rl0/core/sw_group_table.h"

#include <utility>

#include "rl0/util/check.h"

namespace rl0 {

namespace {
// Mirrors RepTable's threshold (rep_table.cc): below this many slot
// columns compaction churn outweighs the win.
constexpr size_t kCompactMinSlots = 64;
}  // namespace

uint32_t SwGroupTable::AllocateSlot() {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  RL0_CHECK(flags_.size() < kNpos);
  const uint32_t slot = static_cast<uint32_t>(flags_.size());
  id_.push_back(0);
  rep_.push_back(PointRef{});
  rep_arena_.push_back(0);
  rep_index_.push_back(0);
  rep_cell_.push_back(0);
  latest_.push_back(PointRef{});
  latest_stamp_.push_back(0);
  latest_index_.push_back(0);
  reservoir_.emplace_back();
  flags_.push_back(0);
  next_in_cell_.push_back(kNpos);
  stamp_prev_.push_back(kNpos);
  stamp_next_.push_back(kNpos);
  dirty_epoch_.push_back(0);
  return slot;
}

void SwGroupTable::LinkCell(uint32_t slot) {
  next_in_cell_[slot] = cell_index_.Upsert(rep_cell_[slot], slot);
}

void SwGroupTable::UnlinkCell(uint32_t slot) {
  const uint64_t key = rep_cell_[slot];
  const uint32_t head = cell_index_.Find(key);
  RL0_DCHECK(head != kNpos);
  if (head == slot) {
    const uint32_t next = next_in_cell_[slot];
    if (next == kNpos) {
      cell_index_.Erase(key);
    } else {
      cell_index_.SetHead(key, next);
    }
  } else {
    uint32_t prev = head;
    while (next_in_cell_[prev] != slot) {
      prev = next_in_cell_[prev];
      RL0_DCHECK(prev != kNpos);
    }
    next_in_cell_[prev] = next_in_cell_[slot];
  }
  next_in_cell_[slot] = kNpos;
}

void SwGroupTable::AppendStampTail(uint32_t slot) {
  RL0_DCHECK(stamp_tail_ == kNpos ||
             latest_stamp_[stamp_tail_] <= latest_stamp_[slot]);
  stamp_prev_[slot] = stamp_tail_;
  stamp_next_[slot] = kNpos;
  if (stamp_tail_ == kNpos) {
    stamp_head_ = slot;
  } else {
    stamp_next_[stamp_tail_] = slot;
  }
  stamp_tail_ = slot;
}

void SwGroupTable::InsertStampSorted(uint32_t slot) {
  // Walk back from the tail to the first entry not newer than `slot`;
  // ties insert after existing equals (expiry drops whole stamp classes,
  // so intra-tie order is immaterial).
  uint32_t after = stamp_tail_;
  while (after != kNpos && latest_stamp_[after] > latest_stamp_[slot]) {
    after = stamp_prev_[after];
  }
  if (after == stamp_tail_) {
    AppendStampTail(slot);
    return;
  }
  const uint32_t before =
      after == kNpos ? stamp_head_ : stamp_next_[after];
  stamp_prev_[slot] = after;
  stamp_next_[slot] = before;
  if (after == kNpos) {
    stamp_head_ = slot;
  } else {
    stamp_next_[after] = slot;
  }
  stamp_prev_[before] = slot;  // `before` exists: slot is not the tail
}

void SwGroupTable::UnlinkStamp(uint32_t slot) {
  const uint32_t prev = stamp_prev_[slot];
  const uint32_t next = stamp_next_[slot];
  if (prev == kNpos) {
    stamp_head_ = next;
  } else {
    stamp_next_[prev] = next;
  }
  if (next == kNpos) {
    stamp_tail_ = prev;
  } else {
    stamp_prev_[next] = prev;
  }
  stamp_prev_[slot] = kNpos;
  stamp_next_[slot] = kNpos;
}

uint32_t SwGroupTable::Add(uint64_t id, PointView point,
                           uint64_t stream_index, uint64_t cell_key,
                           bool accepted, int64_t stamp) {
  RL0_DCHECK(store_ != nullptr);
  const uint32_t slot = AllocateSlot();
  id_[slot] = id;
  rep_[slot] = store_->Add(point);
  rep_arena_[slot] = store_->SlotIndexOf(rep_[slot]);
  rep_index_[slot] = stream_index;
  rep_cell_[slot] = cell_key;
  latest_[slot] = store_->Add(point);
  latest_stamp_[slot] = stamp;
  latest_index_[slot] = stream_index;
  flags_[slot] = kLiveFlag | (accepted ? kAcceptedFlag : 0);
  dirty_epoch_[slot] = ckpt_seq_;
  LinkCell(slot);
  AppendStampTail(slot);
  ++live_;
  return slot;
}

void SwGroupTable::Touch(uint32_t slot, PointView latest, int64_t stamp,
                         uint64_t stream_index) {
  RL0_DCHECK(IsLive(slot));
  store_->Write(latest_[slot], latest);
  UnlinkStamp(slot);
  latest_stamp_[slot] = stamp;
  latest_index_[slot] = stream_index;
  dirty_epoch_[slot] = ckpt_seq_;
  AppendStampTail(slot);
}

void SwGroupTable::Remove(uint32_t slot) {
  RL0_DCHECK(IsLive(slot));
  UnlinkCell(slot);
  UnlinkStamp(slot);
  store_->Release(rep_[slot]);
  store_->Release(latest_[slot]);
  reservoir_[slot].ReleaseAll();
  flags_[slot] = 0;
  free_slots_.push_back(slot);
  --live_;
}

SwGroupTable::MovedGroup SwGroupTable::Extract(uint32_t slot) {
  RL0_DCHECK(IsLive(slot));
  UnlinkCell(slot);
  UnlinkStamp(slot);
  MovedGroup g;
  g.id = id_[slot];
  g.rep = rep_[slot];
  g.rep_index = rep_index_[slot];
  g.rep_cell = rep_cell_[slot];
  g.accepted = accepted(slot);
  g.latest = latest_[slot];
  g.latest_stamp = latest_stamp_[slot];
  g.latest_index = latest_index_[slot];
  g.reservoir = std::move(reservoir_[slot]);
  flags_[slot] = 0;
  free_slots_.push_back(slot);
  --live_;
  return g;
}

uint32_t SwGroupTable::AdoptMoved(MovedGroup&& g) {
  RL0_DCHECK(store_ != nullptr);
  const uint32_t slot = AllocateSlot();
  id_[slot] = g.id;
  rep_[slot] = g.rep;
  rep_arena_[slot] = store_->SlotIndexOf(g.rep);
  rep_index_[slot] = g.rep_index;
  rep_cell_[slot] = g.rep_cell;
  latest_[slot] = g.latest;
  latest_stamp_[slot] = g.latest_stamp;
  latest_index_[slot] = g.latest_index;
  reservoir_[slot] = std::move(g.reservoir);
  flags_[slot] = kLiveFlag | (g.accepted ? kAcceptedFlag : 0);
  dirty_epoch_[slot] = ckpt_seq_;
  LinkCell(slot);
  InsertStampSorted(slot);
  ++live_;
  return slot;
}

bool SwGroupTable::MaybeCompact() {
  if (flags_.size() < kCompactMinSlots) return false;
  if (live_ * 2 > flags_.size()) return false;
  Compact();
  return true;
}

void SwGroupTable::Compact() {
  const size_t slots = flags_.size();
  if (live_ == slots) return;

  // Monotone old→new map (see RepTable::Compact): relative slot order is
  // preserved, so slot-order iterations (Sample's target scan,
  // SnapshotGroups, the split planner) are invariant.
  std::vector<uint32_t> map(slots, kNpos);
  uint32_t packed_count = 0;
  for (uint32_t old = 0; old < slots; ++old) {
    if (IsLive(old)) map[old] = packed_count++;
  }
  const auto remap = [&map](uint32_t slot) {
    return slot == kNpos ? kNpos : map[slot];
  };

  std::vector<std::pair<uint64_t, uint32_t>> heads;
  heads.reserve(cell_index_.live());
  cell_index_.ForEach([&](uint64_t key, uint32_t head) {
    heads.emplace_back(key, map[head]);
  });

  // The arena is shared with the sibling levels of the hierarchy (and the
  // reservoirs' candidate refs), so only the columns move; every PointRef
  // stays valid. map[old] ≤ old, so ascending in-place moves are safe.
  for (uint32_t old = 0; old < slots; ++old) {
    if (!IsLive(old)) continue;
    const uint32_t slot = map[old];
    id_[slot] = id_[old];
    rep_[slot] = rep_[old];
    rep_arena_[slot] = rep_arena_[old];
    rep_index_[slot] = rep_index_[old];
    rep_cell_[slot] = rep_cell_[old];
    latest_[slot] = latest_[old];
    latest_stamp_[slot] = latest_stamp_[old];
    latest_index_[slot] = latest_index_[old];
    flags_[slot] = flags_[old];
    next_in_cell_[slot] = remap(next_in_cell_[old]);
    stamp_prev_[slot] = remap(stamp_prev_[old]);
    stamp_next_[slot] = remap(stamp_next_[old]);
    dirty_epoch_[slot] = dirty_epoch_[old];
    if (slot != old) reservoir_[slot] = std::move(reservoir_[old]);
  }
  stamp_head_ = remap(stamp_head_);
  stamp_tail_ = remap(stamp_tail_);

  id_.resize(packed_count);
  rep_.resize(packed_count);
  rep_arena_.resize(packed_count);
  rep_index_.resize(packed_count);
  rep_cell_.resize(packed_count);
  latest_.resize(packed_count);
  latest_stamp_.resize(packed_count);
  latest_index_.resize(packed_count);
  reservoir_.resize(packed_count);
  flags_.resize(packed_count);
  next_in_cell_.resize(packed_count);
  stamp_prev_.resize(packed_count);
  stamp_next_.resize(packed_count);
  dirty_epoch_.resize(packed_count);
  free_slots_.clear();

  cell_index_ = CellIndex();
  for (const auto& entry : heads) {
    cell_index_.SetHead(entry.first, entry.second);
  }
}

void SwGroupTable::Clear() {
  for (uint32_t slot = 0; slot < flags_.size(); ++slot) {
    if (!IsLive(slot)) continue;
    store_->Release(rep_[slot]);
    store_->Release(latest_[slot]);
    reservoir_[slot].ReleaseAll();
    flags_[slot] = 0;
    next_in_cell_[slot] = kNpos;
    stamp_prev_[slot] = kNpos;
    stamp_next_[slot] = kNpos;
  }
  cell_index_ = CellIndex();
  stamp_head_ = kNpos;
  stamp_tail_ = kNpos;
  free_slots_.clear();
  live_ = 0;
  // Dead slots stay allocated (capacity tracks the peak population, the
  // accounting model of util/space.h); reset the free list to reuse them
  // in slot order.
  for (uint32_t slot = 0; slot < flags_.size(); ++slot) {
    free_slots_.push_back(static_cast<uint32_t>(flags_.size()) - 1 - slot);
  }
}

}  // namespace rl0
