#include "rl0/core/rep_table.h"

#include "rl0/util/check.h"

namespace rl0 {

namespace {
// Below this many slot columns, compaction churn outweighs the locality
// win; MaybeCompact stays a no-op.
constexpr size_t kCompactMinSlots = 64;
}  // namespace

RepTable::RepTable(size_t dim, bool with_reservoir)
    : dim_(dim), with_reservoir_(with_reservoir), store_(dim) {}

uint32_t RepTable::Add(PointView point, uint64_t id, uint64_t stream_index,
                       uint64_t cell_key, bool accepted) {
  RL0_DCHECK(point.dim() == dim_);
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    point_[slot] = store_.Add(point);
    if (with_reservoir_) sample_point_[slot] = store_.Add(point);
  } else {
    RL0_CHECK(flags_.size() < kNpos);
    slot = static_cast<uint32_t>(flags_.size());
    id_.push_back(0);
    stream_index_.push_back(0);
    cell_key_.push_back(0);
    point_.push_back(store_.Add(point));
    point_arena_.push_back(0);
    flags_.push_back(0);
    next_in_cell_.push_back(kNpos);
    dirty_epoch_.push_back(0);
    if (with_reservoir_) {
      sample_point_.push_back(store_.Add(point));
      sample_index_.push_back(0);
      group_count_.push_back(0);
    }
  }
  point_arena_[slot] = store_.SlotIndexOf(point_[slot]);
  id_[slot] = id;
  stream_index_[slot] = stream_index;
  cell_key_[slot] = cell_key;
  flags_[slot] = kLiveFlag | (accepted ? kAcceptedFlag : 0);
  if (with_reservoir_) {
    sample_index_[slot] = stream_index;
    group_count_[slot] = 1;
  }
  dirty_epoch_[slot] = ckpt_seq_;
  Link(slot);
  ++live_;
  ++generation_;
  return slot;
}

void RepTable::Remove(uint32_t slot) {
  RL0_DCHECK(IsLive(slot));
  Unlink(slot);
  store_.Release(point_[slot]);
  if (with_reservoir_) store_.Release(sample_point_[slot]);
  flags_[slot] = 0;
  free_slots_.push_back(slot);
  --live_;
  ++generation_;
}

void RepTable::set_accepted(uint32_t slot, bool accepted) {
  if (accepted) {
    flags_[slot] |= kAcceptedFlag;
  } else {
    flags_[slot] &= static_cast<uint8_t>(~kAcceptedFlag);
  }
  dirty_epoch_[slot] = ckpt_seq_;
}

bool RepTable::MaybeCompact() {
  if (flags_.size() < kCompactMinSlots) return false;
  if (live_ * 2 > flags_.size()) return false;
  Compact();
  return true;
}

void RepTable::Compact() {
  const size_t slots = flags_.size();
  if (live_ == slots) return;  // dense already (free list is empty too)

  // Monotone old→new slot map: live slots keep their relative order, so
  // slot-order iterations (queries, snapshot byte streams, Refilter
  // scans) are invariant under compaction.
  std::vector<uint32_t> map(slots, kNpos);
  uint32_t packed_count = 0;
  for (uint32_t old = 0; old < slots; ++old) {
    if (IsLive(old)) map[old] = packed_count++;
  }

  // Capture the cell heads before the slot surgery; chain structure moves
  // over link by link through the remapped next_in_cell_ column, so each
  // cell's scan order — and with it FindCandidate's first match — is
  // untouched.
  std::vector<std::pair<uint64_t, uint32_t>> heads;
  heads.reserve(index_.live());
  index_.ForEach([&](uint64_t key, uint32_t head) {
    heads.emplace_back(key, map[head]);
  });

  // Repack the arena in new slot order: after heavy refilter churn the
  // live coordinates are scattered across free-list holes; the batched
  // kernels stream much better over the re-densified buffer.
  PointStore packed(dim_);
  for (uint32_t old = 0; old < slots; ++old) {
    if (!IsLive(old)) continue;
    // map[old] ≤ old always, so ascending in-place moves never clobber
    // an entry that is still to be read.
    const uint32_t slot = map[old];
    id_[slot] = id_[old];
    stream_index_[slot] = stream_index_[old];
    cell_key_[slot] = cell_key_[old];
    flags_[slot] = flags_[old];
    const uint32_t old_next = next_in_cell_[old];
    next_in_cell_[slot] = old_next == kNpos ? kNpos : map[old_next];
    dirty_epoch_[slot] = dirty_epoch_[old];
    point_[slot] = packed.Add(store_.View(point_[old]));
    point_arena_[slot] = packed.SlotIndexOf(point_[slot]);
    if (with_reservoir_) {
      sample_point_[slot] = packed.Add(store_.View(sample_point_[old]));
      sample_index_[slot] = sample_index_[old];
      group_count_[slot] = group_count_[old];
    }
  }
  store_ = std::move(packed);

  id_.resize(packed_count);
  stream_index_.resize(packed_count);
  cell_key_.resize(packed_count);
  point_.resize(packed_count);
  point_arena_.resize(packed_count);
  flags_.resize(packed_count);
  next_in_cell_.resize(packed_count);
  dirty_epoch_.resize(packed_count);
  if (with_reservoir_) {
    sample_point_.resize(packed_count);
    sample_index_.resize(packed_count);
    group_count_.resize(packed_count);
  }
  free_slots_.clear();

  index_ = CellIndex();
  for (const auto& entry : heads) index_.SetHead(entry.first, entry.second);
  ++generation_;
}

void RepTable::RekeyCell(uint32_t slot, uint64_t new_cell_key) {
  Unlink(slot);
  cell_key_[slot] = new_cell_key;
  Link(slot);
  dirty_epoch_[slot] = ckpt_seq_;
  ++generation_;
}

void RepTable::Link(uint32_t slot) {
  next_in_cell_[slot] = index_.Upsert(cell_key_[slot], slot);
}

void RepTable::Unlink(uint32_t slot) {
  const uint64_t key = cell_key_[slot];
  const uint32_t head = index_.Find(key);
  RL0_DCHECK(head != kNpos);
  if (head == slot) {
    const uint32_t next = next_in_cell_[slot];
    if (next == kNpos) {
      index_.Erase(key);
    } else {
      index_.SetHead(key, next);
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

}  // namespace rl0
