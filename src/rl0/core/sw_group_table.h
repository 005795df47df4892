// Flat, arena-friendly storage for sliding-window candidate groups.
//
// The pre-refactor SwFixedRateSampler kept its groups in three node-based
// containers: an unordered_map<id, StoredGroup>, an unordered_multimap
// cell→id, and an ordered map<(stamp, id), id> for expiry — three heap
// allocations and three pointer chases per group operation. SwGroupTable
// flattens all of it, mirroring core/rep_table.h:
//
//   * group coordinates (representative, latest point, reservoir
//     candidates) live in the sampler family's shared PointStore arena;
//   * scalar fields are parallel columns indexed by a 32-bit slot,
//     recycled through a free list;
//   * cell membership is an intrusive chain threaded through the
//     `next_in_cell` column, with heads in a CellIndex (open addressing);
//   * expiry order is an intrusive doubly-linked list threaded through
//     the `stamp_prev`/`stamp_next` columns, kept sorted by latest stamp.
//     Stream arrivals only ever append at the tail (stamps are
//     non-decreasing) or move a refreshed group to the tail, both O(1);
//     the rare adoption of groups with older stamps (split promotion,
//     snapshot restore) inserts by walking back from the tail.
//
// No operation allocates per entry: the columns grow to the peak live
// population and everything else is slot surgery.
//
// Ownership: the table owns its groups' arena slots and reservoirs and
// releases them on Remove/Clear/destruction. Extract/AdoptMoved transfer
// that ownership between tables sharing one PointStore without touching
// the arena — the primitive behind the hierarchy's arena-internal split
// promotion (reservoir coin streams move intact).

#ifndef RL0_CORE_SW_GROUP_TABLE_H_
#define RL0_CORE_SW_GROUP_TABLE_H_

#include <cstdint>
#include <vector>

#include "rl0/core/rep_table.h"
#include "rl0/core/windowed_reservoir.h"
#include "rl0/geom/point_store.h"
#include "rl0/util/check.h"

namespace rl0 {

/// SoA table of sliding-window groups with a flat cell index and an
/// intrusive stamp-ordered expiry list. Move-only (owns arena slots).
class SwGroupTable {
 public:
  static constexpr uint32_t kNpos = CellIndex::kNpos;

  /// A group's fields with ownership of its arena refs and reservoir —
  /// the transfer format of Extract/AdoptMoved (both tables must share
  /// one PointStore; nothing is copied, reservoir state moves intact).
  struct MovedGroup {
    uint64_t id = 0;
    PointRef rep;
    uint64_t rep_index = 0;
    uint64_t rep_cell = 0;
    bool accepted = false;
    PointRef latest;
    int64_t latest_stamp = 0;
    uint64_t latest_index = 0;
    WindowedReservoir reservoir;
  };

  SwGroupTable() = default;
  ~SwGroupTable() { Clear(); }

  SwGroupTable(SwGroupTable&&) = default;
  SwGroupTable& operator=(SwGroupTable&&) = default;
  SwGroupTable(const SwGroupTable&) = delete;
  SwGroupTable& operator=(const SwGroupTable&) = delete;

  /// Binds the arena. Must be called once, before any insertion.
  void Bind(PointStore* store) {
    RL0_DCHECK(store_ == nullptr && live_ == 0);
    store_ = store;
  }

  // ----------------------------------------------------------- lifecycle

  /// Adds a fresh group whose representative and latest point are both
  /// `point`, appended at the expiry tail. Requires `stamp` ≥ every
  /// stored latest stamp (stream stamps are non-decreasing).
  uint32_t Add(uint64_t id, PointView point, uint64_t stream_index,
               uint64_t cell_key, bool accepted, int64_t stamp);

  /// Refreshes the latest point/stamp/index of `slot` and moves it to
  /// the expiry tail. Requires `stamp` ≥ every stored latest stamp.
  void Touch(uint32_t slot, PointView latest, int64_t stamp,
             uint64_t stream_index);

  /// Removes the group: unlinks both intrusive structures, releases its
  /// arena slots and reservoir, recycles the slot.
  void Remove(uint32_t slot);

  /// Unlinks and recycles `slot` WITHOUT releasing arena storage; the
  /// returned MovedGroup owns the refs and the (still-live) reservoir.
  MovedGroup Extract(uint32_t slot);

  /// Installs a moved group, inserting into the expiry list by stamp
  /// (walks back from the tail — O(1) for fresh stamps, O(live) worst
  /// case on the rare adoption paths). The group's refs must point into
  /// this table's bound store.
  uint32_t AdoptMoved(MovedGroup&& g);

  /// Releases every group and empties the table (the hierarchy's pruning
  /// step). Keeps column capacity.
  void Clear();

  /// Compacts the slot columns: live groups move down to [0, live()),
  /// both intrusive structures (cell chains, stamp list) are remapped
  /// link by link, and the CellIndex is rebuilt. Same contract as
  /// RepTable::Compact — the renumbering is monotone, so slot-order
  /// iteration and per-cell chain order are invariant — EXCEPT that the
  /// shared arena is NOT repacked: the PointStore is owned by the whole
  /// hierarchy (all levels plus their reservoirs hold refs into it), so a
  /// single level's table must not move arena slots. Externally held slot
  /// indices are invalidated.
  void Compact();

  /// Compacts when ≥50% of the slot columns are dead and the table is
  /// big enough to matter (expiry waves after a stream gap are the usual
  /// trigger). Returns whether it ran.
  bool MaybeCompact();

  /// Prefetches the CellIndex bucket of `key` (batch-ingestion paths
  /// issue this one stream element ahead).
  void PrefetchCell(uint64_t key) const { cell_index_.Prefetch(key); }

  /// True when the cell index is populated enough for a cold bucket load
  /// to be plausible (same gate as RepTable::PrefetchPays).
  bool PrefetchPays() const {
    return cell_index_.live() >= RepTable::kPrefetchMinCells;
  }

  // ------------------------------------------------------------- queries

  size_t live() const { return live_; }
  /// Upper bound over slot indices (iterate 0..slot_count(), skip dead).
  size_t slot_count() const { return flags_.size(); }
  bool IsLive(uint32_t slot) const { return (flags_[slot] & kLiveFlag) != 0; }

  uint64_t id(uint32_t slot) const { return id_[slot]; }
  PointRef rep_ref(uint32_t slot) const { return rep_[slot]; }
  /// The representative's arena slot index — the handle the batched
  /// distance kernels take (column-cached; no division on the gather).
  uint32_t rep_arena_slot(uint32_t slot) const { return rep_arena_[slot]; }
  uint64_t rep_index(uint32_t slot) const { return rep_index_[slot]; }
  uint64_t rep_cell(uint32_t slot) const { return rep_cell_[slot]; }
  bool accepted(uint32_t slot) const {
    return (flags_[slot] & kAcceptedFlag) != 0;
  }
  PointRef latest_ref(uint32_t slot) const { return latest_[slot]; }
  int64_t latest_stamp(uint32_t slot) const { return latest_stamp_[slot]; }
  uint64_t latest_index(uint32_t slot) const { return latest_index_[slot]; }
  WindowedReservoir& reservoir(uint32_t slot) { return reservoir_[slot]; }
  const WindowedReservoir& reservoir(uint32_t slot) const {
    return reservoir_[slot];
  }

  /// First slot of `key`'s cell chain (kNpos if none).
  uint32_t CellHead(uint64_t key) const { return cell_index_.Find(key); }
  /// Next slot in the same cell's chain (kNpos at the end).
  uint32_t NextInCell(uint32_t slot) const { return next_in_cell_[slot]; }

  /// The slot with the smallest latest stamp (kNpos when empty) — the
  /// expiry candidate.
  uint32_t OldestSlot() const { return stamp_head_; }

  /// The bound arena (introspection).
  const PointStore* store() const { return store_; }

  // -------------------------------------------------- checkpoint support

  /// Starts a new checkpoint epoch (see RepTable::MarkCheckpoint): a slot
  /// reports SlotDirty() only for record mutations after this call.
  void MarkCheckpoint() { ++ckpt_seq_; }

  /// Whether `slot`'s record content changed since MarkCheckpoint().
  bool SlotDirty(uint32_t slot) const {
    return dirty_epoch_[slot] == ckpt_seq_;
  }

  /// Stamps `slot` into the current checkpoint epoch — the table stamps
  /// its own mutations; the owning sampler stamps reservoir mutations the
  /// table cannot observe (query-time expiry, candidate insertion).
  void MarkSlotDirty(uint32_t slot) { dirty_epoch_[slot] = ckpt_seq_; }

 private:
  enum : uint8_t { kLiveFlag = 1, kAcceptedFlag = 2 };

  uint32_t AllocateSlot();
  void LinkCell(uint32_t slot);
  void UnlinkCell(uint32_t slot);
  void AppendStampTail(uint32_t slot);
  void InsertStampSorted(uint32_t slot);
  void UnlinkStamp(uint32_t slot);

  PointStore* store_ = nullptr;
  CellIndex cell_index_;

  std::vector<uint64_t> id_;
  std::vector<PointRef> rep_;
  std::vector<uint32_t> rep_arena_;  // rep_'s arena slot index
  std::vector<uint64_t> rep_index_;
  std::vector<uint64_t> rep_cell_;
  std::vector<PointRef> latest_;
  std::vector<int64_t> latest_stamp_;
  std::vector<uint64_t> latest_index_;
  std::vector<WindowedReservoir> reservoir_;
  std::vector<uint8_t> flags_;
  std::vector<uint32_t> next_in_cell_;
  std::vector<uint32_t> stamp_prev_;
  std::vector<uint32_t> stamp_next_;

  // Checkpoint-epoch stamp per slot (dirty ⇔ stamp == ckpt_seq_); epochs
  // travel with their slots under Compact.
  std::vector<uint64_t> dirty_epoch_;
  uint64_t ckpt_seq_ = 0;

  uint32_t stamp_head_ = kNpos;
  uint32_t stamp_tail_ = kNpos;
  std::vector<uint32_t> free_slots_;
  size_t live_ = 0;
};

}  // namespace rl0

#endif  // RL0_CORE_SW_GROUP_TABLE_H_
