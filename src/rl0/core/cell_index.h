// Open-addressing hash maps keyed by 64-bit grid cell keys.
//
// Every sampler table indexes its groups by cell: RepTable and
// SwGroupTable map a cell key to the head slot of the cell's intrusive
// chain (CellIndex), and a sliding-window hierarchy maps a cell key to
// the set of levels that hold a group there (SwCellDirectory, a
// BasicCellIndex of 64-bit level masks).

#ifndef RL0_CORE_CELL_INDEX_H_
#define RL0_CORE_CELL_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rl0/util/check.h"

namespace rl0 {

/// Active CellIndex probe kernel: "avx2" or "scalar". Mirrors
/// DistanceKernelDispatch(); benches record it next to machine facts.
const char* CellIndexDispatch();

namespace cell_index_internal {

enum : uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };
constexpr size_t kNoBucket = ~size_t{0};

/// The bucket holding `key` on the linear probe sequence that starts at
/// `start` in a table of `size` (a power of two) buckets, or kNoBucket.
/// Runtime-dispatched: AVX2 or scalar (see CellIndexDispatch).
size_t FindBucket(const uint64_t* keys, const uint8_t* states, size_t size,
                  size_t start, uint64_t key);

}  // namespace cell_index_internal

/// Open-addressing hash table: cell key → value, with `kAbsent` standing
/// for "no entry". Linear probing with tombstones; grows at 70%
/// occupancy.
///
/// Storage is structure-of-arrays (keys / values / states in parallel
/// vectors) so the probe loop can compare several buckets per step: the
/// AVX2 path fingerprints four consecutive keys at once and resolves the
/// first empty-or-matching position with a ctz, visiting positions in
/// exactly the scalar probe order — decisions and probe order are
/// unchanged, only the stride over memory differs. Runtime dispatch and
/// the -DRL0_NO_SIMD escape hatch follow geom/distance_kernels.h.
///
/// A new (or cleared) table holds no buckets; the first insertion
/// allocates them. Constructing one never allocates, so a hierarchy's
/// per-level indexes cost nothing until a level holds a group.
template <typename V, V kAbsent>
class BasicCellIndex {
 public:
  static constexpr V kNpos = kAbsent;

  /// Value of `key`, or kNpos.
  V Find(uint64_t key) const {
    const size_t i = FindBucket(key);
    return i == kNoBucket ? kAbsent : values_[i];
  }

  /// Sets (inserting if absent) the value of `key`.
  void SetHead(uint64_t key, V value) { (void)Upsert(key, value); }

  /// Sets the value of `key` and returns the previous one (kNpos if the
  /// key was absent) — SetHead and Find in one probe, the push-front
  /// primitive of the cell chains.
  V Upsert(uint64_t key, V value) {
    RL0_DCHECK(value != kAbsent);
    V& slot = FindOrInsert(key);
    const V prev = slot;
    slot = value;
    return prev;
  }

  /// The value of `key`, inserted as kNpos if absent. The reference is
  /// valid until the next insertion.
  V& FindOrInsert(uint64_t key);

  /// Removes `key` (no-op if absent).
  void Erase(uint64_t key);

  /// Drops every entry. A table still at its initial bucket count keeps
  /// (and empties) its buckets; a grown one releases them.
  void Clear();

  /// Prefetches the probe bucket for `key` into cache. The batch
  /// ingestion paths issue this one stream element ahead, overlapping the
  /// bucket's memory latency with the current element's distance work.
  void Prefetch(uint64_t key) const {
#if defined(__GNUC__)
    if (keys_.empty()) return;
    const size_t i = BucketFor(key);
    __builtin_prefetch(&keys_[i]);
    __builtin_prefetch(&states_[i]);
#endif
  }

  /// Calls fn(key, value) for every present key, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < keys_.size(); ++i) {
      if (states_[i] == kFull) fn(keys_[i], values_[i]);
    }
  }

  /// Number of distinct keys present.
  size_t live() const { return live_; }

 private:
  static constexpr uint8_t kEmpty = cell_index_internal::kEmpty;
  static constexpr uint8_t kFull = cell_index_internal::kFull;
  static constexpr uint8_t kTombstone = cell_index_internal::kTombstone;
  static constexpr size_t kNoBucket = cell_index_internal::kNoBucket;

  size_t BucketFor(uint64_t key) const {
    // Keys are already mixed (grid/cell.h); a multiplicative spread keeps
    // linear probing clusters short even for adversarial key sets.
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  /// Bucket holding `key`, or kNoBucket.
  size_t FindBucket(uint64_t key) const {
    if (keys_.empty()) return kNoBucket;
    return cell_index_internal::FindBucket(keys_.data(), states_.data(),
                                           keys_.size(), BucketFor(key), key);
  }
  void Grow();

  std::vector<uint64_t> keys_;
  std::vector<V> values_;
  std::vector<uint8_t> states_;
  uint32_t shift_ = 64 - 4;  // 64 - log2(bucket count once allocated)
  size_t live_ = 0;          // kFull buckets
  size_t used_ = 0;          // kFull + kTombstone buckets
};

/// Cell key → head slot of the cell's chain.
using CellIndex = BasicCellIndex<uint32_t, ~uint32_t{0}>;

extern template class BasicCellIndex<uint32_t, ~uint32_t{0}>;
extern template class BasicCellIndex<uint64_t, 0>;

}  // namespace rl0

#endif  // RL0_CORE_CELL_INDEX_H_
