#include "rl0/core/cell_index.h"

#include <algorithm>
#include <cstring>

// Same per-function target-attribute scheme as geom/distance_kernels.cc:
// portable baseline ISA, AVX2 bodies gated behind runtime dispatch, and
// RL0_NO_SIMD as the compile-time escape hatch.
#if !defined(RL0_NO_SIMD) && defined(__GNUC__) && \
    (defined(__x86_64__) || defined(__i386__))
#define RL0_CELL_INDEX_X86 1
#include <immintrin.h>
#endif

namespace rl0 {

namespace {
constexpr size_t kInitialBuckets = 16;  // power of two; shift_ starts at 60

#if RL0_CELL_INDEX_X86
bool CellIndexAvx2Supported() {
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
}
#endif
}  // namespace

const char* CellIndexDispatch() {
#if RL0_CELL_INDEX_X86
  return CellIndexAvx2Supported() ? "avx2" : "scalar";
#else
  return "scalar";
#endif
}

namespace cell_index_internal {
namespace {

size_t FindBucketScalar(const uint64_t* keys, const uint8_t* states,
                        size_t size, size_t start, uint64_t key) {
  const size_t mask = size - 1;
  for (size_t i = start;; i = (i + 1) & mask) {
    if (states[i] == kEmpty) return kNoBucket;
    if (states[i] == kFull && keys[i] == key) return i;
  }
}

#if RL0_CELL_INDEX_X86
// Compares four consecutive buckets per step. The scalar probe stops at
// the first position (in probe order) that is empty, or full with a
// matching key; here that position is the lowest set bit of
// `emptym | (eqm & fullm)` within the block, so the returned verdict —
// and the set of positions that influence it — is identical. Blocks may
// read a few buckets past the stop position; those reads never feed the
// result. The tail before the array end falls back to single scalar
// steps so no load crosses the wrap-around.
__attribute__((target("avx2"))) size_t FindBucketAvx2(
    const uint64_t* keys, const uint8_t* states, size_t size, size_t start,
    uint64_t key) {
  const size_t mask = size - 1;
  const __m256i needle =
      _mm256_set1_epi64x(static_cast<long long>(key));
  size_t i = start;
  for (;;) {
    if (i + 4 <= size) {
      const __m256i k = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(&keys[i]));
      const unsigned eqm = static_cast<unsigned>(_mm256_movemask_pd(
          _mm256_castsi256_pd(_mm256_cmpeq_epi64(k, needle))));
      uint32_t s;
      std::memcpy(&s, &states[i], sizeof(s));
      unsigned emptym = 0;
      unsigned fullm = 0;
      for (int j = 0; j < 4; ++j) {
        const uint32_t b = (s >> (8 * j)) & 0xffu;
        emptym |= (b == kEmpty ? 1u : 0u) << j;
        fullm |= (b == kFull ? 1u : 0u) << j;
      }
      const unsigned stop = emptym | (eqm & fullm);
      if (stop != 0) {
        const unsigned j = static_cast<unsigned>(__builtin_ctz(stop));
        if (emptym & (1u << j)) return kNoBucket;
        return i + j;
      }
      i = (i + 4) & mask;
    } else {
      if (states[i] == kEmpty) return kNoBucket;
      if (states[i] == kFull && keys[i] == key) return i;
      i = (i + 1) & mask;
    }
  }
}
#endif  // RL0_CELL_INDEX_X86

}  // namespace

size_t FindBucket(const uint64_t* keys, const uint8_t* states, size_t size,
                  size_t start, uint64_t key) {
#if RL0_CELL_INDEX_X86
  if (CellIndexAvx2Supported()) {
    return FindBucketAvx2(keys, states, size, start, key);
  }
#endif
  return FindBucketScalar(keys, states, size, start, key);
}

}  // namespace cell_index_internal

template <typename V, V kAbsent>
V& BasicCellIndex<V, kAbsent>::FindOrInsert(uint64_t key) {
  if ((used_ + 1) * 10 >= keys_.size() * 7) Grow();
  const size_t mask = keys_.size() - 1;
  size_t i = BucketFor(key);
  size_t insert_at = keys_.size();  // first tombstone seen, if any
  for (;;) {
    if (states_[i] == kFull && keys_[i] == key) return values_[i];
    if (states_[i] == kTombstone && insert_at == keys_.size()) insert_at = i;
    if (states_[i] == kEmpty) {
      if (insert_at == keys_.size()) {
        insert_at = i;
        ++used_;  // consuming a fresh empty bucket
      }
      keys_[insert_at] = key;
      values_[insert_at] = kAbsent;
      states_[insert_at] = kFull;
      ++live_;
      return values_[insert_at];
    }
    i = (i + 1) & mask;
  }
}

template <typename V, V kAbsent>
void BasicCellIndex<V, kAbsent>::Erase(uint64_t key) {
  const size_t i = FindBucket(key);
  if (i == kNoBucket) return;
  states_[i] = kTombstone;
  --live_;
}

template <typename V, V kAbsent>
void BasicCellIndex<V, kAbsent>::Clear() {
  if (keys_.size() > kInitialBuckets) {
    *this = BasicCellIndex();
    return;
  }
  std::fill(states_.begin(), states_.end(), uint8_t{kEmpty});
  live_ = 0;
  used_ = 0;
}

template <typename V, V kAbsent>
void BasicCellIndex<V, kAbsent>::Grow() {
  // The 70% trigger counts tombstones; under heavy rep churn (refilters,
  // window expiry) most of `used_` can be dead. Double only when live
  // keys genuinely crowd the table (≥ 35%); otherwise rehash at the same
  // size to clear tombstones, so the bucket array tracks the *live*
  // population — the bound kCellIndexEntryWords models — not the
  // cumulative insertion count. An unallocated table starts at
  // kInitialBuckets.
  std::vector<uint64_t> old_keys = std::move(keys_);
  std::vector<V> old_values = std::move(values_);
  std::vector<uint8_t> old_states = std::move(states_);
  size_t new_size = kInitialBuckets;
  if (!old_keys.empty()) {
    const bool double_size = (live_ + 1) * 20 >= old_keys.size() * 7;
    new_size = double_size ? old_keys.size() * 2 : old_keys.size();
    if (double_size) --shift_;
  }
  keys_.assign(new_size, 0);
  values_.assign(new_size, kAbsent);
  states_.assign(new_size, kEmpty);
  live_ = 0;
  used_ = 0;
  const size_t mask = new_size - 1;
  for (size_t b = 0; b < old_keys.size(); ++b) {
    if (old_states[b] != kFull) continue;
    size_t i = BucketFor(old_keys[b]);
    while (states_[i] == kFull) i = (i + 1) & mask;
    keys_[i] = old_keys[b];
    values_[i] = old_values[b];
    states_[i] = kFull;
    ++live_;
    ++used_;
  }
}

template class BasicCellIndex<uint32_t, ~uint32_t{0}>;
template class BasicCellIndex<uint64_t, 0>;

}  // namespace rl0
