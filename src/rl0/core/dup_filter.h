#ifndef RL0_CORE_DUP_FILTER_H_
#define RL0_CORE_DUP_FILTER_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "rl0/geom/point.h"

namespace rl0 {

// Counters for the duplicate-suppression front-end. `bypassed` counts the
// arrivals that never consulted the filter (filter disabled or compiled out);
// it is derived from the sampler's points_processed so the disabled hot path
// carries zero accounting overhead.
struct DupFilterStats {
  uint64_t hits = 0;      // front-end hit, verified, replayed
  uint64_t misses = 0;    // consulted but fell through to the full probe
  uint64_t bypassed = 0;  // filter off: arrival went straight to the full probe

  DupFilterStats& operator+=(const DupFilterStats& o) {
    hits += o.hits;
    misses += o.misses;
    bypassed += o.bypassed;
    return *this;
  }
};

// DupFilter is a small 2-way set-associative cache of recently-seen exact
// arrivals, keyed on a hash of the point's bytes and guarded by the full
// bytes. Each entry remembers (point bytes, epoch, payload words). The
// payload is opaque to the filter: the IW sampler stores the
// representative slot, or RepTable::kNpos for a point Algorithm 1 ignored;
// the SW sampler stores the accept level plus the per-level touched slots
// of the recorded descent.
//
// Keying by bytes rather than by the quantized cell key lets an arrival
// consult the filter without quantizing it first; byte-equal points always
// share a cell, so nothing the samplers replay depends on the key. Two ways
// per set, with a most-recently-used bit steering eviction, absorb index
// conflicts: two hot points whose hashes share a set both stay resident.
//
// Decision-identity contract: the filter never decides anything by itself.
// A Lookup only *finds* the verdict the full probe reached for these exact
// bytes; the caller replays it only when the sampler can prove the full
// probe would reach it again, and falls through to the full probe, which is
// always correct, on any doubt:
//  * a cached slot is replayed only while the entry's epoch matches the
//    live structure generation (so slots never dangle across Refilter/
//    Expire/Compact/Promote repacks) and the real distance kernel
//    re-verifies the cached representative. Epoch validation lives with the
//    caller because the SW epoch is itself a function of the payload (the
//    accept level selects which level generations participate).
//  * the IW "ignored" verdict (no candidate, no sampled cell within alpha)
//    needs no kernel re-verify: the level only rises while a filter lives
//    and h_R is nested (paper Fact 1(b)), so the point can never become a
//    representative, and the only other outcome of a full probe, the
//    duplicate-loss path, changes no state without random_representative.
//    In reservoir mode that path draws a coin, so the verdict is replayed
//    only while the epoch still matches the RepTable generation: a later
//    Add within alpha of the point bumps it.
//
// The filter's arrays are scratch state (like adj_scratch_): they are not
// charged to the SpaceMeter and never enter snapshots, so snapshot bytes are
// identical with the filter on or off; a restored sampler starts cold.
class DupFilter {
 public:
  // True when the front-end is compiled in (-DRL0_NO_DUP_FILTER removes it;
  // every construction then degenerates to a disabled filter and the replay
  // code paths become dead).
#if defined(RL0_NO_DUP_FILTER)
  static constexpr bool kCompiledIn = false;
#else
  static constexpr bool kCompiledIn = true;
#endif

  static constexpr size_t kWays = 2;
  static constexpr size_t kSets = 128;
  static constexpr size_t kEntries = kSets * kWays;

  // Result of a probe. `payload` points at `payload_len` words recorded by
  // the matching Store; valid until the next Store/Invalidate.
  struct View {
    const uint32_t* payload = nullptr;
    uint64_t epoch = 0;
    bool found = false;
  };

  // A default-constructed filter is disabled and allocation-free.
  DupFilter() = default;

  // `payload_len` is the number of uint32 words the caller records per entry.
  // A disabled filter allocates nothing; Lookup always misses (without
  // counting) and Store is a no-op.
  DupFilter(size_t dim, size_t payload_len, bool enabled);

  bool enabled() const { return enabled_; }

  // Probes for an entry holding exactly the bytes of `p`. Byte equality
  // (memcmp) is strictly stronger than operator== on coordinates, so a found
  // entry is safe to replay even across -0.0/NaN oddities.
  View Lookup(PointView p) const;

  // Installs an entry for the bytes of `p` and returns the payload words for
  // the caller to fill, or nullptr when disabled. Way choice within the set:
  // an existing entry with identical bytes is refreshed in place, an empty
  // way is filled next, otherwise the least-recently-used way is evicted.
  uint32_t* Store(uint64_t epoch, PointView p);

  // Drops every cached entry. Cheap (clears one tag byte array); correctness
  // never depends on it thanks to epoch validation, but callers may use it
  // after wholesale rebuilds.
  void Invalidate();

  // The set the bytes of `p` map to (tests search it for conflicts).
  static size_t SetOf(PointView p) { return SlotFor(p).set; }

  // Outcome accounting. The caller (not Lookup) counts, because a found
  // entry may still be rejected by the caller-side epoch check.
  void CountHit() { ++hits_; }
  void CountMiss() { ++misses_; }

  // `points_processed` is the sampler's total arrival count; everything that
  // was neither a hit nor a consulted miss bypassed the filter.
  DupFilterStats stats(uint64_t points_processed) const {
    DupFilterStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.bypassed = points_processed - hits_ - misses_;
    return s;
  }

 private:
  struct Slot {
    size_t set;  // first entry of the set is set * kWays
    uint16_t tag;
  };
  // Multiply-xorshift over the coordinate words: the fold carries each
  // product's high bits (where coordinate differences of doubles live) into
  // the low bits the next multiply spreads upward.
  static Slot SlotFor(PointView p) {
    uint64_t h = 0;
    for (size_t i = 0; i < p.dim(); ++i) {
      uint64_t w;
      std::memcpy(&w, p.data() + i, sizeof(w));
      h = (h ^ w) * 0x9E3779B97F4A7C15ULL;
      h ^= h >> 32;
    }
    Slot s;
    s.set = static_cast<size_t>(h >> 57);  // top 7 bits -> 128 sets
    // |1 keeps 0 reserved as the empty tag.
    s.tag = static_cast<uint16_t>(static_cast<uint16_t>(h >> 40) | 1u);
    return s;
  }

  // True when entry `e` holds exactly the bytes of `p`.
  bool EntryMatches(size_t e, const Slot& s, PointView p) const {
    return tags_[e] == s.tag &&
           std::memcmp(&bytes_[e * dim_], p.data(),
                       dim_ * sizeof(double)) == 0;
  }

  bool enabled_ = false;
  size_t dim_ = 0;
  size_t payload_len_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  std::vector<uint16_t> tags_;       // 0 == empty
  std::vector<uint64_t> epochs_;     // structure generation at record time
  std::vector<uint32_t> payload_;    // kEntries * payload_len_
  std::vector<double> bytes_;        // kEntries * dim_ exact point bytes
  mutable std::vector<uint8_t> mru_;  // per set: way touched last
};

}  // namespace rl0

#endif  // RL0_CORE_DUP_FILTER_H_
