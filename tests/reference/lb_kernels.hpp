// Naive byte-plane reference implementations of the load-balancing
// primitives, written straight from Section 2 of the paper: one byte per PE,
// one pass per enumeration, no word tricks, no summaries.  The production
// kernels (simd::rendezvous_into, simd::ranked_into, lb::Matcher::match_into,
// lb::neighbor_pairs_into) are word-level walks over packed planes that hop
// between occupied words via SummaryPlanes; every one of them must produce
// exactly what these produce on the same occupancy pattern.  The property
// suite in tests/test_lb_kernels.cpp pins that equivalence, up to a sparse
// P = 2^20 plane.
//
// Header-only and test-side by design: the engine never calls these.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "lb/config.hpp"
#include "simd/bitplane.hpp"
#include "simd/rendezvous.hpp"
#include "simd/summary.hpp"

namespace simdts::reference {

using simd::kNoPe;
using simd::Pair;
using simd::PeIndex;

inline constexpr std::size_t kNoLimit = static_cast<std::size_t>(-1);

/// The set PEs of `flags` in enumeration order: the rotated walk visits
/// start_after+1, ..., P-1, 0, ..., start_after (plain PE-index order when
/// start_after == kNoPe).  On the machine this is one sum-scan over a
/// rotated flag plane.
inline std::vector<PeIndex> ranked(std::span<const std::uint8_t> flags,
                                   PeIndex start_after = kNoPe) {
  const std::size_t p = flags.size();
  std::vector<PeIndex> out;
  if (p == 0) return out;
  const std::size_t first =
      start_after == kNoPe ? 0 : (std::size_t{start_after} + 1) % p;
  for (std::size_t step = 0; step < p; ++step) {
    const std::size_t i = (first + step) % p;
    if (flags[i] != 0) out.push_back(static_cast<PeIndex>(i));
  }
  return out;
}

/// Rendezvous allocation: donor-rank k (rotated after `start_after`) pairs
/// with receiver-rank k (plain order), for the first
/// min(#donors, #receivers, limit) ranks.
inline std::vector<Pair> rendezvous(std::span<const std::uint8_t> donors,
                                    std::span<const std::uint8_t> receivers,
                                    PeIndex start_after = kNoPe,
                                    std::size_t limit = kNoLimit) {
  const std::vector<PeIndex> d = ranked(donors, start_after);
  const std::vector<PeIndex> r = ranked(receivers);
  std::vector<Pair> out;
  for (std::size_t k = 0; k < d.size() && k < r.size() && k < limit; ++k) {
    out.push_back(Pair{d[k], r[k]});
  }
  return out;
}

/// nGP / GP matching.  GP starts the busy enumeration just after the global
/// pointer and moves the pointer to the last donor of every non-empty round;
/// nGP always enumerates from PE 0 and keeps no pointer.
class Matcher {
 public:
  explicit Matcher(lb::MatchScheme scheme) : scheme_(scheme) {}

  std::vector<Pair> match(std::span<const std::uint8_t> busy,
                          std::span<const std::uint8_t> idle,
                          std::size_t limit = kNoLimit) {
    const bool gp = scheme_ == lb::MatchScheme::kGP;
    std::vector<Pair> out =
        rendezvous(busy, idle, gp ? pointer_ : kNoPe, limit);
    if (gp && !out.empty()) pointer_ = out.back().donor;
    return out;
  }

  [[nodiscard]] PeIndex pointer() const { return pointer_; }

 private:
  lb::MatchScheme scheme_;
  PeIndex pointer_ = kNoPe;
};

/// Ring nearest-neighbour pairing: PE i donates to PE (i+1) mod P when i is
/// busy and its right neighbour is idle, in PE-index order.
inline std::vector<Pair> neighbor_pairs(std::span<const std::uint8_t> busy,
                                        std::span<const std::uint8_t> idle) {
  const std::size_t p = busy.size();
  std::vector<Pair> out;
  for (std::size_t i = 0; i < p; ++i) {
    const std::size_t j = (i + 1) % p;
    if (busy[i] != 0 && idle[j] != 0) {
      out.push_back(Pair{static_cast<PeIndex>(i), static_cast<PeIndex>(j)});
    }
  }
  return out;
}

/// A byte plane in the form the production kernels take it: the packed bit
/// plane plus its occupancy summary, as the engine maintains them.
struct PackedFlags {
  simd::BitPlane plane;
  simd::SummaryPlane summary;

  explicit PackedFlags(std::span<const std::uint8_t> bytes)
      : plane(bytes.size()) {
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      if (bytes[i] != 0) plane.set(i);
    }
    summary.assign_for_lanes(bytes.size());
    summary.rebuild(plane);
  }
};

}  // namespace simdts::reference
