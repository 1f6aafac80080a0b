// Rendezvous allocation: pairing the k-th element of one set of PEs with the
// k-th element of another (Hillis, "The Connection Machine").
//
// Both the paper's matching schemes reduce to this primitive.  nGP pairs the
// k-th busy PE (in PE-index order) with the k-th idle PE.  GP pairs the k-th
// busy PE *in an enumeration that starts just after a global pointer and
// wraps around* with the k-th idle PE — the rotation is the whole difference
// between the two schemes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "simd/bitplane.hpp"
#include "simd/summary.hpp"

namespace simdts::simd {

/// Index of a processing element in the machine.  32 bits bound the
/// supported machine envelope at P < 2^32 — four thousand times the
/// P = 2^20 the mega-P sweeps exercise — and every rank/index on the P axis
/// uses this width (no narrower type appears on that axis; a regression at
/// non-power-of-64 P > 2^16 is pinned by tests/test_mega_p.cpp).
using PeIndex = std::uint32_t;
inline constexpr PeIndex kNoPe = static_cast<PeIndex>(-1);

/// One matched (donor, receiver) pair produced by a rendezvous.
struct Pair {
  PeIndex donor;
  PeIndex receiver;
  friend bool operator==(const Pair&, const Pair&) = default;
};

/// Pairs donors with receivers by rank.  Donor ranks are assigned in PE-index
/// order starting at the first donor *strictly after* `start_after` and
/// wrapping around the machine; receiver ranks are assigned in plain PE-index
/// order.  Passing `start_after == kNoPe` yields the unrotated (nGP)
/// enumeration.  Exactly min(#donors, #receivers, limit) pairs are produced,
/// pair k joining donor-rank k with receiver-rank k (the paper's one-on-one
/// matching: when idle processors outnumber busy ones only the first A idle
/// processors receive work, and vice versa).  The walk stops as soon as
/// `limit` pairs are emitted, so a small limit (the FESS baseline serves one
/// idle PE per phase) never materializes the full enumeration.  Pairs are
/// appended into a caller-owned buffer (cleared first) so hot loops can reuse
/// its capacity across rounds.
///
/// Both enumerations are word-level walks over the packed planes that hop
/// between occupied words via each plane's SummaryPlane (one bit per plane
/// word), so a phase costs O(occupied words + P/4096) rather than O(P): a
/// clear summary bit guarantees a zero word, so skipping it cannot change
/// the enumeration.  tests/test_lb_kernels.cpp pins the output to the naive
/// byte-plane reference in tests/reference/lb_kernels.hpp.
void rendezvous_into(const BitPlane& donor_flags,
                     const SummaryPlane& donor_summary,
                     const BitPlane& receiver_flags,
                     const SummaryPlane& receiver_summary, PeIndex start_after,
                     std::size_t limit, std::vector<Pair>& out);

/// The set PEs of `flags` in enumeration order, into a caller-owned buffer
/// (cleared first): plain PE-index order, or — when `start_after != kNoPe` —
/// starting at the first set PE strictly after `start_after` and wrapping
/// around.  rendezvous_into() is rank-aligned zipping of two such
/// enumerations.  Hops between occupied words like rendezvous_into().
void ranked_into(const BitPlane& flags, const SummaryPlane& summary,
                 PeIndex start_after, std::vector<PeIndex>& out);

}  // namespace simdts::simd
