// Matching schemes: nGP and GP (Section 2), plus the ring nearest-neighbour
// pairing used by the Frye baseline.
//
// Both global schemes are one-on-one matchings of busy donors to idle
// receivers via enumeration (sum-scans on the real machine).  nGP enumerates
// busy processors from PE 0 every time, so the processors early in the
// enumeration sequence are drafted into donating over and over (Appendix B
// shows V(P) can reach log^{(2x-1)/(1-x)} W phases).  GP keeps a *global
// pointer* to the last donor of the previous phase and starts the busy
// enumeration just after it, wrapping around — every processor shares the
// donation burden, and V(P) drops to 1/(1-x).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "lb/config.hpp"
#include "simd/rendezvous.hpp"

namespace simdts::lb {

class Matcher {
 public:
  explicit Matcher(MatchScheme scheme) : scheme_(scheme) {}

  /// Fills `out` (cleared first, capacity reused across rounds) with
  /// min(#busy, #idle, limit) donor->receiver pairs; for GP, advances the
  /// global pointer to the last donor of this call.  The limit exists for
  /// the FESS baseline, which serves a single idle processor per phase; it
  /// is pushed down into the rendezvous walk, so a small limit never
  /// materializes (then truncates) the full pair enumeration.  Both
  /// enumerations hop between occupied words via the planes' summaries
  /// (simd::rendezvous_into), so a sparse round costs O(occupied words)
  /// instead of O(P/64).
  void match_into(const simd::BitPlane& busy_flags,
                  const simd::SummaryPlane& busy_summary,
                  const simd::BitPlane& idle_flags,
                  const simd::SummaryPlane& idle_summary, std::size_t limit,
                  std::vector<simd::Pair>& out);

  /// Position of the global pointer (kNoPe before the first GP phase, and
  /// always kNoPe for nGP).
  [[nodiscard]] simd::PeIndex pointer() const { return pointer_; }

  /// Resets the pointer (e.g. between IDA* iterations, the pointer persists;
  /// call this only to re-run from scratch).
  void reset() { pointer_ = simd::kNoPe; }

  [[nodiscard]] MatchScheme scheme() const { return scheme_; }

 private:
  MatchScheme scheme_;
  simd::PeIndex pointer_ = simd::kNoPe;
};

/// Ring nearest-neighbour pairing: PE i donates to PE i+1 (mod P) when i is
/// busy and i+1 is idle.  Decisions are taken on the snapshot flags, as on a
/// lock-step machine.  Fills `out` (cleared first) in PE-index order.  The
/// pair plane is busy AND (idle rotated one lane toward lower indices),
/// computed one word at a time — a funnel shift per word instead of a
/// per-lane walk — and only busy-summary-occupied words are visited (a word
/// with no busy lane contributes no pairs regardless of the idle plane).
void neighbor_pairs_into(const simd::BitPlane& busy_flags,
                         const simd::SummaryPlane& busy_summary,
                         const simd::BitPlane& idle_flags,
                         std::vector<simd::Pair>& out);

/// The claim pass of a split-transfer round (lb::Engine::transfer_split).
/// In pair order it checks each donor is busy and each receiver idle on the
/// flag planes, and claims both lanes by clearing those bits — so a lane
/// named by two pairs, or both as donor and receiver, fails at its second
/// appearance.  It touches only the two planes: no stack, no summary.  The
/// caller moves the work for the claimed pairs, then sets the bits again
/// and resyncs the summaries from the moved stacks.  Throws EngineError
/// naming the first failing pair, with `cfg`'s scheme name and `cycle` as
/// its context; no work has moved at that point.
void claim_transfer_pairs(std::span<const simd::Pair> pairs,
                          simd::BitPlane& busy_flags,
                          simd::BitPlane& idle_flags, const SchemeConfig& cfg,
                          std::uint64_t cycle);

}  // namespace simdts::lb
