// Work-splitting strategies (the paper's "alpha-splitting mechanism").
//
// When a busy processor donates work, its stack is split into two non-empty
// parts.  The quality of the split — how close to half of the remaining
// subtree the donated part represents — drives the number of load-balancing
// phases needed (Appendix A: at most V(P) * log_{1/(1-alpha)} W transfers).
//
// Strategies:
//   kBottomNode  donate the single node at the bottom of the stack (the
//                shallowest alternative, hence the largest subtree).  This is
//                what the paper used for the 15-puzzle and "appears to
//                provide a reasonable alpha-splitting mechanism".
//   kHalf        donate every other node (stratified half split, the classic
//                MIMD stack split of Rao & Kumar); donates nodes from all
//                depths.
//   kTopNode     donate the single node at the top (the deepest alternative,
//                i.e. the smallest subtree) — a deliberately poor splitter
//                used by the sensitivity ablation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "search/work_stack.hpp"

namespace simdts::search {

enum class SplitStrategy : std::uint8_t {
  kBottomNode,
  kHalf,
  kTopNode,
};

/// Name for reports.
[[nodiscard]] const char* to_string(SplitStrategy s);

/// Splits `donor` in place and pushes the donated nodes onto `receiver` in
/// bottom-to-top order, so that a receiving stack keeps depth-first order.
/// This is the one split routine: the lock-step engine moves work straight
/// from donor stack to receiver stack with it, and the MIMD comparator fills
/// a message payload stack.  Nothing is allocated beyond the receiver's own
/// amortized growth.  Preconditions: donor.splittable() and &donor !=
/// &receiver.  Postconditions: neither part is empty, the parts are
/// disjoint, and their union is the original stack.
template <typename Node>
void split_into(WorkStack<Node>& donor, SplitStrategy strategy,
                WorkStack<Node>& receiver) {
  switch (strategy) {
    case SplitStrategy::kBottomNode:
      receiver.push(donor.take_bottom());
      break;
    case SplitStrategy::kTopNode:
      receiver.push(donor.pop());
      break;
    case SplitStrategy::kHalf: {
      // Keep indices 1, 3, 5, ...; donate 0, 2, 4, ...  Donating from every
      // depth keeps both halves representative of the whole stack.  The kept
      // nodes are compacted towards the bottom in place.
      const std::size_t n = donor.size();
      std::size_t kept = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (i % 2 == 0) {
          receiver.push(std::move(donor[i]));
        } else {
          if (kept != i) donor[kept] = std::move(donor[i]);
          ++kept;
        }
      }
      donor.truncate(kept);
      break;
    }
  }
}

/// Moves every node of a donated payload onto `receiver`, bottom first, so
/// that depth-first order is maintained on the receiving side; leaves
/// `donated` empty.
template <typename Node>
void receive(WorkStack<Node>& receiver, WorkStack<Node>&& donated) {
  while (!donated.empty()) receiver.push(donated.take_bottom());
}

}  // namespace simdts::search
