// The 15-puzzle as a TreeProblem for IDA*.
//
// Search nodes carry the packed board plus cached blank position, path cost
// g, heuristic value h, and the last blank move (so the inverse move is never
// generated — the standard 15-puzzle branching reduction, giving trees of
// branching factor ~2.13).  With the Manhattan heuristic, h is maintained
// incrementally in O(1) per move.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "puzzle/board.hpp"
#include "puzzle/heuristic.hpp"
#include "search/problem.hpp"

namespace simdts::puzzle {

class FifteenPuzzle {
 public:
  struct Node {
    std::uint64_t board;  ///< packed tiles
    std::uint8_t blank;   ///< blank position, cached
    std::uint8_t g;       ///< moves from the start configuration
    std::uint8_t h;       ///< heuristic value, maintained incrementally
    std::uint8_t last;    ///< last blank move (kNoMove at the root)

    friend bool operator==(const Node&, const Node&) = default;
  };

  explicit FifteenPuzzle(Board start,
                         Heuristic heuristic = Heuristic::kManhattan)
      : start_(start), heuristic_(heuristic) {}

  [[nodiscard]] Node root() const {
    Node n{};
    n.board = start_.packed();
    n.blank = static_cast<std::uint8_t>(start_.blank_position());
    n.g = 0;
    n.h = static_cast<std::uint8_t>(evaluate(start_, heuristic_));
    n.last = kNoMove;
    return n;
  }

  /// Generates children with f = g + h <= bound; prunes the inverse of the
  /// last move; records the minimum pruned f in `next`.  This is the hot
  /// path of every experiment, so moves are applied with direct nibble
  /// arithmetic on the packed board, and children are staged batched: every
  /// move writes through a flat cursor into `out`'s tail (sized once for the
  /// four-move worst case) and the cursor advances by the bound predicate —
  /// one size adjustment per expansion instead of a push_back per child, and
  /// no data-dependent branch on the bound test.
  void expand(const Node& n, search::Bound bound, std::vector<Node>& out,
              search::NextBound& next) const {
    const int blank = n.blank;
    const int row = row_of(blank);
    const int col = col_of(blank);
    const std::uint8_t skip =
        n.last == kNoMove
            ? kNoMove
            : static_cast<std::uint8_t>(inverse(static_cast<Move>(n.last)));

    const std::size_t base = out.size();
    out.resize(base + 4);  // at most four moves
    Node* const dst = out.data() + base;
    std::size_t k = 0;

    auto try_move = [&](Move m, bool legal, int target) {
      if (!legal || static_cast<std::uint8_t>(m) == skip) return;
      const std::uint64_t t = (n.board >> (4 * target)) & 0xF;
      std::uint64_t board = n.board & ~(0xFULL << (4 * target));
      board |= t << (4 * blank);
      Node child{};
      child.board = board;
      child.blank = static_cast<std::uint8_t>(target);
      child.g = static_cast<std::uint8_t>(n.g + 1);
      if (heuristic_ == Heuristic::kManhattan) {
        child.h = static_cast<std::uint8_t>(
            n.h + manhattan_delta(static_cast<std::uint8_t>(t), target, blank));
      } else {
        child.h = static_cast<std::uint8_t>(
            evaluate(Board(board), heuristic_));
      }
      child.last = static_cast<std::uint8_t>(m);
      const auto f = static_cast<search::Bound>(child.g) + child.h;
      const bool take = f <= bound;
      dst[k] = child;
      k += static_cast<std::size_t>(take);
      if (!take) next.observe(f);
    };

    try_move(Move::kUp, row > 0, blank - kSide);
    try_move(Move::kDown, row < kSide - 1, blank + kSide);
    try_move(Move::kLeft, col > 0, blank - 1);
    try_move(Move::kRight, col < kSide - 1, blank + 1);
    out.resize(base + k);
  }

  [[nodiscard]] bool is_goal(const Node& n) const { return n.h == 0; }
  [[nodiscard]] search::Bound f_value(const Node& n) const {
    return static_cast<search::Bound>(n.g) + n.h;
  }

  [[nodiscard]] const Board& start() const { return start_; }
  [[nodiscard]] Heuristic heuristic() const { return heuristic_; }

  /// Reconstructs a Board from a node (for printing and verification).
  [[nodiscard]] static Board board_of(const Node& n) {
    return Board(n.board);
  }

 private:
  Board start_;
  Heuristic heuristic_;
};

static_assert(sizeof(FifteenPuzzle::Node) == 16,
              "puzzle nodes should stay two words");
static_assert(search::TreeProblem<FifteenPuzzle>);

}  // namespace simdts::puzzle
