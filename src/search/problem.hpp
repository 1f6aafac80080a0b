// The tree-search problem interface.
//
// A problem supplies a root node and a successor-generator (Section 2 of the
// paper).  Search is depth-first with an optional cost bound: expand() must
// append only children whose f-value is within `bound`, and report the
// minimum f-value among the children it pruned (the standard IDA* next-
// threshold computation; domains without costs ignore the bound).
//
// Node types must be cheap to copy — they are moved between PE stacks during
// load balancing, and a stack entry *is* a node (each node on a stack stands
// for the entire unexplored subtree below it).
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
#include <vector>

namespace simdts::search {

/// Cost bound for one iterative-deepening iteration.
using Bound = std::int32_t;
inline constexpr Bound kUnbounded = std::numeric_limits<Bound>::max();

/// Tracks the smallest f-value that exceeded the current bound; it becomes
/// the next iteration's threshold.
class NextBound {
 public:
  void observe(Bound f) noexcept {
    if (f < min_) min_ = f;
  }
  void merge(const NextBound& o) noexcept { observe(o.min_); }
  [[nodiscard]] bool has_value() const noexcept { return min_ != kUnbounded; }
  [[nodiscard]] Bound value() const noexcept { return min_; }

 private:
  Bound min_ = kUnbounded;
};

template <typename P>
concept TreeProblem = requires(const P& p, const typename P::Node& n,
                               std::vector<typename P::Node>& out,
                               Bound bound, NextBound& next) {
  typename P::Node;
  { p.root() } -> std::same_as<typename P::Node>;
  { p.expand(n, bound, out, next) } -> std::same_as<void>;
  { p.is_goal(n) } -> std::convertible_to<bool>;
  { p.f_value(n) } -> std::convertible_to<Bound>;
};

}  // namespace simdts::search
