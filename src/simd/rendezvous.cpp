#include "simd/rendezvous.hpp"

#include <bit>
#include <span>

namespace simdts::simd {

namespace {

/// Cursor over the set lanes of a packed plane in rotated enumeration order:
/// lanes [first, P) then [0, first).  next() returns P when exhausted.  Set
/// lanes are extracted with std::countr_zero, and the hunt for the next
/// nonzero word hops via SummaryPlane::next_occupied — one summary-word load
/// covers 64 plane words (4096 lanes), so a sparse plane is walked in time
/// proportional to its occupied words.  A clear summary bit guarantees a
/// zero plane word, so no skipped word could have produced a lane.
class SummaryRotatedSetCursor {
 public:
  SummaryRotatedSetCursor(const BitPlane& plane, const SummaryPlane& summary,
                          std::size_t first)
      : ws_(plane.words()), sum_(summary), p_(plane.size()), first_(first) {
    w_ = first_ / BitPlane::kWordBits;
    if (w_ < ws_.size()) {
      cur_ = ws_[w_] & (~std::uint64_t{0} << (first_ % BitPlane::kWordBits));
    }
  }

  std::size_t next() {
    for (;;) {
      if (cur_ != 0) {
        const auto b = static_cast<std::size_t>(std::countr_zero(cur_));
        cur_ &= cur_ - 1;
        return w_ * BitPlane::kWordBits + b;
      }
      if (in_wrap_) {
        const std::size_t nw = sum_.next_occupied(w_ + 1);
        if (nw * BitPlane::kWordBits >= first_) return p_;
        w_ = nw;
        cur_ = wrap_word(w_);
        continue;
      }
      const std::size_t nw = sum_.next_occupied(w_ + 1);
      if (nw < ws_.size()) {
        w_ = nw;
        cur_ = ws_[w_];
        continue;
      }
      // Switch to the wrapped segment: lanes [0, first).
      in_wrap_ = true;
      if (first_ == 0) return p_;
      const std::size_t w0 = sum_.next_occupied(0);
      if (w0 * BitPlane::kWordBits >= first_) return p_;
      w_ = w0;
      cur_ = wrap_word(w_);
    }
  }

 private:
  /// Word `w` restricted to lanes strictly below the rotation start.
  [[nodiscard]] std::uint64_t wrap_word(std::size_t w) const {
    std::uint64_t m = ws_[w];
    const std::size_t base = w * BitPlane::kWordBits;
    if (base + BitPlane::kWordBits > first_) {
      m &= (std::uint64_t{1} << (first_ - base)) - 1;
    }
    return m;
  }

  std::span<const std::uint64_t> ws_;
  const SummaryPlane& sum_;
  std::size_t p_ = 0;
  std::size_t first_ = 0;
  std::size_t w_ = 0;
  std::uint64_t cur_ = 0;
  bool in_wrap_ = false;
};

}  // namespace

void rendezvous_into(const BitPlane& donor_flags,
                     const SummaryPlane& donor_summary,
                     const BitPlane& receiver_flags,
                     const SummaryPlane& receiver_summary, PeIndex start_after,
                     std::size_t limit, std::vector<Pair>& out) {
  out.clear();
  const std::size_t pd = donor_flags.size();
  const std::size_t pr = receiver_flags.size();
  if (pd == 0 || pr == 0 || limit == 0) return;
  const std::size_t first =
      (start_after == kNoPe) ? 0
                             : (static_cast<std::size_t>(start_after) + 1) % pd;
  SummaryRotatedSetCursor donors(donor_flags, donor_summary, first);
  SummaryRotatedSetCursor receivers(receiver_flags, receiver_summary, 0);
  while (out.size() < limit) {
    const std::size_t d = donors.next();
    if (d == pd) return;
    const std::size_t r = receivers.next();
    if (r == pr) return;
    // SIMDLINT-EFFECT-OK(allocates) `out` is the caller's persistent-capacity
    out.push_back(Pair{static_cast<PeIndex>(d), static_cast<PeIndex>(r)});
    // pairing buffer: at most P/2 pairs per cycle; growth amortizes away.
  }
}

void ranked_into(const BitPlane& flags, const SummaryPlane& summary,
                 PeIndex start_after, std::vector<PeIndex>& out) {
  out.clear();
  const std::size_t p = flags.size();
  if (p == 0) return;
  const std::size_t first =
      (start_after == kNoPe) ? 0
                             : (static_cast<std::size_t>(start_after) + 1) % p;
  SummaryRotatedSetCursor cursor(flags, summary, first);
  for (std::size_t i = cursor.next(); i != p; i = cursor.next()) {
    // SIMDLINT-EFFECT-OK(allocates) `out` is the caller's persistent-capacity
    out.push_back(static_cast<PeIndex>(i));  // rank buffer, bounded by P;
    // growth amortizes away after the first full cycle.
  }
}

}  // namespace simdts::simd
