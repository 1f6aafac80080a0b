// Small, pure helpers for the benchmark's arithmetic: medians, the tail
// percentile rule, the sweep makespan bound, and the output-check digest.
// Header-only so the benchmark's unit tests pin them directly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty vector.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2.0;
}

/// Nearest-rank quantile of `sorted` (ascending) at level q in (0, 1]: the
/// value at rank ceil(q * n).  0 for an empty vector.
template <typename T>
T nearest_rank(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) return T{};
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples strictly beyond the nearest-rank q-quantile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  // The epsilon keeps 0.999 * 1000 (which is 999.0000000000001 in binary)
  // at rank 999.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return rank >= n ? 0 : n - rank;
}

/// A timing is reported at the highest percentile that still has at least
/// this many samples beyond it (below that, the "percentile" is one sample).
inline constexpr std::size_t kMinTailSamples = 10;

/// The highest level of the ladder 0.5, 0.9, 0.99, 0.999, ... that keeps
/// kMinTailSamples samples beyond it at sample count n; 0 when not even the
/// median qualifies.
inline double highest_supported_quantile(std::size_t n) {
  if (samples_beyond(n, 0.5) < kMinTailSamples) return 0.0;
  double best = 0.5;
  for (double tail = 0.1; tail > 1e-12; tail /= 10.0) {
    if (samples_beyond(n, 1.0 - tail) < kMinTailSamples) break;
    best = 1.0 - tail;
  }
  return best;
}

/// Lower bound on a sweep's wall time when `threads` workers share cells
/// whose single-threaded times sum to `busy_s` and whose longest is
/// `longest_s`: no schedule beats the average load or the longest cell.
inline double makespan_bound(double busy_s, double longest_s,
                             unsigned threads) {
  if (threads == 0) return longest_s;
  return std::max(busy_s / static_cast<double>(threads), longest_s);
}

/// Share of the workers' capacity the cells kept busy over `wall_s`.
inline double utilization(double busy_s, unsigned threads, double wall_s) {
  if (threads == 0 || wall_s <= 0.0) return 0.0;
  return busy_s / (static_cast<double>(threads) * wall_s);
}

/// FNV-1a, 64-bit: the digest of a canonical output text.
inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace perfbench
