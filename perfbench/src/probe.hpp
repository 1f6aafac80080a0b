// Host-time probes the benchmark wraps around the library's public calls.
//
// Nothing here reaches into src/: wall and CPU clocks are read around calls
// the benchmark makes, and the expand layer is timed by TimedProblem, a
// forwarding TreeProblem handed to lb::Engine as its template parameter.
// The wrapper is results-inert — it forwards every call unchanged and only
// counts — so every traced run still passes the output check.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "search/problem.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process user + system CPU time, all threads.
inline double process_cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

/// Peak resident set of the process so far, in MB (Linux reports KiB).
inline double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

/// Wall and CPU time of one call.
struct Timed {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

template <typename F>
Timed time_call(F&& f) {
  const double c0 = process_cpu_s();
  const auto t0 = Clock::now();
  f();
  Timed t;
  t.wall_s = seconds_since(t0);
  t.cpu_s = process_cpu_s() - c0;
  return t;
}

/// The problem domains whose expand() the traced runs time.
enum class Domain : std::uint8_t { kSynthetic = 0, kPuzzle = 1 };
inline constexpr std::size_t kDomains = 2;

/// Per-host-thread expand counters.  One clock pair per call tripled a run
/// when sizing this probe, so only every kSampleEvery-th call is timed and
/// the thread's busy time is extrapolated from the sampled calls.
class ExpandProbe {
 public:
  static constexpr std::uint64_t kSampleEvery = 16;

  struct Counters {
    std::uint64_t calls = 0;
    std::uint64_t sampled = 0;
    std::uint64_t sampled_ns = 0;
  };

  struct Lane {
    std::array<Counters, kDomains> domain{};
  };

  ExpandProbe()
      : id_(next_id_.fetch_add(1) + 1), clock_overhead_ns_(clock_pair_ns()) {}
  ExpandProbe(const ExpandProbe&) = delete;
  ExpandProbe& operator=(const ExpandProbe&) = delete;

  /// The calling thread's counters for `d` (registered on first use).
  Counters& local(Domain d) {
    thread_local std::uint64_t owner = 0;
    thread_local Lane* lane = nullptr;
    if (owner != id_) {
      const std::lock_guard<std::mutex> lock(mu_);
      lanes_.push_back(std::make_unique<Lane>());
      lane = lanes_.back().get();
      owner = id_;
    }
    return lane->domain[static_cast<std::size_t>(d)];
  }

  /// Expand calls in `d` over every thread.
  [[nodiscard]] std::uint64_t calls(Domain d) const {
    std::uint64_t n = 0;
    for (const auto& l : lanes_) n += l->domain[static_cast<std::size_t>(d)].calls;
    return n;
  }

  /// Estimated expand busy seconds of each host thread that expanded, over
  /// the given domains.
  [[nodiscard]] std::vector<double> lane_busy_s() const {
    std::vector<double> out;
    for (const auto& l : lanes_) {
      double s = 0.0;
      for (const Counters& c : l->domain) s += estimate_s(c);
      out.push_back(s);
    }
    return out;
  }

  /// Estimated expand busy seconds in `d`, summed over threads.
  [[nodiscard]] double busy_s(Domain d) const {
    double s = 0.0;
    for (const auto& l : lanes_) {
      s += estimate_s(l->domain[static_cast<std::size_t>(d)]);
    }
    return s;
  }

 private:
  /// What a back-to-back clock pair reads with nothing between the reads
  /// (the median of many): the probe's own share of every sampled call.
  static double clock_pair_ns() {
    std::vector<double> v;
    for (int i = 0; i < 1001; ++i) {
      const auto t0 = Clock::now();
      const auto t1 = Clock::now();
      v.push_back(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
    }
    std::nth_element(v.begin(), v.begin() + 500, v.end());
    return v[500];
  }

  double estimate_s(const Counters& c) const {
    if (c.sampled == 0) return 0.0;
    const double per_call_ns =
        std::max(0.0, static_cast<double>(c.sampled_ns) /
                              static_cast<double>(c.sampled) -
                          clock_overhead_ns_);
    return per_call_ns * 1e-9 * static_cast<double>(c.calls);
  }

  // Distinguishes probes whose storage reuses an earlier probe's address,
  // so a thread never writes through a stale cached lane.
  inline static std::atomic<std::uint64_t> next_id_{0};
  const std::uint64_t id_;
  const double clock_overhead_ns_;
  std::mutex mu_;
  std::vector<std::unique_ptr<Lane>> lanes_;  // guarded by mu_ while running
};

/// Forwarding TreeProblem that counts expand() calls and times a sample of
/// them.  Every result-bearing call goes straight to the wrapped problem.
template <simdts::search::TreeProblem P>
class TimedProblem {
 public:
  using Node = typename P::Node;

  TimedProblem(const P& inner, ExpandProbe& probe, Domain domain)
      : inner_(&inner), probe_(&probe), domain_(domain) {}

  [[nodiscard]] Node root() const { return inner_->root(); }
  [[nodiscard]] bool is_goal(const Node& n) const { return inner_->is_goal(n); }
  [[nodiscard]] simdts::search::Bound f_value(const Node& n) const {
    return inner_->f_value(n);
  }

  void expand(const Node& n, simdts::search::Bound bound,
              std::vector<Node>& out, simdts::search::NextBound& next) const {
    ExpandProbe::Counters& c = probe_->local(domain_);
    if (++c.calls % ExpandProbe::kSampleEvery != 0) {
      inner_->expand(n, bound, out, next);
      return;
    }
    const auto t0 = Clock::now();
    inner_->expand(n, bound, out, next);
    const auto t1 = Clock::now();
    c.sampled_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    ++c.sampled;
  }

 private:
  const P* inner_;
  ExpandProbe* probe_;
  Domain domain_;
};

}  // namespace perfbench
