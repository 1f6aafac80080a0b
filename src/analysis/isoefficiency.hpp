// Experimental isoefficiency harness (Figures 4 and 7).
//
// An isoefficiency curve for efficiency E plots, against P log P, the
// problem size W needed to sustain E on P processors.  Following the paper,
// the harness runs a scheme over a (P, W) grid, then for each machine size
// interpolates (in log W) the problem size that reaches each target
// efficiency.  A scheme is O(P log P)-scalable exactly when its curves are
// straight lines in these coordinates — which is what the benches assert
// qualitatively for GP and refute for nGP at high thresholds.
// Robustness (docs/robustness.md): run_grid takes GridOptions with a
// watchdog cycle budget (a point that blows it is marked timed_out instead
// of hanging the sweep) and an optional on-disk journal of completed slots,
// so an interrupted grid resumes — skipping finished points and emitting a
// byte-identical CSV (GridPoint codecs keep doubles as bit patterns).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "lb/config.hpp"
#include "simd/cost_model.hpp"
#include "simd/machine.hpp"
#include "synthetic/workloads.hpp"

namespace simdts::analysis {

struct GridPoint {
  std::uint32_t p = 0;
  std::uint64_t w = 0;       ///< measured tree size (== serial W)
  double efficiency = 0.0;
  std::uint64_t expand_cycles = 0;
  std::uint64_t lb_phases = 0;
  std::uint64_t lb_rounds = 0;
  bool timed_out = false;    ///< run hit the watchdog cycle budget
  simd::MachineClock clock;  ///< simulated-time accounting of the run

  friend bool operator==(const GridPoint&, const GridPoint&) = default;
};

/// Exact single-line serialization of a GridPoint for sweep journals
/// (doubles as IEEE-754 bit patterns; see lb::encode_journal for the
/// convention).  decode returns false on torn/malformed payloads.
[[nodiscard]] std::string encode_grid_point(const GridPoint& pt);
[[nodiscard]] bool decode_grid_point(const std::string& payload,
                                     GridPoint& out);

/// Checksum seed for a journaled run (runtime::run_journaled): a fingerprint
/// of every input the run's result depends on — each field of `config` and
/// `cost`, the machine size `p`, and `workload`, the caller's canonical text
/// for the problem instance and anything else that shapes the run.  An entry
/// journaled under other inputs is then not intact, and its slot re-runs.
[[nodiscard]] std::uint64_t run_seed(const lb::SchemeConfig& config,
                                     std::uint32_t p,
                                     const simd::CostModel& cost,
                                     std::string_view workload);

/// run_seed of run_grid's slot for machine size `p` and tree `shape`.
[[nodiscard]] std::uint64_t grid_point_seed(const lb::SchemeConfig& config,
                                            std::uint32_t p,
                                            const synthetic::Params& shape,
                                            const simd::CostModel& cost,
                                            std::uint64_t cycle_budget);

struct GridResult {
  lb::SchemeConfig config;
  std::vector<GridPoint> points;  ///< grouped by p, ascending w within
};

/// Host-side robustness knobs for run_grid.
struct GridOptions {
  unsigned threads = 0;  ///< 0 = runtime::sweep_threads()
  /// Watchdog: nonzero bounds each run's expand cycles; a point that blows
  /// the budget is returned with timed_out = true (zero metrics) instead of
  /// stalling the sweep.
  std::uint64_t cycle_budget = 0;
  /// Path of the completed-slot journal; empty disables checkpointing.
  std::string journal_path;
  /// With a journal: load it first and skip every slot it already covers.
  bool resume = false;
};

/// Runs the scheme over every (machine size, workload) pair.  The grid's
/// runs are independent simulations, so they are swept concurrently across
/// `threads` host threads (0 = runtime::sweep_threads()); each task owns a
/// private simd::Machine and writes its pre-assigned slot, so the returned
/// points — simulated counts and clocks included — are bit-identical to the
/// serial run for any thread count.
[[nodiscard]] GridResult run_grid(
    const lb::SchemeConfig& config,
    std::span<const synthetic::SyntheticWorkload> workloads,
    std::span<const std::uint32_t> machine_sizes,
    const simd::CostModel& cost, unsigned threads = 0);

/// As above with robustness options: watchdog budget and checkpoint/resume
/// journaling.  A resumed grid reproduces the uninterrupted result
/// bit-identically — completed slots whose inputs match (grid_point_seed)
/// are replayed from the journal, the rest are re-run (determinism makes
/// the merge exact).
/// The journal file is left in place; callers delete it (via
/// runtime::Journal::remove) once derived outputs are safely written.
[[nodiscard]] GridResult run_grid(
    const lb::SchemeConfig& config,
    std::span<const synthetic::SyntheticWorkload> workloads,
    std::span<const std::uint32_t> machine_sizes,
    const simd::CostModel& cost, const GridOptions& options);

struct IsoCurvePoint {
  std::uint32_t p = 0;
  double w_needed = 0.0;    ///< interpolated W reaching the target efficiency
  double p_log_p = 0.0;     ///< the x coordinate of the paper's figures
  bool extrapolated = false;  ///< target outside the measured W range
};

struct IsoCurve {
  double efficiency = 0.0;
  std::vector<IsoCurvePoint> points;
};

/// Extracts curves for each target efficiency from a grid.  Efficiency is
/// monotone (noisily) increasing in W for fixed P; interpolation is linear
/// in (log W, E).
[[nodiscard]] std::vector<IsoCurve> extract_curves(
    const GridResult& grid, std::span<const double> targets);

/// Least-squares slope of w_needed against p_log_p through the origin, and
/// the maximum relative deviation of the curve from that line.  A small
/// deviation means the isoefficiency is (experimentally) O(P log P).
struct LineFit {
  double slope = 0.0;
  double max_rel_deviation = 0.0;
};
[[nodiscard]] LineFit fit_p_log_p(const IsoCurve& curve);

}  // namespace simdts::analysis
