// The four workloads and the timed-repetition harness they share.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/isoefficiency.hpp"
#include "probe.hpp"
#include "lb/metrics.hpp"
#include "report.hpp"
#include "service/request.hpp"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< timed wall time to accumulate
  bool trace = false;
  /// Scratch directory for journals and caches (inside the checkout).
  std::filesystem::path work_dir;
};

/// One timed repetition: set-up, then the timed call into the library.
struct Rep {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double nodes = 0.0;     ///< nodes expanded by the timed call
  double requests = 0.0;  ///< solves answered: engine runs, cells, requests
};

/// Host threads of every multi-threaded layer (pool lanes, sweep threads,
/// service execution threads): the sizing host's core count, fixed so that
/// runs on wider hosts measure the same configuration.
inline constexpr unsigned kThreads = 4;

/// Timed repetitions per run: at least this many, and more until their
/// wall time reaches Options::seconds.  One untimed warm-up comes first —
/// the first run in a fresh process was often an outlier when sizing.
inline constexpr int kMinReps = 3;

/// Runs `rep` once untimed, then repeatedly; each call does its own set-up
/// and output check and returns its timings.
template <typename F>
std::vector<Rep> run_reps(const Options& opt, F&& rep) {
  (void)rep();
  std::vector<Rep> reps;
  double total = 0.0;
  while (static_cast<int>(reps.size()) < kMinReps || total < opt.seconds) {
    reps.push_back(rep());
    total += reps.back().wall_s;
  }
  return reps;
}

/// The end-to-end metrics from a run's repetitions: medians of the
/// per-repetition rates and times, plus the process's peak RSS.
void summarize_reps(const std::vector<Rep>& reps, Result& r);

/// Standalone pool dispatch cost: ns per parallel_for_lanes_aligned call
/// with an empty body over `words` plane words on `lanes` lanes.
[[nodiscard]] double pool_dispatch_ns(unsigned lanes, std::size_t words);

/// The expand-layer metrics of both domains and the per-lane busy metrics
/// from a traced run's probe, over at least `lanes` host lanes.  Returns the
/// mean lane busy time.
double set_probe_metrics(const ExpandProbe& probe, unsigned lanes, Result& r);

/// trace_overhead_pct: how much slower the traced repetitions' median rate
/// is than the untraced ones', in percent.
[[nodiscard]] double overhead_pct(const std::vector<double>& plain_rates,
                                  const std::vector<double>& traced_rates);

/// Per-repetition nodes/s.
[[nodiscard]] std::vector<double> nodes_rates(const std::vector<Rep>& reps);

/// Sets every per-layer metric to zero, so a traced run of a workload that
/// bypasses a layer still reports the full set.
void zero_layer_metrics(Result& r);

// --- workloads ---------------------------------------------------------------

void run_engine_megap(const Options& opt, Result& r);
void run_engine_paper(const Options& opt, Result& r);
void run_sweep_fig4(const Options& opt, Result& r);
void run_service_replay(const Options& opt, Result& r);

// --- pieces exposed for the benchmark's unit tests ---------------------------

/// service-replay's trace: service::random_trace(seed, n), after which half
/// of the requests past the first kHotSet reuse the content of one of those
/// kHotSet (seeded by `seed` alone).
inline constexpr std::size_t kHotSet = 2000;
[[nodiscard]] std::vector<simdts::service::Request> make_trace(
    std::uint64_t seed, std::size_t n);

/// The seed service-replay builds its trace from: the seed argument modulo
/// the number of pinned digest pairs, so that every run is checked
/// bit-exactly against a pinned response log.
[[nodiscard]] std::uint64_t trace_seed(std::uint64_t seed);

/// Output check of a full IDA* run against its pinned per-iteration
/// journal lines (lb::encode_journal), solution bound and goal count.
bool check_run_stats(const simdts::lb::RunStats& got,
                     const std::vector<std::string>& want_iterations,
                     simdts::search::Bound want_bound,
                     std::uint64_t want_goals, const std::string& what,
                     Result& r);

/// Output check of a grid against pinned analysis::encode_grid_point lines.
/// Returns the number of differing cells (each one failed operation).
std::uint64_t check_grid(
    const std::vector<simdts::analysis::GridPoint>& got,
    const std::vector<std::string>& want, const std::string& what, Result& r);

}  // namespace perfbench
