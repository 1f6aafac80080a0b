#include "analysis/isoefficiency.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <sstream>

#include "common/error.hpp"
#include "lb/engine.hpp"
#include "runtime/journal.hpp"
#include "runtime/sweep.hpp"
#include "simd/machine.hpp"
#include "synthetic/tree.hpp"

namespace simdts::analysis {

std::string encode_grid_point(const GridPoint& pt) {
  std::ostringstream os;
  os << "v1 " << pt.p << ' ' << pt.w << ' '
     << std::bit_cast<std::uint64_t>(pt.efficiency) << ' ' << pt.expand_cycles
     << ' ' << pt.lb_phases << ' ' << pt.lb_rounds << ' '
     << (pt.timed_out ? 1 : 0) << ' '
     << std::bit_cast<std::uint64_t>(pt.clock.elapsed) << ' '
     << std::bit_cast<std::uint64_t>(pt.clock.calc_time) << ' '
     << std::bit_cast<std::uint64_t>(pt.clock.idle_time) << ' '
     << std::bit_cast<std::uint64_t>(pt.clock.lb_time) << ' '
     << std::bit_cast<std::uint64_t>(pt.clock.recovery_time) << ' '
     << pt.clock.expand_cycles << ' ' << pt.clock.lb_rounds << ' '
     << pt.clock.recovery_rounds << ' ' << pt.clock.nodes_expanded;
  return os.str();
}

bool decode_grid_point(const std::string& payload, GridPoint& out) {
  std::istringstream is(payload);
  std::string version;
  if (!(is >> version) || version != "v1") return false;
  GridPoint pt;
  std::uint64_t eff = 0, timed = 0, el = 0, calc = 0, idle = 0, lb = 0,
                rec = 0;
  if (!(is >> pt.p >> pt.w >> eff >> pt.expand_cycles >> pt.lb_phases >>
        pt.lb_rounds >> timed >> el >> calc >> idle >> lb >> rec >>
        pt.clock.expand_cycles >> pt.clock.lb_rounds >>
        pt.clock.recovery_rounds >> pt.clock.nodes_expanded)) {
    return false;
  }
  std::string extra;
  if (is >> extra) return false;  // trailing garbage: treat as torn
  if (timed > 1) return false;
  pt.efficiency = std::bit_cast<double>(eff);
  pt.timed_out = timed == 1;
  pt.clock.elapsed = std::bit_cast<double>(el);
  pt.clock.calc_time = std::bit_cast<double>(calc);
  pt.clock.idle_time = std::bit_cast<double>(idle);
  pt.clock.lb_time = std::bit_cast<double>(lb);
  pt.clock.recovery_time = std::bit_cast<double>(rec);
  out = pt;
  return true;
}

std::uint64_t run_seed(const lb::SchemeConfig& config, std::uint32_t p,
                       const simd::CostModel& cost,
                       std::string_view workload) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  std::ostringstream os;
  os << "v1 " << static_cast<int>(config.match) << ' '
     << static_cast<int>(config.trigger) << ' ' << bits(config.static_x) << ' '
     << config.multiple_transfers << ' ' << config.max_pairs_per_round << ' '
     << static_cast<int>(config.transfer) << ' '
     << static_cast<int>(config.split) << ' ' << static_cast<int>(config.busy)
     << ' ' << bits(config.init_threshold) << ' ' << config.record_trace << ' '
     << config.track_stack_memory << ' ' << p << ' ' << bits(cost.t_expand)
     << ' ' << bits(cost.t_lb) << ' ' << bits(cost.lb_cost_multiplier) << ' '
     << static_cast<int>(cost.topology) << ' ' << bits(cost.t_neighbor) << ' '
     << workload;
  return runtime::Journal::checksum(0, os.str());
}

std::uint64_t grid_point_seed(const lb::SchemeConfig& config, std::uint32_t p,
                              const synthetic::Params& shape,
                              const simd::CostModel& cost,
                              std::uint64_t cycle_budget) {
  std::ostringstream os;
  os << shape.seed << ' ' << shape.max_children << ' '
     << std::bit_cast<std::uint64_t>(shape.fertility) << ' ' << shape.max_depth
     << ' ' << cycle_budget;
  return run_seed(config, p, cost, os.str());
}

GridResult run_grid(const lb::SchemeConfig& config,
                    std::span<const synthetic::SyntheticWorkload> workloads,
                    std::span<const std::uint32_t> machine_sizes,
                    const simd::CostModel& cost, unsigned threads) {
  GridOptions options;
  options.threads = threads;
  return run_grid(config, workloads, machine_sizes, cost, options);
}

GridResult run_grid(const lb::SchemeConfig& config,
                    std::span<const synthetic::SyntheticWorkload> workloads,
                    std::span<const std::uint32_t> machine_sizes,
                    const simd::CostModel& cost, const GridOptions& options) {
  GridResult result;
  result.config = config;
  const std::size_t per_size = workloads.size();
  result.points.resize(machine_sizes.size() * per_size);

  std::optional<runtime::Journal> journal;
  if (!options.journal_path.empty()) journal.emplace(options.journal_path);
  runtime::run_journaled(
      options.threads, result.points.size(), journal ? &*journal : nullptr,
      options.resume,
      [&](std::size_t k) {
        return grid_point_seed(config, machine_sizes[k / per_size],
                               workloads[k % per_size].params, cost,
                               options.cycle_budget);
      },
      [&](std::size_t k, const std::string& payload) {
        return decode_grid_point(payload, result.points[k]);
      },
      [&](std::size_t k) {
        const std::uint32_t p = machine_sizes[k / per_size];
        const auto& wl = workloads[k % per_size];
        const synthetic::Tree tree(wl.params);
        simd::Machine machine(p, cost);
        lb::Engine<synthetic::Tree> engine(tree, machine, config);
        GridPoint& pt = result.points[k];
        if (options.cycle_budget != 0) {
          engine.set_cycle_budget(options.cycle_budget);
        }
        try {
          const lb::IterationStats stats =
              engine.run_iteration(search::kUnbounded);
          pt.p = p;
          pt.w = stats.nodes_expanded;
          pt.efficiency = stats.efficiency();
          pt.expand_cycles = stats.expand_cycles;
          pt.lb_phases = stats.lb_phases;
          pt.lb_rounds = stats.lb_rounds;
          pt.clock = stats.clock;
        } catch (const TimeoutError&) {
          pt = GridPoint{};
          pt.p = p;
          pt.timed_out = true;
        }
        return encode_grid_point(pt);
      });
  return result;
}

std::vector<IsoCurve> extract_curves(const GridResult& grid,
                                     std::span<const double> targets) {
  // Group by machine size, keeping workload order (ascending W).
  std::vector<std::uint32_t> sizes;
  for (const auto& pt : grid.points) {
    if (sizes.empty() || sizes.back() != pt.p) sizes.push_back(pt.p);
  }

  std::vector<IsoCurve> curves;
  for (const double target : targets) {
    IsoCurve curve;
    curve.efficiency = target;
    for (const std::uint32_t p : sizes) {
      std::vector<const GridPoint*> pts;
      for (const auto& pt : grid.points) {
        if (pt.p == p) pts.push_back(&pt);
      }
      std::sort(pts.begin(), pts.end(),
                [](const GridPoint* a, const GridPoint* b) {
                  return a->w < b->w;
                });
      if (pts.size() < 2) continue;

      IsoCurvePoint cp;
      cp.p = p;
      cp.p_log_p = static_cast<double>(p) * std::log2(static_cast<double>(p));

      // Find the first bracketing segment; efficiency is noisy, so scan for
      // a crossing rather than assuming strict monotonicity.
      bool found = false;
      for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
        const double e0 = pts[i]->efficiency;
        const double e1 = pts[i + 1]->efficiency;
        if ((e0 <= target && target <= e1) ||
            (e1 <= target && target <= e0)) {
          const double lw0 = std::log(static_cast<double>(pts[i]->w));
          const double lw1 = std::log(static_cast<double>(pts[i + 1]->w));
          const double frac = e1 == e0 ? 0.0 : (target - e0) / (e1 - e0);
          cp.w_needed = std::exp(lw0 + frac * (lw1 - lw0));
          found = true;
          break;
        }
      }
      if (!found) {
        // Extrapolate from the last segment (the paper does the same for
        // its "estimated W" annotations on out-of-range points).
        const auto* a = pts[pts.size() - 2];
        const auto* b = pts[pts.size() - 1];
        const double e0 = a->efficiency;
        const double e1 = b->efficiency;
        if (e1 == e0) continue;
        const double lw0 = std::log(static_cast<double>(a->w));
        const double lw1 = std::log(static_cast<double>(b->w));
        const double frac = (target - e0) / (e1 - e0);
        cp.w_needed = std::exp(lw0 + frac * (lw1 - lw0));
        cp.extrapolated = true;
      }
      curve.points.push_back(cp);
    }
    curves.push_back(std::move(curve));
  }
  return curves;
}

LineFit fit_p_log_p(const IsoCurve& curve) {
  LineFit fit;
  double num = 0.0;
  double den = 0.0;
  for (const auto& pt : curve.points) {
    num += pt.w_needed * pt.p_log_p;
    den += pt.p_log_p * pt.p_log_p;
  }
  if (den == 0.0) return fit;
  fit.slope = num / den;
  for (const auto& pt : curve.points) {
    const double predicted = fit.slope * pt.p_log_p;
    if (predicted > 0.0) {
      fit.max_rel_deviation =
          std::max(fit.max_rel_deviation,
                   std::abs(pt.w_needed - predicted) / predicted);
    }
  }
  return fit;
}

}  // namespace simdts::analysis
