#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "probe.hpp"
#include "simd/thread_pool.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

std::vector<double> nodes_rates(const std::vector<Rep>& reps) {
  std::vector<double> v;
  for (const Rep& x : reps) v.push_back(x.nodes / x.wall_s);
  return v;
}

void summarize_reps(const std::vector<Rep>& reps, Result& r) {
  std::vector<double> req;
  std::vector<double> cpu;
  std::vector<double> setup;
  for (const Rep& x : reps) {
    req.push_back(x.requests / x.wall_s);
    cpu.push_back(x.cpu_s);
    setup.push_back(x.setup_s);
  }
  r.metrics["nodes_per_s"] = median(nodes_rates(reps));
  r.metrics["req_per_s"] = median(req);
  r.metrics["cpu_s"] = median(cpu);
  r.metrics["setup_s"] = median(setup);
  r.metrics["rss_peak_mb"] = peak_rss_mb();
  std::string per_rep;
  for (const Rep& x : reps) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " %.4g", x.nodes / x.wall_s);
    per_rep += buf;
  }
  r.info.push_back("timed repetitions: " + std::to_string(reps.size()) +
                   " after one untimed warm-up; rates and times are their "
                   "medians; nodes/s by repetition:" + per_rep);
}

double pool_dispatch_ns(unsigned lanes, std::size_t words) {
  simdts::simd::ThreadPool pool(lanes);
  const auto empty = [](unsigned, std::size_t, std::size_t) {};
  constexpr int kBatch = 200;
  constexpr int kBatches = 15;
  for (int i = 0; i < kBatch; ++i) {
    pool.parallel_for_lanes_aligned(words, 64, empty);
  }
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kBatch; ++i) {
      pool.parallel_for_lanes_aligned(words, 64, empty);
    }
    per_call.push_back(seconds_since(t0) * 1e9 / kBatch);
  }
  return median(per_call);
}

double set_probe_metrics(const ExpandProbe& probe, unsigned lanes,
                         Result& r) {
  const struct {
    Domain d;
    const char* prefix;
  } domains[] = {{Domain::kSynthetic, "synthetic"}, {Domain::kPuzzle, "puzzle"}};
  for (const auto& [d, prefix] : domains) {
    const double calls = static_cast<double>(probe.calls(d));
    const double busy = probe.busy_s(d);
    const std::string p = prefix;
    r.metrics[p + ".expand_calls"] = calls;
    r.metrics[p + ".expand_busy_s"] = busy;
    r.metrics[p + ".expand_ns_per_call"] = calls > 0 ? busy * 1e9 / calls : 0.0;
  }
  std::vector<double> lane = probe.lane_busy_s();
  lane.resize(std::max<std::size_t>(lane.size(), lanes), 0.0);
  double sum = 0.0;
  for (const double x : lane) sum += x;
  const double max = *std::max_element(lane.begin(), lane.end());
  const double mean = sum / static_cast<double>(lane.size());
  r.metrics["simd.pool.lane_busy_max_s"] = max;
  r.metrics["simd.pool.lane_imbalance"] = mean > 0 ? max / mean : 0.0;
  return mean;
}

double overhead_pct(const std::vector<double>& plain_rates,
                    const std::vector<double>& traced_rates) {
  const double plain = median(plain_rates);
  return 100.0 * (plain - median(traced_rates)) / plain;
}

void zero_layer_metrics(Result& r) {
  for (const MetricSpec& m : metric_specs()) {
    if (m.kind == MetricKind::kPerLayer) r.metrics[m.name] = 0.0;
  }
}

}  // namespace perfbench
