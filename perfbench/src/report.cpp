#include "report.hpp"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

namespace perfbench {

namespace {

constexpr MetricKind E = MetricKind::kEndToEnd;
constexpr MetricKind L = MetricKind::kPerLayer;

// The layer -> end-to-end map: what each layer metric should move, on which
// workload, and where it predicts no change.
constexpr const char* kSyntheticMoves =
    "nodes_per_s on engine-megap and sweep-fig4; none on engine-paper";
constexpr const char* kPuzzleMoves =
    "nodes_per_s on engine-paper, req_per_s on service-replay; none on "
    "engine-megap, sweep-fig4";
constexpr const char* kSearchMoves = "rss_peak_mb and setup_s on engine-megap";
constexpr const char* kLbMoves =
    "nodes_per_s on engine-megap (most) and engine-paper";
constexpr const char* kPoolMoves =
    "nodes_per_s, cpu_s on engine-megap; none on the other three (no pool)";
constexpr const char* kSweepMoves =
    "nodes_per_s on sweep-fig4; none on the engine workloads";
constexpr const char* kServiceMoves =
    "req_per_s on service-replay; no host-speed change may move the "
    "simulated latency, the counts or fail_share";

constexpr MetricSpec kMetrics[] = {
    {"nodes_per_s", "nodes/s", "higher", E, "end-to-end", ""},
    {"req_per_s", "requests/s", "higher", E, "end-to-end", ""},
    {"cpu_s", "s", "lower", E, "end-to-end", ""},
    {"setup_s", "s", "lower", E, "end-to-end", ""},
    {"rss_peak_mb", "MB", "lower", E, "end-to-end", ""},

    {"synthetic.expand_calls", "count", "lower", L, "synthetic", kSyntheticMoves},
    {"synthetic.expand_busy_s", "s", "lower", L, "synthetic", kSyntheticMoves},
    {"synthetic.expand_ns_per_call", "ns", "lower", L, "synthetic", kSyntheticMoves},
    {"puzzle.expand_calls", "count", "lower", L, "puzzle", kPuzzleMoves},
    {"puzzle.expand_busy_s", "s", "lower", L, "puzzle", kPuzzleMoves},
    {"puzzle.expand_ns_per_call", "ns", "lower", L, "puzzle", kPuzzleMoves},
    {"search.serial_s", "s", "lower", L, "search", kSearchMoves},
    {"search.stack_bytes_per_lane_avg", "B", "lower", L, "search", kSearchMoves},
    {"search.stack_bytes_peak", "B", "lower", L, "search", kSearchMoves},
    {"lb.engine.run_s", "s", "lower", L, "lb", kLbMoves},
    {"lb.engine.non_expand_s", "s", "lower", L, "lb", kLbMoves},
    {"lb.engine.overhead_vs_serial", "ratio", "lower", L, "lb", kLbMoves},
    {"lb.expand_cycles", "count", "lower", L, "lb", kLbMoves},
    {"lb.lb_phases", "count", "lower", L, "lb", kLbMoves},
    {"lb.lb_rounds", "count", "lower", L, "lb", kLbMoves},
    {"lb.transfers", "count", "lower", L, "lb", kLbMoves},
    {"lb.efficiency", "fraction", "higher", L, "lb", kLbMoves},
    {"simd.pool.lane_busy_max_s", "s", "lower", L, "simd", kPoolMoves},
    {"simd.pool.lane_imbalance", "ratio", "lower", L, "simd", kPoolMoves},
    {"simd.pool.dispatch_ns", "ns", "lower", L, "simd", kPoolMoves},
    {"simd.pool.dispatch_s_est", "s", "lower", L, "simd", kPoolMoves},
    {"runtime.sweep.cells", "count", "higher", L, "runtime", kSweepMoves},
    {"runtime.sweep.cell_s_max", "s", "lower", L, "runtime", kSweepMoves},
    {"runtime.sweep.cells_busy_s", "s", "lower", L, "runtime", kSweepMoves},
    {"runtime.sweep.wall_s", "s", "lower", L, "runtime", kSweepMoves},
    {"runtime.sweep.makespan_bound_s", "s", "lower", L, "runtime", kSweepMoves},
    {"runtime.sweep.utilization", "fraction", "higher", L, "runtime", kSweepMoves},
    {"service.admission.plan_s", "s", "lower", L, "service", kServiceMoves},
    {"service.cache.lookup_ns", "ns", "lower", L, "service", kServiceMoves},
    {"service.cache.insert_ns", "ns", "lower", L, "service", kServiceMoves},
    {"service.exec_s_est", "s", "lower", L, "service", kServiceMoves},
    {"service.cache_hit_ratio", "fraction", "higher", L, "service", kServiceMoves},
    {"service.executed", "count", "lower", L, "service", kServiceMoves},
    {"service.coalesced", "count", "higher", L, "service", kServiceMoves},
    {"service.degraded", "count", "lower", L, "service", kServiceMoves},
    {"service.shed", "count", "lower", L, "service", kServiceMoves},
    {"service.rejected", "count", "lower", L, "service", kServiceMoves},
    {"service.budget_exhausted", "count", "lower", L, "service", kServiceMoves},
    {"service.sim_latency_p50_cycles", "cycles", "lower", L, "service", kServiceMoves},
    {"service.sim_latency_p999_cycles", "cycles", "lower", L, "service", kServiceMoves},
    {"service.sim_latency_samples", "count", "higher", L, "service", kServiceMoves},
    {"fail_share", "fraction", "lower", L, "all",
     "shed, rejected, failed or budget-exhausted requests, or engine runs and "
     "cells that threw, over attempted; deterministic per seed"},
    {"trace_overhead_pct", "%", "lower", L, "tracing",
     "traced vs untraced nodes_per_s (req_per_s on service-replay)"},
};

constexpr WorkloadSpec kWorkloads[] = {
    {"engine-megap",
     "the only shipped configuration that threads a cycle: 2^18 lanes, a "
     "4-lane pool; walk locality, the serial lb phase and the pool barrier "
     "dominate"},
    {"engine-paper",
     "the paper's Table 4 configuration (15-puzzle, GP-D^K, P = 8192, no "
     "pool): expand kernel, IDA* restarts, many small lb phases"},
    {"sweep-fig4",
     "35 independent small-P engines on 4 sweep threads, largest cell last: "
     "the only workload where the runtime layer's scheduling tail shows"},
    {"service-replay",
     "the only workload for the service layer and for thousands of tiny, "
     "construction-dominated engines; the first half writes the cache, the "
     "second reads it"},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::span<const MetricSpec> metric_specs() { return kMetrics; }

std::span<const WorkloadSpec> workload_specs() { return kWorkloads; }

std::string fingerprint_json(const std::string& commit,
                             const std::string& source_digest) {
  std::ostringstream os;
  os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": \"" << json_escape(cpu_model()) << "\""
     << ", \"compiler\": \"" << json_escape(
#if defined(__clang__)
            "clang "
#elif defined(__GNUC__)
            "g++ "
#endif
            __VERSION__)
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\""
     << ", \"SIMDTS_SANITIZE\": "
#ifdef SIMDTS_SANITIZE
     << "true"
#else
     << "false"
#endif
     << ", \"SIMDTS_VECTOR_BACKEND\": "
#ifdef SIMDTS_VECTOR_BACKEND
     << "true"
#else
     << "false"
#endif
     << ", \"commit\": \"" << json_escape(commit) << "\""
     << ", \"source_sha256\": \"" << json_escape(source_digest) << "\"}";
  return os.str();
}

bool print_result(const Result& r, MetricKind kind,
                  const std::string& fingerprint) {
  std::cout << "fingerprint " << fingerprint << '\n';
  for (const std::string& line : r.info) std::cout << "note: " << line << '\n';
  for (const std::string& m : r.mismatches) {
    std::cout << "OUTPUT CHECK FAILED: " << m << '\n';
    std::cerr << "OUTPUT CHECK FAILED: " << m << '\n';
  }
  bool complete = true;
  std::ostringstream json;
  json << "{\"correct\": " << (r.correct() ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& m : kMetrics) {
    if (m.kind != kind) continue;
    const auto it = r.metrics.find(m.name);
    if (it == r.metrics.end() || !std::isfinite(it->second)) {
      std::cout << "MISSING METRIC: " << m.name << '\n';
      complete = false;
      continue;
    }
    std::cout << "metric " << m.name << " = " << format_value(it->second)
              << ' ' << m.unit << "  (" << m.better << " is better; "
              << m.layer << ")\n";
    json << (first ? "" : ", ") << '"' << m.name << "\": {\"value\": "
         << format_value(it->second) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  json << "}}";
  // The result line is printed only when it is whole.
  if (complete) std::cout << json.str() << std::endl;
  return complete && r.correct();
}

void print_description() {
  std::cout << "# workload <TAB> name <TAB> why\n"
               "# metric <TAB> end_to_end|per_layer <TAB> name <TAB> unit <TAB> "
               "better <TAB> layer <TAB> what it should move, where\n";
  for (const WorkloadSpec& w : kWorkloads) {
    std::cout << "workload\t" << w.name << '\t' << w.why << '\n';
  }
  for (const MetricSpec& m : kMetrics) {
    std::cout << "metric\t"
              << (m.kind == MetricKind::kEndToEnd ? "end_to_end" : "per_layer")
              << '\t' << m.name << '\t' << m.unit << '\t' << m.better << '\t'
              << m.layer << '\t' << m.moves << '\n';
  }
}

}  // namespace perfbench
