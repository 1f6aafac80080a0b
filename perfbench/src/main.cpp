// perfbench: runs one named workload, timed (--trace 0) or traced
// (--trace 1), checks its simulated results, and prints every metric by name
// and unit, ending with one JSON result line.  See ../README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--commit <id>] [--source-digest <sha256>]
//   perfbench --describe
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> [--commit <id>] "
               "[--source-digest <hex>] | --describe\n";
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string commit = "unknown";
  std::string digest = "unknown";
  Options opt;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--describe") {
      print_description();
      return 0;
    }
    if (i + 1 >= argc) return usage("missing value for " + a);
    const char* v = argv[++i];
    std::uint64_t n = 0;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      if (!parse_u64(v, n)) return usage("bad --seed");
      opt.seed = n;
      have_seed = true;
    } else if (a == "--seconds") {
      if (!parse_u64(v, n) || n == 0 || n > 600) return usage("bad --seconds");
      opt.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (a == "--trace") {
      if (!parse_u64(v, n) || n > 1) return usage("bad --trace");
      opt.trace = n == 1;
      have_trace = true;
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else if (a == "--commit") {
      commit = v;
    } else if (a == "--source-digest") {
      digest = v;
    } else {
      return usage("unknown argument " + a);
    }
  }
  if (!have_seed || !have_seconds || !have_trace || opt.work_dir.empty()) {
    return usage("--seed, --seconds, --trace and --work-dir are required");
  }

  Result r;
  try {
    std::filesystem::create_directories(opt.work_dir);
    if (workload == "engine-megap") {
      run_engine_megap(opt, r);
    } else if (workload == "engine-paper") {
      run_engine_paper(opt, r);
    } else if (workload == "sweep-fig4") {
      run_sweep_fig4(opt, r);
    } else if (workload == "service-replay") {
      run_service_replay(opt, r);
    } else {
      return usage("unknown workload '" + workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << " threw: " << e.what() << '\n';
    return 1;
  }
  const MetricKind kind =
      opt.trace ? MetricKind::kPerLayer : MetricKind::kEndToEnd;
  return print_result(r, kind, fingerprint_json(commit, digest)) ? 0 : 1;
}
