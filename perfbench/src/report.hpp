// The benchmark's self-description and result record: every metric it can
// report (name, unit, direction, layer, and which end-to-end metric a layer
// metric should move), the output-check ledger, and the result printer.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

enum class MetricKind : std::uint8_t { kEndToEnd, kPerLayer };

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  ///< "higher" or "lower"
  MetricKind kind;
  const char* layer;   ///< the module it measures ("end-to-end" for those)
  /// End-to-end metric(s) this one should move, on which workloads — and
  /// where it predicts no change.  Empty for the end-to-end metrics.
  const char* moves;
};

/// Every metric, end-to-end first, in print order.  BENCHMARK.json lists
/// the same names, units and directions (the unit tests check it).
[[nodiscard]] std::span<const MetricSpec> metric_specs();

struct WorkloadSpec {
  const char* name;
  const char* why;  ///< one line; the same sentence as BENCHMARK.json's
};

[[nodiscard]] std::span<const WorkloadSpec> workload_specs();

/// What one invocation measured and checked.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> mismatches;  ///< output-check failures, verbatim
  std::map<std::string, double> metrics;
  std::vector<std::string> info;  ///< extra lines printed before the metrics

  [[nodiscard]] bool correct() const { return mismatches.empty(); }

  /// Records an output-check failure; it is printed loudly and makes the
  /// run incorrect.  The caller counts the failed operations.
  void mismatch(const std::string& what) { mismatches.push_back(what); }

  /// Compares a pinned value; a difference is a mismatch.
  template <typename T>
  bool expect_eq(const std::string& what, const T& got, const T& want) {
    if (got == want) return true;
    mismatch(what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
    return false;
  }
};

/// Host and build fingerprint, printed with every result so that results
/// from unlike hosts or builds are never compared.
[[nodiscard]] std::string fingerprint_json(const std::string& commit,
                                           const std::string& source_digest);

/// Prints the human-readable lines (fingerprint, info, mismatches, every
/// metric by name and unit), then as the last line the machine-readable
/// result: one JSON object with correct, attempted, failed, and the metrics
/// of `kind`.
/// If a metric of that kind is missing or not finite, the result line is
/// withheld and false returned.  An output-check mismatch also returns
/// false (after printing the line, with "correct": false): perfbench's
/// exit status is 0 only for a whole, correct result.
bool print_result(const Result& r, MetricKind kind,
                  const std::string& fingerprint);

/// `--describe`: workloads, metrics and the layer -> end-to-end map, one
/// tab-separated record per line.
void print_description();

}  // namespace perfbench
