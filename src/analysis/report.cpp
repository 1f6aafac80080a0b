#include "analysis/report.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <system_error>

#include "common/error.hpp"

namespace simdts::analysis {

void print_banner(const std::string& experiment, const std::string& paper_ref,
                  const std::string& shape_note) {
  std::cout << "==============================================================="
               "=\n"
            << experiment << '\n'
            << "Paper: " << paper_ref << '\n'
            << "Shape expectation: " << shape_note << '\n'
            << "==============================================================="
               "=\n";
}

std::string out_dir() {
  if (const char* dir = std::getenv("SIMDTS_OUT_DIR"); dir != nullptr) {
    return dir;
  }
  return "bench_out";
}

void emit_csv(const std::string& name, const Table& table) {
  const std::string path = out_dir() + "/" + name + ".csv";
  if (write_file(path, table.to_csv())) {
    std::cout << "[csv] " << path << '\n';
  } else {
    std::cout << "[csv] failed to write " << path << '\n';
  }
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback,
                      std::uint64_t max) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const char* end = v + std::strlen(v);
  std::uint64_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(v, end, parsed);
  if (ec != std::errc{} || ptr != end || parsed == 0 || parsed > max) {
    throw ConfigError(std::string(name) + " must be an integer in [1, " +
                          std::to_string(max) + "]",
                      std::string(name) + "=" + v);
  }
  return parsed;
}

bool quick_mode() { return std::getenv("SIMDTS_QUICK") != nullptr; }

}  // namespace simdts::analysis
