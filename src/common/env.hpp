// Checked parsing of integer environment knobs.
//
// Every size, budget and thread-count knob read from the environment goes
// through env_u64, so a typo fails loudly with the variable's name instead of
// being read as a prefix ("8k" as 8), wrapped ("-1" as UINT_MAX) or
// truncated ("4294967296" as 0).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace simdts::common {

/// Reads a positive decimal integer from the environment; returns fallback
/// when the variable is unset or empty.  Any other value that is not a plain
/// decimal number in [1, max] (a sign, trailing characters, zero, overflow)
/// throws simdts::ConfigError naming the variable.
[[nodiscard]] inline std::uint64_t env_u64(
    const char* name, std::uint64_t fallback,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  std::uint64_t parsed = 0;
  if (!parse_uint(std::string_view(v), parsed) || parsed == 0 ||
      parsed > max) {
    throw ConfigError(std::string(name) + " must be an integer in [1, " +
                          std::to_string(max) + "]",
                      std::string(name) + "=" + v);
  }
  return parsed;
}

}  // namespace simdts::common
