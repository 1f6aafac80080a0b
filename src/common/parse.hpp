// Checked parsing of unsigned integers from text.
//
// `istream >> unsigned` accepts a sign and wraps ("-1" reads as
// UINT64_MAX), so every unsigned field read back from a journal, the result
// cache or the environment goes through parse_uint instead: a whole,
// non-empty token of digits that fits the type, and nothing else.
#pragma once

#include <charconv>
#include <istream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace simdts::common {

/// Parses all of `token` as an unsigned integer in `base`: no sign, prefix
/// or whitespace, and within T's range.  Returns false, with `out`
/// untouched, on anything else.
template <typename T>
[[nodiscard]] bool parse_uint(std::string_view token, T& out, int base = 10) {
  static_assert(std::is_unsigned_v<T>);
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value, base);
  if (ec != std::errc{} || ptr != end) return false;
  out = value;
  return true;
}

/// Reads the next whitespace-delimited token of `is` as a decimal
/// parse_uint.  False when the stream has no token or the token is not one.
template <typename T>
[[nodiscard]] bool read_uint(std::istream& is, T& out) {
  std::string token;
  return static_cast<bool>(is >> token) && parse_uint(token, out);
}

}  // namespace simdts::common
