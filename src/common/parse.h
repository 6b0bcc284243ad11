// Checked text-to-number conversion for external inputs (command-line flags,
// tenant specs).  A parser consumes the whole string — no blanks, no
// trailing garbage — and checks the value against an inclusive range, so
// "12abc", "" and "1e999" are errors instead of a silent prefix, zero or
// infinity.  Unsigned parsers reject any sign: strtoul would wrap "-1" to
// the type's maximum.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

namespace sndp {

// The value of `text` if it is a decimal integer in [lo, hi]; otherwise
// nullopt, with a short reason in `*why` when `why` is non-null.
std::optional<std::uint64_t> parse_unsigned(std::string_view text, std::uint64_t lo,
                                            std::uint64_t hi, std::string* why = nullptr);

// The value of `text` if it is a finite number in [lo, hi]; otherwise
// nullopt, with a short reason in `*why` when `why` is non-null.
std::optional<double> parse_double(std::string_view text, double lo, double hi,
                                   std::string* why = nullptr);

// Prints "<prog>: invalid value '<text>' for <flag>: <why>" to stderr and
// exits with status 2, the usage-error status of every front end.
[[noreturn]] void flag_value_error(const char* prog, std::string_view flag,
                                   std::string_view text, const std::string& why);

// Command-line front ends: `text` parsed as the value of `flag` — an
// unsigned integer or floating-point T in [lo, hi] — or a diagnostic and
// exit(2) through flag_value_error.
template <typename T>
T parse_flag(const char* prog, std::string_view flag, std::string_view text,
             T lo = std::numeric_limits<T>::lowest(), T hi = std::numeric_limits<T>::max()) {
  static_assert(std::is_unsigned_v<T> || std::is_floating_point_v<T>);
  std::string why;
  if constexpr (std::is_floating_point_v<T>) {
    if (const auto v = parse_double(text, lo, hi, &why)) return static_cast<T>(*v);
  } else {
    if (const auto v = parse_unsigned(text, lo, hi, &why)) return static_cast<T>(*v);
  }
  flag_value_error(prog, flag, text, why);
}

}  // namespace sndp
