#include "common/parse.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace sndp {

namespace {

std::string fmt(std::uint64_t v) { return std::to_string(v); }

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

// "must be in [lo, hi]", leaving out a bound that is the type's own limit.
template <typename T>
std::string range_text(T lo, T hi) {
  const bool open_lo = lo == std::numeric_limits<T>::lowest();
  const bool open_hi = hi == std::numeric_limits<T>::max();
  if (open_lo && open_hi) return "out of range";
  if (open_hi) return "must be >= " + fmt(lo);
  if (open_lo) return "must be <= " + fmt(hi);
  return "must be in [" + fmt(lo) + ", " + fmt(hi) + "]";
}

void set(std::string* why, std::string text) {
  if (why != nullptr) *why = std::move(text);
}

}  // namespace

std::optional<std::uint64_t> parse_unsigned(std::string_view text, std::uint64_t lo,
                                            std::uint64_t hi, std::string* why) {
  if (text.empty()) {
    set(why, "empty value");
    return std::nullopt;
  }
  if (text.front() == '+' || text.front() == '-') {
    set(why, "an unsigned value takes no sign");
    return std::nullopt;
  }
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc::result_out_of_range) {
    set(why, range_text(lo, hi));
    return std::nullopt;
  }
  if (ec != std::errc() || ptr != end) {
    set(why, "not an unsigned integer");
    return std::nullopt;
  }
  if (v < lo || v > hi) {
    set(why, range_text(lo, hi));
    return std::nullopt;
  }
  return v;
}

std::optional<double> parse_double(std::string_view text, double lo, double hi,
                                   std::string* why) {
  if (text.empty()) {
    set(why, "empty value");
    return std::nullopt;
  }
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc::result_out_of_range) {
    set(why, range_text(lo, hi));
    return std::nullopt;
  }
  if (ec != std::errc() || ptr != end) {
    set(why, "not a number");
    return std::nullopt;
  }
  if (!std::isfinite(v)) {
    set(why, "not a finite number");
    return std::nullopt;
  }
  if (v < lo || v > hi) {
    set(why, range_text(lo, hi));
    return std::nullopt;
  }
  return v;
}

void flag_value_error(const char* prog, std::string_view flag, std::string_view text,
                      const std::string& why) {
  std::fprintf(stderr, "%s: invalid value '%.*s' for %.*s: %s\n", prog,
               static_cast<int>(text.size()), text.data(), static_cast<int>(flag.size()),
               flag.data(), why.c_str());
  std::exit(2);
}

}  // namespace sndp
