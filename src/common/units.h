// Unit helpers: bandwidth / frequency / size conversions used when turning
// the paper's Table 2 into simulator parameters.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace sndp {

inline constexpr std::uint64_t KiB = 1024;
inline constexpr std::uint64_t MiB = 1024 * KiB;
inline constexpr std::uint64_t GiB = 1024 * MiB;

// Picoseconds per byte for a given bandwidth in GB/s (decimal GB, as link
// vendors quote).  20 GB/s -> 50 ps/B.
constexpr double ps_per_byte(double gb_per_s) { return 1000.0 / gb_per_s; }

// Serialization delay of `bytes` over a `gb_per_s` link, rounded up to ps.
constexpr TimePs serialize_ps(std::uint64_t bytes, double gb_per_s) {
  const double ps = static_cast<double>(bytes) * ps_per_byte(gb_per_s);
  return static_cast<TimePs>(ps + 0.999999);
}

// Exact tick->time mapping that avoids cumulative rounding drift:
// time(n) = n * 1e6 / mhz  (in ps), computed in integer arithmetic.
constexpr TimePs tick_time_ps(Cycle n, std::uint64_t freq_khz) {
  // 1 tick = 1e9 ps / freq_khz.
  return static_cast<TimePs>((static_cast<unsigned __int128>(n) * 1000000000ull) / freq_khz);
}

}  // namespace sndp
