// Functional backing store for the simulated physical address space.
//
// The simulator is functional as well as timing-accurate: loads return real
// data, the NSU computes on real register values, and stores mutate this
// store — so every workload's output can be checked against a host oracle
// regardless of which execution path (GPU or partitioned NDP) produced it.
//
// Storage is sparse: 64 KiB frames allocated on first touch, so a 32 GiB
// address space costs only what the workload touches.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace sndp {

class GlobalMemory {
 public:
  static constexpr std::uint64_t kFrameBytes = 64 * 1024;

  GlobalMemory() = default;
  GlobalMemory(GlobalMemory&&) noexcept = default;
  GlobalMemory& operator=(GlobalMemory&&) noexcept = default;
  // Deep copy: snapshot the whole address space (e.g., to run the same
  // initialized memory image under several configurations).
  GlobalMemory(const GlobalMemory& other);
  GlobalMemory& operator=(const GlobalMemory& other);

  // Raw access; crosses frame boundaries correctly.  width in [1, 8].
  std::uint64_t read(Addr addr, unsigned width) const;
  void write(Addr addr, std::uint64_t value, unsigned width);

  // Typed helpers.
  std::uint64_t read_u64(Addr a) const { return read(a, 8); }
  std::uint32_t read_u32(Addr a) const { return static_cast<std::uint32_t>(read(a, 4)); }
  double read_f64(Addr a) const;
  float read_f32(Addr a) const;
  void write_u64(Addr a, std::uint64_t v) { write(a, v, 8); }
  void write_u32(Addr a, std::uint32_t v) { write(a, v, 4); }
  void write_f64(Addr a, double v);
  void write_f32(Addr a, float v);

  // Register-value load/store honoring the ISA's mem_width / mem_f32
  // semantics (float32 in memory <-> double in registers).
  RegValue load_reg(Addr a, unsigned width, bool f32) const;
  void store_reg(Addr a, RegValue v, unsigned width, bool f32);

  std::size_t frames_allocated() const { return frames_.size(); }

  // Byte-exact comparison of an address range against another image.
  // Returns true when every byte matches; otherwise writes the first
  // differing address to `first_diff` (if non-null) and returns false.
  bool equal_range(const GlobalMemory& other, Addr base, std::uint64_t bytes,
                   Addr* first_diff = nullptr) const;

  // Byte-exact comparison of the whole address space (the union of both
  // images' allocated frames; an absent frame compares as zeros).
  bool equal_contents(const GlobalMemory& other, Addr* first_diff = nullptr) const;

 private:
  const std::uint8_t* frame_for_read(std::uint64_t frame_id) const;
  std::uint8_t* frame_for_write(std::uint64_t frame_id);

  std::unordered_map<std::uint64_t, std::unique_ptr<std::uint8_t[]>> frames_;
  static const std::uint8_t kZeroFrame[kFrameBytes];
};

// Bump allocator carving arrays out of the simulated address space.
// Allocations are padded to a requested alignment (default: 128 B line).
class MemoryAllocator {
 public:
  explicit MemoryAllocator(Addr base = 0x10000, unsigned alignment = 128)
      : next_(base), alignment_(alignment) {}

  Addr alloc(std::uint64_t bytes);
  Addr alloc(std::uint64_t bytes, unsigned alignment);

  Addr high_water() const { return next_; }

 private:
  Addr next_;
  unsigned alignment_;
};

}  // namespace sndp
