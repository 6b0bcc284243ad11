#include "memfunc/global_memory.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "isa/isa.h"

namespace sndp {

const std::uint8_t GlobalMemory::kZeroFrame[GlobalMemory::kFrameBytes] = {};

GlobalMemory::GlobalMemory(const GlobalMemory& other) { *this = other; }

GlobalMemory& GlobalMemory::operator=(const GlobalMemory& other) {
  if (this == &other) return *this;
  frames_.clear();
  frames_.reserve(other.frames_.size());
  for (const auto& [id, frame] : other.frames_) {
    auto copy = std::make_unique<std::uint8_t[]>(kFrameBytes);
    std::memcpy(copy.get(), frame.get(), kFrameBytes);
    frames_.emplace(id, std::move(copy));
  }
  return *this;
}

const std::uint8_t* GlobalMemory::frame_for_read(std::uint64_t frame_id) const {
  auto it = frames_.find(frame_id);
  return it == frames_.end() ? kZeroFrame : it->second.get();
}

std::uint8_t* GlobalMemory::frame_for_write(std::uint64_t frame_id) {
  auto& slot = frames_[frame_id];
  if (!slot) {
    slot = std::make_unique<std::uint8_t[]>(kFrameBytes);
    std::memset(slot.get(), 0, kFrameBytes);
  }
  return slot.get();
}

std::uint64_t GlobalMemory::read(Addr addr, unsigned width) const {
  if (width == 0 || width > 8) throw std::invalid_argument("GlobalMemory::read: bad width");
  std::uint64_t value = 0;
  const std::uint64_t off = addr % kFrameBytes;
  if (off + width <= kFrameBytes) {
    // Inside one frame: one lookup for the whole access, and a loop the
    // compiler unrolls.  A single loop that also handles the straddling case
    // re-tests the frame per byte; built with GCC 12 -O3 on an x86-64 Xeon
    // it read 1.3-1.7x slower.
    const std::uint8_t* bytes = frame_for_read(addr / kFrameBytes) + off;
    for (unsigned i = 0; i < width; ++i) value |= std::uint64_t{bytes[i]} << (8 * i);
    return value;
  }
  for (unsigned i = 0; i < width; ++i) {
    const Addr a = addr + i;
    const std::uint8_t byte = frame_for_read(a / kFrameBytes)[a % kFrameBytes];
    value |= static_cast<std::uint64_t>(byte) << (8 * i);
  }
  return value;
}

void GlobalMemory::write(Addr addr, std::uint64_t value, unsigned width) {
  if (width == 0 || width > 8) throw std::invalid_argument("GlobalMemory::write: bad width");
  const std::uint64_t off = addr % kFrameBytes;
  if (off + width <= kFrameBytes) {
    std::uint8_t* bytes = frame_for_write(addr / kFrameBytes) + off;
    for (unsigned i = 0; i < width; ++i) bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
    return;
  }
  for (unsigned i = 0; i < width; ++i) {
    const Addr a = addr + i;
    frame_for_write(a / kFrameBytes)[a % kFrameBytes] =
        static_cast<std::uint8_t>(value >> (8 * i));
  }
}

double GlobalMemory::read_f64(Addr a) const { return bits_to_f64(read(a, 8)); }

float GlobalMemory::read_f32(Addr a) const {
  const std::uint32_t bits = read_u32(a);
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

void GlobalMemory::write_f64(Addr a, double v) { write(a, f64_to_bits(v), 8); }

void GlobalMemory::write_f32(Addr a, float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  write_u32(a, bits);
}

RegValue GlobalMemory::load_reg(Addr a, unsigned width, bool f32) const {
  if (f32) return f64_to_bits(static_cast<double>(read_f32(a)));
  return read(a, width);  // zero-extended
}

void GlobalMemory::store_reg(Addr a, RegValue v, unsigned width, bool f32) {
  if (f32) {
    write_f32(a, static_cast<float>(bits_to_f64(v)));
  } else {
    write(a, v, width);
  }
}

bool GlobalMemory::equal_range(const GlobalMemory& other, Addr base, std::uint64_t bytes,
                               Addr* first_diff) const {
  Addr a = base;
  std::uint64_t left = bytes;
  while (left > 0) {
    const std::uint64_t frame_id = a / kFrameBytes;
    const std::uint64_t off = a % kFrameBytes;
    const std::uint64_t chunk = std::min<std::uint64_t>(left, kFrameBytes - off);
    const std::uint8_t* mine = frame_for_read(frame_id) + off;
    const std::uint8_t* theirs = other.frame_for_read(frame_id) + off;
    if (std::memcmp(mine, theirs, chunk) != 0) {
      for (std::uint64_t i = 0; i < chunk; ++i) {
        if (mine[i] != theirs[i]) {
          if (first_diff != nullptr) *first_diff = a + i;
          return false;
        }
      }
    }
    a += chunk;
    left -= chunk;
  }
  return true;
}

bool GlobalMemory::equal_contents(const GlobalMemory& other, Addr* first_diff) const {
  // Visit the union of allocated frames; compare each against the other
  // image's frame (or zeros).  Pick the lowest differing address within a
  // frame so diagnostics are stable regardless of hash order.
  bool equal = true;
  Addr lowest = ~Addr{0};
  auto visit = [&](std::uint64_t frame_id) {
    const std::uint8_t* mine = frame_for_read(frame_id);
    const std::uint8_t* theirs = other.frame_for_read(frame_id);
    if (mine == theirs || std::memcmp(mine, theirs, kFrameBytes) == 0) return;
    for (std::uint64_t i = 0; i < kFrameBytes; ++i) {
      if (mine[i] != theirs[i]) {
        equal = false;
        lowest = std::min(lowest, frame_id * kFrameBytes + i);
        return;
      }
    }
  };
  for (const auto& [id, frame] : frames_) visit(id);
  for (const auto& [id, frame] : other.frames_) {
    if (frames_.find(id) == frames_.end()) visit(id);
  }
  if (!equal && first_diff != nullptr) *first_diff = lowest;
  return equal;
}

Addr MemoryAllocator::alloc(std::uint64_t bytes) { return alloc(bytes, alignment_); }

Addr MemoryAllocator::alloc(std::uint64_t bytes, unsigned alignment) {
  if (alignment == 0 || (alignment & (alignment - 1)) != 0) {
    throw std::invalid_argument("MemoryAllocator: alignment must be a power of two");
  }
  next_ = (next_ + alignment - 1) & ~static_cast<Addr>(alignment - 1);
  const Addr base = next_;
  next_ += bytes;
  return base;
}

}  // namespace sndp
