// Workload framework: each of the paper's ten evaluated workloads
// (Table 1) is a generator that allocates and initializes data in the
// functional memory, emits a kernel in the sndp mini-ISA with the same
// memory/compute signature as the original CUDA code, and provides a host
// oracle that verifies the simulated output.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "isa/program.h"
#include "memfunc/global_memory.h"
#include "sim/context.h"

namespace sndp {

// One result-bearing address range of a workload: the kernel writes it and
// the host oracle reads it.  The manifest lets tools that compare or dump
// final memory images (the differential oracle, future checkpointing) know
// which ranges carry the answer — everything else is input or scratch.
struct OutputRegion {
  std::string name;          // e.g. "C" for VADD's result vector
  Addr base = 0;
  std::uint64_t bytes = 0;
};

// Input sizes are scaled from the paper so a simulation finishes in
// seconds; kTiny additionally shrinks for unit tests.
enum class ProblemScale { kTiny, kSmall, kLarge };

// Parses "tiny" / "small" / "large".  Returns false on anything else.
bool parse_problem_scale(const std::string& text, ProblemScale* out);

class Workload {
 public:
  explicit Workload(ProblemScale scale) : scale_(scale) {}
  virtual ~Workload() = default;

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual std::string name() const = 0;
  virtual std::string description() const = 0;

  // Allocate arrays, write initial data, build the kernel.
  virtual void setup(GlobalMemory& mem, MemoryAllocator& alloc, Rng& rng) = 0;

  // Check the simulated output against a host oracle.
  virtual bool verify(const GlobalMemory& mem) const = 0;

  // Result-bearing address ranges (valid after setup()).  Every workload
  // must name each buffer its verify() reads.
  virtual std::vector<OutputRegion> output_regions() const = 0;

  const Program& program() const { return program_; }
  const LaunchParams& launch() const { return launch_; }
  ProblemScale scale() const { return scale_; }

 protected:
  // Scale helper: picks between tiny/small/large variants.
  template <typename T>
  T pick(T tiny, T small, T large) const {
    switch (scale_) {
      case ProblemScale::kTiny: return tiny;
      case ProblemScale::kSmall: return small;
      case ProblemScale::kLarge: return large;
    }
    return small;
  }

  ProblemScale scale_;
  Program program_;
  LaunchParams launch_{};
};

}  // namespace sndp
