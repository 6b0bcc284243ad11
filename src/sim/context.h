// Shared, non-owning wiring context handed to every timed component, plus
// the kernel-launch descriptor.  All pointers are owned by the Simulator
// and outlive the components.
#pragma once

#include <string>
#include <vector>

#include "common/config.h"
#include "common/types.h"

namespace sndp {

class AddressMap;
class GlobalMemory;
class LatencyTracer;
class Network;
struct KernelImage;

// Kernel grid: num_ctas thread blocks of cta_threads threads each.
// Thread register conventions at launch:
//   R0 = global thread id, R1 = total thread count,
//   R2 = CTA id,           R3 = thread id within the CTA.
struct LaunchParams {
  unsigned cta_threads = 256;
  unsigned num_ctas = 1;
  unsigned total_threads() const { return cta_threads * num_ctas; }
  unsigned warps_per_cta() const { return (cta_threads + kWarpWidth - 1) / kWarpWidth; }
};

// One resident kernel stream (DESIGN.md "Multi-tenant serving").  The
// Simulator owns the images; the table is shared read-only by every
// component via SystemContext.  A single-kernel run is a one-entry table.
struct TenantInfo {
  const KernelImage* image = nullptr;
  LaunchParams launch{};
  std::string name;        // the job's name, for diagnostics
  double weight = 1.0;     // kWeightedShare arbiter share
  unsigned priority = 0;   // kStrictPriority rank (lower wins)
};

struct SystemContext {
  const SystemConfig* cfg = nullptr;
  AddressMap* amap = nullptr;  // non-const: placement lookups may assign/migrate
  GlobalMemory* gmem = nullptr;
  // The memory network every cross-component packet travels through.
  Network* net = nullptr;
  // Request-lifecycle latency tracer (src/obs/latency.*); every run has one.
  LatencyTracer* latency = nullptr;

  // Tenant table, one entry per kernel stream.  A tenant index is assigned
  // by the CTA arbiter and copied onto every packet, so it is always below
  // num_tenants().
  const std::vector<TenantInfo>* tenants = nullptr;

  unsigned num_tenants() const { return static_cast<unsigned>(tenants->size()); }
  const KernelImage* image_of(unsigned t) const { return (*tenants)[t].image; }
  const LaunchParams& launch_of(unsigned t) const { return (*tenants)[t].launch; }
};

}  // namespace sndp
