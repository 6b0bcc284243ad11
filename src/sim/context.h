// Shared, non-owning wiring context handed to every timed component, plus
// the kernel-launch descriptor.  All pointers are owned by the Simulator
// and outlive the components.
#pragma once

#include <vector>

#include "common/config.h"
#include "common/types.h"

namespace sndp {

class AddressMap;
class GlobalMemory;
class LatencyTracer;
class Network;
class OffloadGovernor;
class NdpBufferManager;
class RoCacheMirror;
class WtaInflightTracker;
struct EnergyCounters;
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
// Simulator owns the images and governors; the table is shared read-only by
// every component via SystemContext.  Tenant 0 of a single-tenant run is
// the classic single-kernel path.
struct TenantInfo {
  const KernelImage* image = nullptr;
  LaunchParams launch{};
  OffloadGovernor* governor = nullptr;
  double weight = 1.0;     // kWeightedShare arbiter share
  unsigned priority = 0;   // kStrictPriority rank (lower wins)
};

struct SystemContext {
  const SystemConfig* cfg = nullptr;
  AddressMap* amap = nullptr;  // non-const: placement lookups may assign/migrate
  GlobalMemory* gmem = nullptr;
  // The memory network every cross-component packet travels through.
  Network* net = nullptr;
  OffloadGovernor* governor = nullptr;
  NdpBufferManager* bufmgr = nullptr;
  EnergyCounters* energy = nullptr;
  RoCacheMirror* ro_cache = nullptr;
  WtaInflightTracker* wta_tracker = nullptr;
  // Non-null iff SystemConfig::latency_trace — the single guard every
  // instrumentation site uses (src/obs/latency.*).
  LatencyTracer* latency = nullptr;
  const KernelImage* image = nullptr;
  LaunchParams launch{};

  // Tenant table (null or size 1 = single-tenant: every helper falls back
  // to the legacy image/launch/governor fields, so components written
  // against the helpers behave identically on the classic path).
  const std::vector<TenantInfo>* tenants = nullptr;

  unsigned num_tenants() const {
    return tenants ? static_cast<unsigned>(tenants->size()) : 1u;
  }
  const KernelImage* image_of(unsigned t) const {
    return (tenants && t < tenants->size()) ? (*tenants)[t].image : image;
  }
  const LaunchParams& launch_of(unsigned t) const {
    return (tenants && t < tenants->size()) ? (*tenants)[t].launch : launch;
  }
  OffloadGovernor* governor_of(unsigned t) const {
    return (tenants && t < tenants->size() && (*tenants)[t].governor)
               ? (*tenants)[t].governor
               : governor;
  }
};

}  // namespace sndp
