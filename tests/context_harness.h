// Shared fixture for the component unit tests (Sm, Hmc, Nsu): owns every
// object a component reaches through SystemContext and wires them the way
// Simulator::run_images does, with a one-entry tenant table and a latency
// tracer.  The component under test is built by the derived harness.
#pragma once

#include <utility>
#include <vector>

#include "sndp.h"

namespace sndp {

struct ContextHarness {
  ContextHarness(SystemConfig c, const Program& prog, LaunchParams launch = {})
      : cfg(std::move(c)),
        amap(cfg),
        net(cfg),
        latency(cfg.latency_sample),
        image(analyze_and_generate(prog)) {
    net.set_latency(&latency);
    TenantInfo solo;
    solo.image = &image;
    solo.launch = launch;
    tenants.push_back(solo);
    ctx.cfg = &cfg;
    ctx.amap = &amap;
    ctx.gmem = &gmem;
    ctx.net = &net;
    ctx.latency = &latency;
    ctx.tenants = &tenants;
  }
  // ctx points into this object.
  ContextHarness(const ContextHarness&) = delete;
  ContextHarness& operator=(const ContextHarness&) = delete;

  SystemConfig cfg;
  AddressMap amap;
  GlobalMemory gmem;
  Network net;
  LatencyTracer latency;
  KernelImage image;
  std::vector<TenantInfo> tenants;
  SystemContext ctx;
};

}  // namespace sndp
