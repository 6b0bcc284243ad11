#include "ref/diff_oracle.h"

#include <cstdio>
#include <sstream>

#include "offload/codegen.h"
#include "ref/placement_profile.h"
#include "ref/ref_interp.h"
#include "sim/simulator.h"
#include "workloads/registry.h"

namespace sndp {

std::vector<OraclePoint> oracle_matrix(const SystemConfig& base) {
  std::vector<OraclePoint> points;
  auto add = [&](const std::string& label, OffloadMode mode, double ratio,
                 unsigned num_hmcs) {
    OraclePoint p;
    p.label = label;
    p.cfg = base;
    p.cfg.governor.mode = mode;
    p.cfg.governor.static_ratio = ratio;
    p.cfg.num_hmcs = num_hmcs;
    points.push_back(std::move(p));
  };
  add("baseline", OffloadMode::kOff, 1.0, base.num_hmcs);
  add("ndp@0.00", OffloadMode::kStaticRatio, 0.0, base.num_hmcs);
  add("ndp@0.25", OffloadMode::kStaticRatio, 0.25, base.num_hmcs);
  add("ndp@0.50", OffloadMode::kStaticRatio, 0.5, base.num_hmcs);
  add("ndp@1.00", OffloadMode::kStaticRatio, 1.0, base.num_hmcs);
  add("dyn", OffloadMode::kDynamic, 1.0, base.num_hmcs);
  add("dyn-cache", OffloadMode::kDynamicCache, 1.0, base.num_hmcs);
  // Data placement spread: the hypercube degenerates (1 stack), halves, or
  // uses the full base stack count — unrestricted placement must not change
  // a single result byte.
  add("ndp@1.00/1-stack", OffloadMode::kStaticRatio, 1.0, 1);
  add("ndp@1.00/2-stack", OffloadMode::kStaticRatio, 1.0, 2);
  add("ndp@1.00/4-stack", OffloadMode::kStaticRatio, 1.0, 4);
  // Placement-policy axis: every policy must be invisible to the memory
  // image — only timing and traffic may change.  Migration runs with an
  // aggressively low threshold so pages actually move mid-run.
  auto add_policy = [&](const std::string& label, PlacementPolicyKind kind) {
    OraclePoint p;
    p.label = label;
    p.cfg = base;
    p.cfg.governor.mode = OffloadMode::kStaticRatio;
    p.cfg.governor.static_ratio = 1.0;
    p.cfg.placement.policy = kind;
    points.push_back(std::move(p));
  };
  add_policy("ndp@1.00/first-touch", PlacementPolicyKind::kFirstTouch);
  add_policy("ndp@1.00/locality", PlacementPolicyKind::kLocality);
  add_policy("ndp@1.00/migration", PlacementPolicyKind::kMigration);
  points.back().cfg.placement.migration_threshold = 16;
  return points;
}

DiffReport diff_check(const std::vector<std::string>& workload_names, ProblemScale scale,
                      const std::vector<OraclePoint>& points) {
  DiffReport report;
  for (const std::string& n : workload_names) {
    report.workload += (report.workload.empty() ? "" : "+") + n;
  }
  if (points.empty() || workload_names.empty()) return report;

  // Shared-image setup, replicating Simulator::run_tenants exactly: one
  // allocator rounded to a fresh 16 MiB slice per tenant, tenant 0 on the
  // classic seed, later tenants on the perturbed stream.
  std::vector<std::unique_ptr<Workload>> wls;
  GlobalMemory initial;
  MemoryAllocator alloc;
  for (unsigned t = 0; t < workload_names.size(); ++t) {
    wls.push_back(make_workload(workload_names[t], scale));
    if (t > 0) alloc.alloc(0, kTenantBaseAlign);
    Rng rng(tenant_setup_seed(points.front().cfg.placement_seed, t));
    wls[t]->setup(initial, alloc, rng);
  }

  // Reference: each tenant's program replayed independently on the shared
  // image.  Address spaces are disjoint, so replay order is immaterial and
  // the result is the unique interference-free ground truth.
  GlobalMemory ref_mem = initial;
  for (unsigned t = 0; t < wls.size(); ++t) {
    const RefResult ref = ref_run(wls[t]->program(), wls[t]->launch(), ref_mem);
    if (!ref.completed) {
      report.ref_error = "tenant " + std::to_string(t) + ": " + ref.error;
      return report;
    }
    if (!wls[t]->verify(ref_mem)) {
      report.ref_error =
          "tenant " + std::to_string(t) + " reference image fails the host oracle";
      return report;
    }
  }
  report.ref_completed = true;

  for (const OraclePoint& point : points) {
    DiffOutcome out;
    out.workload = report.workload;
    out.label = point.label;

    GlobalMemory sim_mem = initial;
    try {
      std::vector<KernelImage> images;
      images.reserve(wls.size());
      for (const auto& wl : wls) {
        images.push_back(analyze_and_generate(wl->program()));
      }
      std::vector<TenantJob> jobs;
      for (unsigned t = 0; t < wls.size(); ++t) {
        TenantJob job;
        job.image = &images[t];
        job.launch = wls[t]->launch();
        job.name = wls[t]->name();
        jobs.push_back(std::move(job));
      }
      SystemConfig cfg = point.cfg;
      if (auto profile = auto_placement_profile(wls.size(), wls[0]->program(),
                                                wls[0]->launch(), initial, cfg)) {
        cfg.placement.locality_profile = std::move(profile);
      }
      Simulator sim(cfg);
      const RunResult r =
          sim.run_images(jobs, sim_mem, report.workload + "/" + point.label);
      out.sim_completed = r.completed;
      if (!r.completed) {
        out.detail = r.aborted ? "aborted" : "hit the simulated-time safety valve";
        report.outcomes.push_back(std::move(out));
        continue;
      }
    } catch (const std::exception& e) {
      out.detail = std::string("simulator threw: ") + e.what();
      report.outcomes.push_back(std::move(out));
      continue;
    }

    out.sim_verified = true;
    for (const auto& wl : wls) out.sim_verified = out.sim_verified && wl->verify(sim_mem);

    char buf[160];
    Addr where = 0;
    out.outputs_match = true;
    for (unsigned t = 0; t < wls.size() && out.outputs_match; ++t) {
      for (const OutputRegion& region : wls[t]->output_regions()) {
        if (!sim_mem.equal_range(ref_mem, region.base, region.bytes, &where)) {
          out.outputs_match = false;
          std::snprintf(buf, sizeof(buf),
                        "tenant %u region '%s' differs at 0x%llx (ref %02x, sim %02x)", t,
                        region.name.c_str(), static_cast<unsigned long long>(where),
                        static_cast<unsigned>(ref_mem.read(where, 1)),
                        static_cast<unsigned>(sim_mem.read(where, 1)));
          out.detail = buf;
          break;
        }
      }
    }
    out.image_matches = sim_mem.equal_contents(ref_mem, &where);
    if (!out.image_matches && out.detail.empty()) {
      std::snprintf(buf, sizeof(buf),
                    "memory image differs at 0x%llx (ref byte %02x, sim byte %02x)",
                    static_cast<unsigned long long>(where),
                    static_cast<unsigned>(ref_mem.read(where, 1)),
                    static_cast<unsigned>(sim_mem.read(where, 1)));
      out.detail = buf;
    }
    report.outcomes.push_back(std::move(out));
  }
  return report;
}

std::string to_string(const DiffReport& report) {
  std::ostringstream os;
  if (!report.ref_completed) {
    os << report.workload << ": REFERENCE FAILED: " << report.ref_error << "\n";
    return os.str();
  }
  for (const DiffOutcome& o : report.outcomes) {
    char line[256];
    std::snprintf(line, sizeof(line), "%-8s %-18s %-4s%s%s\n", o.workload.c_str(),
                  o.label.c_str(), o.ok() ? "ok" : "FAIL",
                  o.detail.empty() ? "" : "  ", o.detail.c_str());
    os << line;
  }
  return os.str();
}

}  // namespace sndp
