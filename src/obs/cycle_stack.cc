#include "obs/cycle_stack.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/stats.h"

namespace sndp {

const char* sm_bucket_name(SmBucket b) {
  switch (b) {
    case SmBucket::kIssue: return "issue";
    case SmBucket::kExecBusy: return "exec_busy";
    case SmBucket::kCreditWait: return "credit_wait";
    case SmBucket::kDepPipe: return "dep_pipe";
    case SmBucket::kDepL1: return "dep_l1";
    case SmBucket::kDepL2: return "dep_l2";
    case SmBucket::kDepDramLocal: return "dep_dram_local";
    case SmBucket::kDepDramRemote: return "dep_dram_remote";
    case SmBucket::kDepPending: return "dep_pending";
    case SmBucket::kOfldParked: return "ofld_parked";
    case SmBucket::kBarrier: return "barrier";
    case SmBucket::kWarpDrain: return "warp_drain";
    case SmBucket::kDispatchIdle: return "dispatch_idle";
    case SmBucket::kDrained: return "drained";
    case SmBucket::kCount: break;
  }
  return "?";
}

SmBucketGroup sm_bucket_group(SmBucket b) {
  switch (b) {
    case SmBucket::kIssue:
      return SmBucketGroup::kIssue;
    case SmBucket::kExecBusy:
    case SmBucket::kCreditWait:
      return SmBucketGroup::kExecBusy;
    case SmBucket::kDepPipe:
    case SmBucket::kDepL1:
    case SmBucket::kDepL2:
    case SmBucket::kDepDramLocal:
    case SmBucket::kDepDramRemote:
    case SmBucket::kDepPending:
      return SmBucketGroup::kDep;
    case SmBucket::kOfldParked:
    case SmBucket::kBarrier:
    case SmBucket::kWarpDrain:
      return SmBucketGroup::kWarpIdle;
    case SmBucket::kDispatchIdle:
    case SmBucket::kDrained:
    case SmBucket::kCount:
      break;
  }
  return SmBucketGroup::kNoWarp;
}

std::uint64_t sm_group_total(const SmCycleStack& s, SmBucketGroup g) {
  std::uint64_t n = 0;
  for (std::size_t b = 0; b < kNumSmBuckets; ++b) {
    if (sm_bucket_group(static_cast<SmBucket>(b)) == g) n += s.bucket_total(b);
  }
  return n;
}

const char* nsu_bucket_name(NsuBucket b) {
  switch (b) {
    case NsuBucket::kExec: return "exec";
    case NsuBucket::kIngressStarved: return "ingress_starved";
    case NsuBucket::kQuotaBlocked: return "quota_blocked";
    case NsuBucket::kIdle: return "idle";
    case NsuBucket::kCount: break;
  }
  return "?";
}

const char* vault_bucket_name(VaultBucket b) {
  switch (b) {
    case VaultBucket::kService: return "service";
    case VaultBucket::kPageCopy: return "page_copy";
    case VaultBucket::kQueueBound: return "queue_bound";
    case VaultBucket::kIdle: return "idle";
    case VaultBucket::kCount: break;
  }
  return "?";
}

namespace {

template <std::size_t N>
void export_stack(const BucketStack<N>& stack, const char* component,
                  const char* (*name)(std::uint8_t), bool per_tenant,
                  StatSet& out) {
  const std::string base = std::string("cyc.") + component + ".";
  for (std::size_t b = 0; b < N; ++b) {
    out.set(base + name(static_cast<std::uint8_t>(b)),
            static_cast<double>(stack.bucket_total(b)));
  }
  out.set(base + "total", static_cast<double>(stack.total()));
  if (!per_tenant) return;
  for (std::size_t r = 0; r < stack.rows.size(); ++r) {
    const std::string row =
        r == stack.shared_row() ? std::string("cyc.shared.") + component + "."
                                : "cyc.t" + std::to_string(r) + "." +
                                      component + ".";
    for (std::size_t b = 0; b < N; ++b) {
      out.set(row + name(static_cast<std::uint8_t>(b)),
              static_cast<double>(stack.rows[r][b]));
    }
  }
}

const char* sm_name_u8(std::uint8_t b) {
  return sm_bucket_name(static_cast<SmBucket>(b));
}
const char* nsu_name_u8(std::uint8_t b) {
  return nsu_bucket_name(static_cast<NsuBucket>(b));
}
const char* vault_name_u8(std::uint8_t b) {
  return vault_bucket_name(static_cast<VaultBucket>(b));
}

const char* sm_group_label(SmBucketGroup g) {
  switch (g) {
    case SmBucketGroup::kIssue: return "issue";
    case SmBucketGroup::kExecBusy: return "exec_busy";
    case SmBucketGroup::kDep: return "dep_wait";
    case SmBucketGroup::kWarpIdle: return "warp_idle";
    case SmBucketGroup::kNoWarp: return "no_warp";
  }
  return "?";
}

void append_line(std::string& out, int depth, const char* label,
                 std::uint64_t cycles, std::uint64_t total) {
  char buf[160];
  const double share =
      total ? 100.0 * static_cast<double>(cycles) / static_cast<double>(total)
            : 0.0;
  const double bound = whatif_bound(total, cycles);
  if (cycles == total && total != 0) {
    std::snprintf(buf, sizeof(buf), "%*s%-16s %14llu  %5.1f%%  ->0 => inf\n",
                  depth * 2, "", label,
                  static_cast<unsigned long long>(cycles), share);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "%*s%-16s %14llu  %5.1f%%  ->0 => <=%.2fx\n", depth * 2, "",
                  label, static_cast<unsigned long long>(cycles), share,
                  bound);
  }
  out += buf;
}

struct Leaf {
  const char* label;
  std::uint64_t cycles;
};

void append_leaves(std::string& out, int depth, std::vector<Leaf> leaves,
                   std::uint64_t total) {
  std::stable_sort(leaves.begin(), leaves.end(),
                   [](const Leaf& a, const Leaf& b) { return a.cycles > b.cycles; });
  for (const Leaf& l : leaves) append_line(out, depth, l.label, l.cycles, total);
}

}  // namespace

void export_cycle_stats(const CycleStackSummary& s, StatSet& out) {
  const bool per_tenant = s.tenants > 1;
  export_stack(s.sm, "sm", sm_name_u8, per_tenant, out);
  export_stack(s.nsu, "nsu", nsu_name_u8, per_tenant, out);
  export_stack(s.vault, "vault", vault_name_u8, per_tenant, out);
}

double whatif_bound(std::uint64_t total, std::uint64_t leaf) {
  if (total == 0 || leaf == 0) return 1.0;
  if (leaf >= total) return std::numeric_limits<double>::infinity();
  return static_cast<double>(total) / static_cast<double>(total - leaf);
}

std::string format_cycle_tree(const CycleStackSummary& s) {
  std::string out;
  char buf[160];

  // --- SM: grouped by the Fig. 8 counter each bucket refines. ---
  const std::uint64_t sm_total = s.sm.total();
  std::snprintf(buf, sizeof(buf), "sm  (%llu cycles over all SMs)\n",
                static_cast<unsigned long long>(sm_total));
  out += buf;
  static constexpr SmBucketGroup kGroups[] = {
      SmBucketGroup::kIssue, SmBucketGroup::kExecBusy, SmBucketGroup::kDep,
      SmBucketGroup::kWarpIdle, SmBucketGroup::kNoWarp};
  for (SmBucketGroup g : kGroups) {
    std::uint64_t group_cycles = 0;
    std::vector<Leaf> leaves;
    for (std::size_t b = 0; b < kNumSmBuckets; ++b) {
      const auto bucket = static_cast<SmBucket>(b);
      if (sm_bucket_group(bucket) != g) continue;
      const std::uint64_t c = s.sm.bucket_total(b);
      group_cycles += c;
      leaves.push_back({sm_bucket_name(bucket), c});
    }
    append_line(out, 1, sm_group_label(g), group_cycles, sm_total);
    if (leaves.size() > 1) append_leaves(out, 2, std::move(leaves), sm_total);
  }

  // --- NSU and vaults: flat. ---
  const std::uint64_t nsu_total = s.nsu.total();
  std::snprintf(buf, sizeof(buf), "nsu  (%llu cycles over all NSUs)\n",
                static_cast<unsigned long long>(nsu_total));
  out += buf;
  {
    std::vector<Leaf> leaves;
    for (std::size_t b = 0; b < kNumNsuBuckets; ++b)
      leaves.push_back({nsu_bucket_name(static_cast<NsuBucket>(b)),
                        s.nsu.bucket_total(b)});
    append_leaves(out, 1, std::move(leaves), nsu_total);
  }

  const std::uint64_t vault_total = s.vault.total();
  std::snprintf(buf, sizeof(buf), "vault  (%llu cycles over all vaults)\n",
                static_cast<unsigned long long>(vault_total));
  out += buf;
  {
    std::vector<Leaf> leaves;
    for (std::size_t b = 0; b < kNumVaultBuckets; ++b)
      leaves.push_back({vault_bucket_name(static_cast<VaultBucket>(b)),
                        s.vault.bucket_total(b)});
    append_leaves(out, 1, std::move(leaves), vault_total);
  }
  return out;
}

}  // namespace sndp
