#include "ref/placement_profile.h"

#include <unordered_map>
#include <vector>

#include "offload/analyzer.h"
#include "ref/ref_interp.h"

namespace sndp {
namespace {

// Per-warp instance tracking: which accepted block (if any) the warp's pc
// currently falls in, and the §4.1.1 target its current trip through that
// block voted for.
struct WarpProfileState {
  int block = -1;        // index into the accepted-block list, -1 = outside
  unsigned last_pc = 0;  // previous observed access pc (re-entry detection)
  HmcId target = 0;
  bool target_set = false;
};

}  // namespace

std::shared_ptr<const PlacementProfile> build_placement_profile(
    const Program& prog, const LaunchParams& launch, const GlobalMemory& initial,
    const SystemConfig& cfg) {
  auto profile = std::make_shared<PlacementProfile>();

  const AnalysisResult analysis = analyze(prog);
  if (analysis.accepted.empty()) return profile;  // nothing offloads: no votes

  const std::uint64_t page_bytes = cfg.page_bytes;
  const std::uint64_t seed = cfg.placement_seed;
  const unsigned num_hmcs = cfg.num_hmcs;

  // pc -> accepted-block index, for O(1) observer dispatch.
  std::unordered_map<unsigned, int> block_of_pc;
  for (std::size_t b = 0; b < analysis.accepted.size(); ++b) {
    const BlockCandidate& c = analysis.accepted[b];
    for (unsigned pc = c.begin; pc < c.end; ++pc) {
      block_of_pc.emplace(pc, static_cast<int>(b));
    }
  }

  // votes[page][stack] — lane accesses credited to the instance's target.
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> votes;
  std::unordered_map<std::uint64_t, WarpProfileState> warps;

  RefOptions opts;
  opts.mem_observer = [&](const RefMemAccess& a) {
    const auto bit = block_of_pc.find(a.pc);
    if (bit == block_of_pc.end()) return;  // access outside any offload block

    WarpProfileState& w = warps[a.warp_uid];
    // New instance: different block, or a loop brought the warp back to (or
    // before) its previous access in the same block.
    if (w.block != bit->second || a.pc <= w.last_pc) {
      w.block = bit->second;
      w.target_set = false;
    }
    w.last_pc = a.pc;

    if (!w.target_set) {
      // §4.1.1 target selection replayed under the random mapping the real
      // run starts from: majority page-home of the first access's lanes,
      // ties to the lowest stack (matching Sm's votes[h] > votes[best]).
      std::vector<unsigned> tv(num_hmcs, 0);
      for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
        if (!(a.lanes & (LaneMask{1} << lane))) continue;
        ++tv[random_page_home(a.addrs[lane] / page_bytes, seed, num_hmcs)];
      }
      unsigned best = 0;
      for (unsigned h = 1; h < num_hmcs; ++h) {
        if (tv[h] > tv[best]) best = h;
      }
      w.target = static_cast<HmcId>(best);
      w.target_set = true;
    }

    for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
      if (!(a.lanes & (LaneMask{1} << lane))) continue;
      auto& pv = votes[a.addrs[lane] / page_bytes];
      if (pv.empty()) pv.assign(num_hmcs, 0);
      ++pv[w.target];
      ++profile->votes;
    }
  };

  GlobalMemory scratch = initial;  // the pre-pass must not disturb the run
  ref_run(prog, launch, scratch, opts);

  for (const auto& [page, pv] : votes) {
    unsigned best = 0;
    for (unsigned h = 1; h < num_hmcs; ++h) {
      if (pv[h] > pv[best]) best = h;
    }
    profile->home.emplace(page, static_cast<HmcId>(best));
  }
  profile->pages_profiled = profile->home.size();
  return profile;
}

std::shared_ptr<const PlacementProfile> auto_placement_profile(
    std::size_t num_kernels, const Program& prog, const LaunchParams& launch,
    const GlobalMemory& initial, const SystemConfig& cfg) {
  if (num_kernels != 1 || cfg.placement.policy != PlacementPolicyKind::kLocality ||
      cfg.placement.locality_profile != nullptr) {
    return nullptr;
  }
  return build_placement_profile(prog, launch, initial, cfg);
}

}  // namespace sndp
