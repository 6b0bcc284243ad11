// Timing model of a set-associative cache with MSHRs.
//
// The simulator keeps functional data in GlobalMemory (write-through keeps
// memory always current), so the cache tracks tags + replacement state only.
// Used for both the per-SM L1D and the shared L2 slices.
//
// Policies (paper §5): write-through, no write-allocate, LRU.
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/stats.h"
#include "common/types.h"

namespace sndp {

enum class CacheAccessResult {
  kHit,         // line present
  kMissNew,     // miss, MSHR allocated — caller must send a fill request
  kMissMerged,  // miss, merged into an existing MSHR — no new request
  kMshrFull,    // structural stall: no MSHR available, retry later
};

class Cache {
 public:
  // `name` namespaces the exported stats.
  Cache(const CacheConfig& cfg, std::string name);

  // Read access for `line_addr` on behalf of `token` (an opaque requester
  // id returned by fill()).  Updates LRU on hit.
  CacheAccessResult access_read(Addr line_addr, std::uint64_t token);

  // Probe without side effects on the MSHRs (used for NDP RDF probes which
  // never fill the cache).  Updates LRU on hit.
  bool probe(Addr line_addr);

  // Write-through, no-allocate: refreshes LRU if the line is present.
  // Returns true if the line was present.
  bool write_touch(Addr line_addr);

  // A fill arrived for `line_addr`: install the line (evicting LRU) and
  // return the tokens of all merged waiters.
  std::vector<std::uint64_t> fill(Addr line_addr);

  // Coherence invalidation (NSU wrote DRAM underneath us).  Returns true if
  // a line was invalidated.
  bool invalidate(Addr line_addr);

  unsigned mshr_free() const { return cfg_.mshr_entries - static_cast<unsigned>(mshrs_.size()); }

  void export_stats(StatSet& out) const;

  // Counters (also exported via export_stats).
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;        // kMissNew only
  std::uint64_t merged_misses = 0;
  std::uint64_t mshr_stalls = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t write_misses = 0;

 private:
  struct Line {
    Addr tag = 0;
    bool valid = false;
    std::uint64_t lru = 0;  // last-touch stamp
  };
  struct Mshr {
    Addr line_addr;
    std::vector<std::uint64_t> waiters;
  };

  unsigned set_of(Addr line_addr) const;
  Line* find_line(Addr line_addr);

  CacheConfig cfg_;
  std::string name_;
  unsigned num_sets_;
  std::vector<Line> lines_;  // num_sets x ways
  std::vector<Mshr> mshrs_;
  std::uint64_t stamp_ = 0;
};

}  // namespace sndp
