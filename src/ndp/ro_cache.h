// Optional NSU read-only cache (paper §7.1).
//
// The paper observes that BPROP's small cache-resident input structure is
// pushed over the GPU links on every offloaded instance and suggests "a
// small read-only cache to each NSU with minimal cost".  This models it:
// the GPU keeps a deterministic mirror of each NSU's read-only cache
// contents (the GPU sees every line it ships, so the mirror is exact); when
// an RDF cache-hit response would re-send a line the NSU already holds, a
// tiny reference packet is sent instead of the data.  Any store to a cached
// line invalidates it (the GPU also sees every store: it generates both the
// write-through traffic and the WTA addresses).
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/config.h"
#include "common/types.h"

namespace sndp {

class RoCacheMirror {
 public:
  // `line_bytes` sizes the per-NSU capacity in lines.
  RoCacheMirror(unsigned num_nsus, const NsuConfig& cfg, unsigned line_bytes)
      : enabled_(cfg.read_only_cache),
        capacity_(static_cast<unsigned>(cfg.read_only_cache_bytes / line_bytes)),
        nsus_(num_nsus) {}

  bool enabled() const { return enabled_; }

  // Returns true if `line` is already cached at `nsu` (LRU refresh);
  // otherwise inserts it (evicting LRU) and returns false.
  bool lookup_or_insert(unsigned nsu, Addr line) {
    if (!enabled_ || capacity_ == 0) return false;
    PerNsu& n = nsus_.at(nsu);
    auto it = n.index.find(line);
    if (it != n.index.end()) {
      n.lru.splice(n.lru.begin(), n.lru, it->second);
      ++hits_;
      return true;
    }
    if (n.lru.size() >= capacity_) {
      n.index.erase(n.lru.back());
      n.lru.pop_back();
    }
    n.lru.push_front(line);
    n.index[line] = n.lru.begin();
    ++fills_;
    return false;
  }

  // A store touched `line`: drop it from every NSU's cache (read-only data
  // must never go stale).
  void invalidate(Addr line) {
    if (!enabled_) return;
    for (PerNsu& n : nsus_) {
      auto it = n.index.find(line);
      if (it == n.index.end()) continue;
      n.lru.erase(it->second);
      n.index.erase(it);
      ++invalidations_;
    }
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t fills() const { return fills_; }
  std::uint64_t invalidations() const { return invalidations_; }

 private:
  struct PerNsu {
    std::list<Addr> lru;  // front = most recent
    std::unordered_map<Addr, std::list<Addr>::iterator> index;
  };

  bool enabled_;
  unsigned capacity_;
  std::vector<PerNsu> nsus_;
  std::uint64_t hits_ = 0;
  std::uint64_t fills_ = 0;
  std::uint64_t invalidations_ = 0;
};

}  // namespace sndp
