#include "mem/cache.h"

#include <utility>

namespace sndp {

Cache::Cache(const CacheConfig& cfg, std::string name)
    : cfg_(cfg), name_(std::move(name)), num_sets_(cfg.num_sets()) {
  lines_.resize(static_cast<std::size_t>(num_sets_) * cfg_.ways);
  mshrs_.reserve(cfg_.mshr_entries);
}

unsigned Cache::set_of(Addr line_addr) const {
  return static_cast<unsigned>((line_addr / cfg_.line_bytes) % num_sets_);
}

Cache::Line* Cache::find_line(Addr line_addr) {
  const unsigned set = set_of(line_addr);
  Line* base = &lines_[static_cast<std::size_t>(set) * cfg_.ways];
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    if (base[w].valid && base[w].tag == line_addr) return &base[w];
  }
  return nullptr;
}

CacheAccessResult Cache::access_read(Addr line_addr, std::uint64_t token) {
  if (Line* line = find_line(line_addr)) {
    line->lru = ++stamp_;
    ++hits;
    return CacheAccessResult::kHit;
  }
  for (Mshr& m : mshrs_) {
    if (m.line_addr == line_addr) {
      m.waiters.push_back(token);
      ++merged_misses;
      return CacheAccessResult::kMissMerged;
    }
  }
  if (mshrs_.size() >= cfg_.mshr_entries) {
    ++mshr_stalls;
    return CacheAccessResult::kMshrFull;
  }
  mshrs_.push_back(Mshr{line_addr, {token}});
  ++misses;
  return CacheAccessResult::kMissNew;
}

bool Cache::probe(Addr line_addr) {
  if (Line* line = find_line(line_addr)) {
    line->lru = ++stamp_;
    ++hits;
    return true;
  }
  ++misses;
  return false;
}

bool Cache::write_touch(Addr line_addr) {
  if (Line* line = find_line(line_addr)) {
    line->lru = ++stamp_;
    ++write_hits;
    return true;
  }
  ++write_misses;
  return false;
}

std::vector<std::uint64_t> Cache::fill(Addr line_addr) {
  std::vector<std::uint64_t> waiters;
  for (auto it = mshrs_.begin(); it != mshrs_.end(); ++it) {
    if (it->line_addr == line_addr) {
      waiters = std::move(it->waiters);
      mshrs_.erase(it);
      break;
    }
  }
  // Install, unless it raced with an earlier fill of the same line.
  if (!find_line(line_addr)) {
    const unsigned set = set_of(line_addr);
    Line* base = &lines_[static_cast<std::size_t>(set) * cfg_.ways];
    Line* victim = &base[0];
    for (unsigned w = 0; w < cfg_.ways; ++w) {
      if (!base[w].valid) {
        victim = &base[w];
        break;
      }
      if (base[w].lru < victim->lru) victim = &base[w];
    }
    if (victim->valid) ++evictions;
    victim->valid = true;
    victim->tag = line_addr;
    victim->lru = ++stamp_;
  }
  return waiters;
}

bool Cache::invalidate(Addr line_addr) {
  if (Line* line = find_line(line_addr)) {
    line->valid = false;
    ++invalidations;
    return true;
  }
  return false;
}

void Cache::export_stats(StatSet& out) const {
  out.set(name_ + ".hits", static_cast<double>(hits));
  out.set(name_ + ".misses", static_cast<double>(misses));
  out.set(name_ + ".merged_misses", static_cast<double>(merged_misses));
  out.set(name_ + ".mshr_stalls", static_cast<double>(mshr_stalls));
  out.set(name_ + ".evictions", static_cast<double>(evictions));
  out.set(name_ + ".invalidations", static_cast<double>(invalidations));
  out.set(name_ + ".write_hits", static_cast<double>(write_hits));
  out.set(name_ + ".write_misses", static_cast<double>(write_misses));
}

}  // namespace sndp
