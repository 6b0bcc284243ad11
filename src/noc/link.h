// A unidirectional off-chip link modeled as a serialization server with two
// virtual channels: a control VC (small, latency-critical packets — memory
// requests, offload commands, credits, acks) that preempts the data VC, and
// a data VC (bulk line fills, RDF responses, write data) that observes all
// previously reserved bandwidth.  Control packets are a tiny fraction of
// the bytes, so preemptive priority is a faithful approximation of
// flit-interleaved VCs without per-flit simulation.
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/types.h"
#include "common/units.h"

namespace sndp {

// Priority tiers, highest first: kUrgent (offload commands, acks, credits —
// latency determines the credit-recycle rate of §4.3), kControl (memory and
// RDF/WTA requests), kBulk (line fills, RDF responses, write data).
enum class LinkTier : std::uint8_t { kUrgent, kControl, kBulk };

class Link {
 public:
  Link(double gb_per_s, TimePs propagation_ps)
      : gb_per_s_(gb_per_s), propagation_ps_(propagation_ps) {}

  // Transmit `bytes` starting no earlier than `earliest`.
  // Returns the arrival time at the far end.  When `wait_ps` is non-null it
  // receives the time spent waiting for the tier to free up (start −
  // earliest) — the queueing share of the traversal for latency tracing;
  // the remainder of (arrival − earliest) is serialization + propagation.
  TimePs transmit(TimePs earliest, std::uint32_t bytes, LinkTier tier = LinkTier::kBulk,
                  TimePs* wait_ps = nullptr) {
    const TimePs ser = serialize_ps(bytes, gb_per_s_);
    TimePs start;
    switch (tier) {
      case LinkTier::kUrgent:
        start = std::max(earliest, urgent_free_at_);
        urgent_free_at_ = start + ser;
        ctrl_free_at_ = std::max(ctrl_free_at_, start) + ser;
        bulk_free_at_ = std::max(bulk_free_at_, start) + ser;
        break;
      case LinkTier::kControl:
        start = std::max(earliest, ctrl_free_at_);
        ctrl_free_at_ = start + ser;
        bulk_free_at_ = std::max(bulk_free_at_, start) + ser;
        break;
      case LinkTier::kBulk:
      default:
        start = std::max(earliest, bulk_free_at_);
        bulk_free_at_ = start + ser;
        break;
    }
    bytes_transmitted_ += bytes;
    if (wait_ps != nullptr) *wait_ps = start - earliest;
    return start + ser + propagation_ps_;
  }

  TimePs free_at() const { return bulk_free_at_; }
  std::uint64_t bytes_transmitted() const { return bytes_transmitted_; }

 private:
  double gb_per_s_;
  TimePs propagation_ps_;
  TimePs urgent_free_at_ = 0;
  TimePs ctrl_free_at_ = 0;
  TimePs bulk_free_at_ = 0;
  std::uint64_t bytes_transmitted_ = 0;
};

}  // namespace sndp
