#include "mem/vault.h"

#include <stdexcept>

namespace sndp {

VaultController::VaultController(const HmcConfig& cfg, std::uint64_t dram_khz,
                                 CompletionFn on_complete, unsigned tenants)
    : cfg_(cfg), dram_khz_(dram_khz), on_complete_(std::move(on_complete)) {
  banks_.resize(cfg_.banks_per_vault);
  cyc_.init(tenants);
}

void VaultController::enqueue(const DramRequest& req) {
  if (!can_accept()) throw std::logic_error("VaultController: enqueue past capacity");
  queue_.push_back(req);
}

void VaultController::bill_cycle(const DramRequest& req, VaultBucket bucket) {
  ++counted_cycles_;
  const unsigned row = req.page_copy ? cyc_.shared_row() : req.tenant;
  cyc_.add(row, static_cast<std::size_t>(bucket), 1);
}

void VaultController::finalize(Cycle end_cycle) {
  if (end_cycle > counted_cycles_) {
    cyc_.add(cyc_.shared_row(), static_cast<std::size_t>(VaultBucket::kIdle),
             end_cycle - counted_cycles_);
    counted_cycles_ = end_cycle;
  }
}

void VaultController::tick(Cycle cycle, TimePs now) {
  // Deliver finished bursts.
  while (completed_.ready(now)) {
    const TimePs done_ps = completed_.front_ready_ps();
    const DramRequest req = completed_.pop();
    on_complete_(req, done_ps);
  }

  if (queue_.empty()) return;

  const DramTiming& t = cfg_.timing;

  // Single FR-FCFS scan.  Look for the oldest request whose bank has its
  // row open and can CAS (the old "pass 1"); while scanning, remember the
  // oldest request that could make *state* progress instead — activate a
  // closed bank or precharge a conflicting row (the old "pass 2") — so the
  // queue is walked at most once per cycle.  One command per cycle per
  // vault; pick order is identical to the two-pass version.
  const bool bus_ready = cycle >= bus_free_;
  std::size_t pick = queue_.size();
  enum class StateOp { kNone, kActivate, kPrecharge };
  StateOp fallback = StateOp::kNone;
  std::size_t fb = 0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    DramBank& bank = banks_[queue_[i].coord.bank];
    if (bank.row_open(queue_[i].coord.row)) {
      if (bus_ready && bank.can_cas(cycle)) {
        pick = i;
        break;
      }
      // Row open and matching but CAS-blocked: wait.
    } else if (fallback == StateOp::kNone) {
      if (bank.closed()) {
        if (bank.can_activate(cycle)) {
          fallback = StateOp::kActivate;
          fb = i;
        }
      } else if (bank.can_precharge(cycle)) {
        fallback = StateOp::kPrecharge;
        fb = i;
      }
    }
  }

  if (pick < queue_.size()) {
    // Issue the CAS and retire the request with an order-preserving
    // compaction (shift the tail left) instead of a vector middle-erase.
    DramRequest req = queue_[pick];
    std::move(queue_.begin() + static_cast<std::ptrdiff_t>(pick) + 1, queue_.end(),
              queue_.begin() + static_cast<std::ptrdiff_t>(pick));
    queue_.pop_back();
    DramBank& bank = banks_[req.coord.bank];
    bank.cas(cycle, req.is_write, t);
    bill_cycle(req, req.page_copy ? VaultBucket::kPageCopy : VaultBucket::kService);
    bus_free_ = cycle + t.tCCD;
    const Cycle done_cycle = req.is_write ? cycle + t.tBURST : cycle + t.tCL + t.tBURST;
    const TimePs done_ps = tick_time_ps(done_cycle, dram_khz_);
    if (req.is_write) ++writes; else ++reads;
    queue_latency_ps.record(static_cast<double>(done_ps - req.enqueue_ps));
    completed_.push(req, done_ps);
    return;
  }

  if (fallback == StateOp::kActivate) {
    banks_[queue_[fb].coord.bank].activate(cycle, queue_[fb].coord.row, t);
    ++activates;
    ++row_misses;
    bill_cycle(queue_[fb],
               queue_[fb].page_copy ? VaultBucket::kPageCopy : VaultBucket::kService);
  } else if (fallback == StateOp::kPrecharge) {
    banks_[queue_[fb].coord.bank].precharge(cycle, t);
    ++precharges;
    bill_cycle(queue_[fb],
               queue_[fb].page_copy ? VaultBucket::kPageCopy : VaultBucket::kService);
  } else {
    // No command issuable this edge (CAS/activate/precharge all timing- or
    // bus-blocked) with requests waiting: the queue is the bottleneck.  The
    // oldest request defines the wait.
    bill_cycle(queue_[0], VaultBucket::kQueueBound);
  }
}

}  // namespace sndp
