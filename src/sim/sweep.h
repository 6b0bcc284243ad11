// Parallel experiment sweep runner.
//
// The paper's evaluation (Figs. 5-11, Tables 1-2) is a grid of independent
// (SystemConfig, workload) simulations; each point, one kernel or a tenant
// mix, is one `Simulator::run_tenants` call that owns all of its state, so
// the grid is embarrassingly parallel.  SweepRunner executes
// the points on a thread pool and guarantees that the results — including
// every StatSet counter — are byte-identical to a serial run:
//
//   * each point's seed is a pure function of the point itself (the
//     caller-set `cfg.placement_seed`), never of execution order or thread
//     identity;
//   * outcomes are stored by submission index, so iteration order is the
//     submission order regardless of which worker finished first;
//   * the only nondeterministic fields (wall-clock timing, timeout flags)
//     are segregated into SweepOutcome metadata and the "timing" object of
//     the JSON export, never into RunResult/StatSet.
//
// Per-point wall-clock timeouts are implemented with Simulator's abort
// poll: a timed-out point is marked `timed_out` and its partial result has
// `aborted == true`.  A point whose Simulator throws is recorded in
// `error` instead of tearing down the whole sweep.
//
// Typical use (see bench/bench_util.h):
//
//   SweepRunner runner({.jobs = 4});
//   auto i = runner.add({.id = "VADD/dyn", .tenants = {{"VADD"}}, .cfg = cfg});
//   auto m = runner.add({.id = "mix", .tenants = {{"BFS", 2.0}, {"VADD"}}, .cfg = cfg});
//   runner.run();
//   const RunResult& r = runner.result(i);
//   write_sweep_json("out.json", runner.outcomes());
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

namespace sndp {

// One tenant of a sweep point: a workload name plus its arbiter inputs
// (weight for kWeightedShare, priority for kStrictPriority; see TenantJob).
struct TenantSpec {
  std::string name;
  double weight = 1.0;
  unsigned priority = 0;
};

struct SweepPoint {
  std::string id;  // unique human-readable label, e.g. "fig09/VADD/static0.4"
  std::vector<TenantSpec> tenants;  // one entry: a classic single-kernel run
  ProblemScale scale = ProblemScale::kSmall;
  SystemConfig cfg{};

  // The tenant names joined by '+' ("VADD", "BFS+VADD+KMN"): the run's name
  // in RunResult::workload and the JSON "workload" key.
  std::string workload() const;
};

struct SweepOutcome {
  SweepPoint point;
  RunResult result;
  bool ran = false;       // the simulator produced a result (even if aborted)
  bool timed_out = false; // the per-point wall-clock timeout fired
  std::string error;      // non-empty: the simulator threw
  double wall_seconds = 0.0;  // timing metadata; excluded from determinism
};

struct SweepOptions {
  unsigned jobs = 1;            // worker threads; 0 = hardware_concurrency
  double point_timeout_s = 0.0; // wall-clock budget per point; 0 = unlimited
  bool progress = false;        // live progress line on stderr
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions opts = {}) : opts_(opts) {}

  // Queues a point; returns its index.  Points run in submission order
  // under jobs == 1.
  std::size_t add(SweepPoint point);

  std::size_t size() const { return points_.size(); }

  // Executes every queued point; returns the outcomes in submission order.
  // Safe to call once.
  const std::vector<SweepOutcome>& run();

  const std::vector<SweepOutcome>& outcomes() const { return outcomes_; }
  const SweepOutcome& outcome(std::size_t index) const { return outcomes_.at(index); }

  // The RunResult for a point; throws std::runtime_error (with the point id
  // and the recorded error) if the point failed to run.
  const RunResult& result(std::size_t index) const;

 private:
  void run_point(std::size_t index);

  SweepOptions opts_;
  std::vector<SweepPoint> points_;
  std::vector<SweepOutcome> outcomes_;
  bool ran_ = false;
};

// Serializes sweep outcomes to the sndp-sweep-v1 JSON document: one entry
// per point with identity, completion flags, headline metrics, the energy
// breakdown, and the full StatSet counter map.  Wall-clock data lives under
// the per-point "timing" key and the top-level "meta" key so consumers can
// strip it when diffing serial vs parallel runs.
std::string sweep_to_json(const std::vector<SweepOutcome>& outcomes, unsigned jobs);

// Writes sweep_to_json() to `path`; returns false on I/O failure.
bool write_sweep_json(const std::string& path, const std::vector<SweepOutcome>& outcomes,
                      unsigned jobs);

}  // namespace sndp
