// Chrome-trace (about://tracing, Perfetto) event writer.
//
// When `SystemConfig::trace_path` is set, the simulator records packet
// flights, the sampled requests' latency spans and the per-epoch counter
// tracks, and writes a JSON trace at the end of the run.  Rows (tids): one
// per HMC and one for the GPU, numbered like network nodes (a packet flight
// sits on its source node's row), then the Governor row that carries the
// epoch counters.  Load a trace with https://ui.perfetto.dev or
// chrome://tracing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace sndp {

class TraceWriter {
 public:
  // Complete ("X") event: [start_ps, start_ps + dur_ps) on row `tid`.
  void complete(const std::string& name, const std::string& category, int tid,
                TimePs start_ps, TimePs dur_ps);
  // Counter ("C") event: a named series sampled at `at_ps`.  Perfetto draws
  // one stacked chart per (name, tid) pair.
  void counter(const std::string& name, int tid, TimePs at_ps, double value);
  // Flow event: phase must be 's' (start), 't' (step) or 'f' (finish).
  // Events with the same `id` are drawn as one arrow chain between the
  // slices enclosing them; 'f' is emitted with "bp":"e" so it binds to the
  // enclosing slice's end.
  void flow(char phase, const std::string& name, const std::string& category, int tid,
            TimePs at_ps, std::uint64_t id);
  // Names a row in the viewer.
  void name_row(int tid, const std::string& name);

  std::size_t size() const { return events_.size(); }

  // Serializes to Chrome-trace JSON (timestamps in microseconds).
  std::string to_json() const;
  // Writes to `path`; returns false on I/O failure.
  bool write(const std::string& path) const;

  // Bound the trace to keep giant runs tractable; events past the cap are
  // dropped (counted in dropped()).
  void set_capacity(std::size_t cap) { capacity_ = cap; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  struct Event {
    char phase;  // 'X', 'C', or flow 's'/'t'/'f'
    std::string name;
    std::string category;
    int tid;
    TimePs start_ps;
    TimePs dur_ps;
    double value = 0.0;       // counter ('C') events only
    std::uint64_t flow_id = 0;  // flow ('s'/'t'/'f') events only
  };
  std::vector<Event> events_;
  std::vector<std::pair<int, std::string>> row_names_;
  std::size_t capacity_ = 2'000'000;
  std::uint64_t dropped_ = 0;
};

}  // namespace sndp
