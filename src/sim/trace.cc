#include "sim/trace.h"

#include <fstream>
#include <sstream>

#include "common/json.h"

namespace sndp {
namespace {

// Full JSON string escaping (shared with the sweep/stats writers): control
// characters in event or row names must not leak into the document raw, or
// Perfetto/chrome://tracing rejects the whole trace.
std::string escape(const std::string& s) { return json_escape(s); }

double us(TimePs ps) { return static_cast<double>(ps) * 1e-6; }

}  // namespace

void TraceWriter::complete(const std::string& name, const std::string& category, int tid,
                           TimePs start_ps, TimePs dur_ps) {
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(Event{'X', name, category, tid, start_ps, dur_ps});
}

void TraceWriter::counter(const std::string& name, int tid, TimePs at_ps, double value) {
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(Event{'C', name, "counter", tid, at_ps, 0, value});
}

void TraceWriter::flow(char phase, const std::string& name, const std::string& category, int tid,
                       TimePs at_ps, std::uint64_t id) {
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(Event{phase, name, category, tid, at_ps, 0, 0.0, id});
}

void TraceWriter::name_row(int tid, const std::string& name) {
  row_names_.emplace_back(tid, name);
}

std::string TraceWriter::to_json() const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [tid, name] : row_names_) {
    if (!first) os << ',';
    first = false;
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << escape(name) << "\"}}";
  }
  for (const Event& e : events_) {
    if (!first) os << ',';
    first = false;
    os << "{\"ph\":\"" << e.phase << "\",\"pid\":1,\"tid\":" << e.tid << ",\"name\":\""
       << escape(e.name) << "\",\"cat\":\"" << escape(e.category) << "\",\"ts\":" << us(e.start_ps);
    if (e.phase == 'X') os << ",\"dur\":" << us(e.dur_ps);
    // JsonWriter::number keeps NaN/Inf out of the document (they would make
    // the whole trace unparseable).
    if (e.phase == 'C') os << ",\"args\":{\"value\":" << JsonWriter::number(e.value) << '}';
    if (e.phase == 's' || e.phase == 't' || e.phase == 'f') {
      os << ",\"id\":" << e.flow_id;
      if (e.phase == 'f') os << ",\"bp\":\"e\"";
    }
    os << '}';
  }
  // Chrome-trace allows arbitrary top-level keys next to traceEvents; use
  // one to surface capacity drops so a truncated trace is diagnosable from
  // the file itself.
  os << "],\"metadata\":{\"emitted_events\":" << events_.size()
     << ",\"dropped_events\":" << dropped_ << "}}";
  return os.str();
}

bool TraceWriter::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << to_json();
  return static_cast<bool>(out);
}

}  // namespace sndp
