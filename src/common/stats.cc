#include "common/stats.h"

#include <sstream>
#include <stdexcept>

namespace sndp {

double StatSet::get(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::out_of_range("StatSet: no stat named '" + name + "'");
  }
  return it->second;
}

double StatSet::get_or(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

double StatSet::sum_matching(const std::string& prefix, const std::string& suffix) const {
  double total = 0.0;
  // values_ is ordered; restrict the scan to keys starting with prefix.
  for (auto it = values_.lower_bound(prefix); it != values_.end(); ++it) {
    const std::string& key = it->first;
    if (key.compare(0, prefix.size(), prefix) != 0) break;
    if (key.size() >= prefix.size() + suffix.size() &&
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += it->second;
    }
  }
  return total;
}

std::string StatSet::to_string() const {
  std::ostringstream os;
  for (const auto& [name, value] : values_) {
    os << name << " = " << value << "\n";
  }
  return os.str();
}

void Distribution::export_to(StatSet& out, const std::string& name) const {
  out.set(name + ".count", static_cast<double>(count_));
  out.set(name + ".sum", sum_);
  out.set(name + ".mean", mean());
  out.set(name + ".min", min());
  out.set(name + ".max", max());
}

}  // namespace sndp
