// Statistics registry: named counters and simple distributions.
//
// Components own their counters as plain uint64/double members for speed and
// export them into a StatSet at the end of a run; the StatSet provides the
// uniform view that benches print and tests assert on.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sndp {

// A flat, ordered name -> value map.  Values are doubles (counters fit
// exactly up to 2^53, far beyond any counter in our runs).
class StatSet {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  void add(const std::string& name, double value) { values_[name] += value; }

  bool contains(const std::string& name) const { return values_.count(name) != 0; }
  double get(const std::string& name) const;
  // Returns `fallback` when missing instead of throwing.
  double get_or(const std::string& name, double fallback) const;

  const std::map<std::string, double>& values() const { return values_; }

  // Sum of all stats whose name matches "prefix*suffix" with a single '*'
  // wildcard standing for any infix (used to aggregate per-SM counters).
  double sum_matching(const std::string& prefix, const std::string& suffix) const;

  std::string to_string() const;

 private:
  std::map<std::string, double> values_;
};

// Streaming distribution: count / sum / min / max, O(1) memory.
class Distribution {
 public:
  void record(double v) {
    if (count_ == 0 || v < min_) min_ = v;
    if (count_ == 0 || v > max_) max_ = v;
    sum_ += v;
    ++count_;
  }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  void export_to(StatSet& out, const std::string& name) const;

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0, min_ = 0.0, max_ = 0.0;
};

}  // namespace sndp
