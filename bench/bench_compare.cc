// Regression diff between two perf_throughput result files.
//
//   bench_compare BASELINE.json CURRENT.json [--cycles-threshold PCT]
//                 [--time-threshold PCT]
//
// Both inputs are `perf_throughput --stats-json` output (sndp-bench-v1, e.g.
// the committed BENCH_sim_throughput.json).  Rows are matched by
// workload/mode.  A row regresses when
//
//   * sim_cycles grows by more than --cycles-threshold percent (default 0:
//     simulated cycles are deterministic, so any growth is a real model
//     change and must be acknowledged by refreshing the baseline), or
//   * wall_ff_s grows by more than --time-threshold percent (default 50:
//     wall clock is machine- and load-dependent, so only large slowdowns are
//     flagged).
//
// Prints one line per changed row and exits 1 when any regression was
// flagged, 0 otherwise (missing rows in CURRENT also flag).  Input that
// cannot be compared exits 2 with a diagnostic: malformed JSON (including
// arrays/objects nested deeper than kMaxDepth), a row without a numeric
// sim_cycles or wall_ff_s, a baseline with no rows, or two files recording
// different problem scales (tiny-scale smoke rows against a small-scale
// baseline).  Intended as a non-gating CI step: the exit code marks a change
// for a human look, not a hard failure.
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse.h"

namespace {

// Minimal JSON reader for the fixed sndp-bench-v1 shape.  Numbers are kept
// as doubles (sim_cycles fits a double exactly below 2^53).  The reader
// recurses once per nesting level, so the depth is bounded; sndp-bench-v1
// needs three levels.
constexpr int kMaxDepth = 64;

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* find(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(JsonValue* out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return pos_ == s_.size();
  }
  bool too_deep() const { return too_deep_; }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool value(JsonValue* out) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxDepth) {
        too_deep_ = true;
        return false;
      }
      ++depth_;
      const bool ok = c == '{' ? object(out) : array(out);
      --depth_;
      return ok;
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return string(&out->str);
    }
    if (c == 't') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return literal("true");
    }
    if (c == 'f') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return literal("false");
    }
    if (c == 'n') return literal("null");
    return number(out);
  }
  bool number(JsonValue* out) {
    const char* start = s_.c_str() + pos_;
    char* end = nullptr;
    out->number = std::strtod(start, &end);
    if (end == start) return false;
    out->kind = JsonValue::Kind::kNumber;
    pos_ += static_cast<std::size_t>(end - start);
    return true;
  }
  bool string(std::string* out) {
    if (s_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        const char esc = s_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            // Escaped code points never appear in the keys/ids this tool
            // compares; keep the raw digits rather than decoding.
            out->push_back('u');
            continue;
          default: c = esc; break;
        }
      }
      out->push_back(c);
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool array(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue v;
      if (!value(&v)) return false;
      out->array.push_back(std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool object(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!string(&key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      JsonValue v;
      if (!value(&v)) return false;
      out->object.emplace(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  bool too_deep_ = false;
};

struct BenchRow {
  double sim_cycles = 0.0;
  double wall_ff_s = 0.0;
};

bool load_rows(const char* path, std::map<std::string, BenchRow>* rows,
               std::string* scale) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_compare: cannot open '%s'\n", path);
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  JsonValue root;
  JsonParser parser(text);
  if (!parser.parse(&root) || root.kind != JsonValue::Kind::kObject) {
    if (parser.too_deep()) {
      std::fprintf(stderr, "bench_compare: '%s' nests deeper than %d levels\n", path,
                   kMaxDepth);
    } else {
      std::fprintf(stderr, "bench_compare: '%s' is not valid JSON\n", path);
    }
    return false;
  }
  const JsonValue* schema = root.find("schema");
  if (schema == nullptr || schema->str != "sndp-bench-v1") {
    std::fprintf(stderr, "bench_compare: '%s' is not sndp-bench-v1\n", path);
    return false;
  }
  if (const JsonValue* s = root.find("scale")) *scale = s->str;
  const JsonValue* arr = root.find("rows");
  if (arr == nullptr || arr->kind != JsonValue::Kind::kArray) {
    std::fprintf(stderr, "bench_compare: '%s' has no rows array\n", path);
    return false;
  }
  // A compared field must be present and a number.
  auto number = [path](const JsonValue& row, const std::string& id, const char* key,
                       double* out) {
    const JsonValue* v = row.find(key);
    if (v == nullptr || v->kind != JsonValue::Kind::kNumber) {
      std::fprintf(stderr, "bench_compare: '%s' row %s: %s is missing or not a number\n",
                   path, id.c_str(), key);
      return false;
    }
    *out = v->number;
    return true;
  };
  for (std::size_t i = 0; i < arr->array.size(); ++i) {
    const JsonValue& r = arr->array[i];
    const JsonValue* wl = r.find("workload");
    const JsonValue* mode = r.find("mode");
    if (wl == nullptr || mode == nullptr) {
      std::fprintf(stderr, "bench_compare: '%s' row %zu has no workload/mode\n", path, i);
      return false;
    }
    const std::string id = wl->str + "/" + mode->str;
    BenchRow row;
    if (!number(r, id, "sim_cycles", &row.sim_cycles) ||
        !number(r, id, "wall_ff_s", &row.wall_ff_s)) {
      return false;
    }
    (*rows)[id] = row;
  }
  return true;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s BASELINE.json CURRENT.json [--cycles-threshold PCT] "
               "[--time-threshold PCT]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  const char* current_path = nullptr;
  double cycles_pct = 0.0;
  double time_pct = 50.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--cycles-threshold" && i + 1 < argc) {
      cycles_pct = sndp::parse_flag(argv[0], a, argv[++i], 0.0);
    } else if (a == "--time-threshold" && i + 1 < argc) {
      time_pct = sndp::parse_flag(argv[0], a, argv[++i], 0.0);
    } else if (baseline_path == nullptr) {
      baseline_path = argv[i];
    } else if (current_path == nullptr) {
      current_path = argv[i];
    } else {
      usage(argv[0]);
    }
  }
  if (baseline_path == nullptr || current_path == nullptr) usage(argv[0]);

  std::map<std::string, BenchRow> base, cur;
  std::string base_scale, cur_scale;
  if (!load_rows(baseline_path, &base, &base_scale) ||
      !load_rows(current_path, &cur, &cur_scale)) {
    return 2;
  }
  // An empty baseline would pass every comparison vacuously.
  if (base.empty()) {
    std::fprintf(stderr, "bench_compare: baseline '%s' has no rows to compare\n",
                 baseline_path);
    return 2;
  }
  // Rows are only comparable at the same problem scale: a tiny-scale smoke
  // run against a small-scale baseline would flag every row.
  if (base_scale != cur_scale) {
    std::fprintf(stderr,
                 "bench_compare: scale mismatch (baseline '%s' vs current '%s'); "
                 "rows are not comparable\n",
                 base_scale.c_str(), cur_scale.c_str());
    return 2;
  }

  int regressions = 0;
  for (const auto& [id, b] : base) {
    const auto it = cur.find(id);
    if (it == cur.end()) {
      std::printf("MISSING  %-22s row absent from %s\n", id.c_str(), current_path);
      ++regressions;
      continue;
    }
    const BenchRow& c = it->second;
    const double cyc_delta_pct = b.sim_cycles > 0.0
        ? 100.0 * (c.sim_cycles - b.sim_cycles) / b.sim_cycles : 0.0;
    const double wall_delta_pct = b.wall_ff_s > 0.0
        ? 100.0 * (c.wall_ff_s - b.wall_ff_s) / b.wall_ff_s : 0.0;
    if (cyc_delta_pct > cycles_pct) {
      std::printf("CYCLES   %-22s %12.0f -> %12.0f  (%+.2f%% > %.2f%%)\n", id.c_str(),
                  b.sim_cycles, c.sim_cycles, cyc_delta_pct, cycles_pct);
      ++regressions;
    }
    if (wall_delta_pct > time_pct) {
      std::printf("TIME     %-22s %10.3fs -> %10.3fs  (%+.1f%% > %.1f%%)\n", id.c_str(),
                  b.wall_ff_s, c.wall_ff_s, wall_delta_pct, time_pct);
      ++regressions;
    }
  }
  if (regressions == 0) {
    std::printf("bench_compare: %zu rows, no regressions (cycles >%.2f%%, time >%.1f%%)\n",
                base.size(), cycles_pct, time_pct);
    return 0;
  }
  std::printf("bench_compare: %d regression%s flagged\n", regressions,
              regressions == 1 ? "" : "s");
  return 1;
}
