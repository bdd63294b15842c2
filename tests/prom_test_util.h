// Strict Prometheus text-format parser shared by the scrape tests
// (tests/exposition_test.cc, tests/tcp_server_test.cc). It accepts exactly
// the subset obs::PrometheusText emits and validates it while parsing, so a
// scrape that parses is a scrape an external Prometheus would accept.
#ifndef MISSL_TESTS_PROM_TEST_UTIL_H_
#define MISSL_TESTS_PROM_TEST_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace missl::testutil {

/// One Prometheus histogram family parsed back from exposition text:
/// cumulative (le, count) pairs in exposition order, +Inf last.
struct PromHistogram {
  std::vector<std::pair<double, int64_t>> buckets;
  int64_t count = 0;
  int64_t sum = 0;
};

/// Parses `text` and validates it while doing so: every sample must be
/// preceded by its "# TYPE" line, families and scalar samples appear once,
/// histogram buckets have strictly increasing bounds, cumulative-monotone
/// counts and a final le="+Inf" equal to _count. Counters and gauges land in
/// *scalars, histograms in *histograms (either may be null to skip). Returns
/// false on the first malformed or inconsistent line.
inline bool ParsePrometheusText(
    const std::string& text, std::map<std::string, double>* scalars,
    std::map<std::string, PromHistogram>* histograms) {
  // The name with a trailing `suffix` removed; empty when absent.
  auto strip_suffix = [](const std::string& name, const char* suffix) {
    size_t n = std::strlen(suffix);
    if (name.size() <= n || name.compare(name.size() - n, n, suffix) != 0) {
      return std::string();
    }
    return name.substr(0, name.size() - n);
  };
  std::map<std::string, std::string> types;  // family -> counter|gauge|histogram
  std::map<std::string, PromHistogram> hists;
  std::map<std::string, double> vals;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // The exporter only emits "# TYPE <name> <type>" comments.
      if (line.rfind("# TYPE ", 0) != 0) return false;
      std::string rest = line.substr(7);
      size_t sp = rest.find(' ');
      if (sp == std::string::npos) return false;
      std::string name = rest.substr(0, sp);
      std::string type = rest.substr(sp + 1);
      if (type != "counter" && type != "gauge" && type != "histogram") {
        return false;
      }
      if (types.count(name) != 0) return false;  // duplicate family
      types[name] = type;
      continue;
    }
    // Sample line: name[{labels}] SP value
    size_t brace = line.find('{');
    size_t name_end = std::min(brace, line.find(' '));
    if (name_end == 0 || name_end == std::string::npos) return false;
    std::string name = line.substr(0, name_end);
    std::string le;
    size_t value_at;
    if (brace != std::string::npos && brace == name_end) {
      size_t close = line.find('}', brace);
      if (close == std::string::npos || close + 2 > line.size() ||
          line[close + 1] != ' ') {
        return false;
      }
      std::string labels = line.substr(brace + 1, close - brace - 1);
      if (labels.rfind("le=\"", 0) != 0 || labels.size() < 5 ||
          labels.back() != '"') {
        return false;  // the exporter only emits the le label
      }
      le = labels.substr(4, labels.size() - 5);
      value_at = close + 2;
    } else {
      value_at = name_end + 1;
    }
    if (value_at >= line.size()) return false;
    char* end = nullptr;
    std::string value_str = line.substr(value_at);
    double value = std::strtod(value_str.c_str(), &end);
    if (end == value_str.c_str() || *end != '\0') return false;

    if (!le.empty()) {
      std::string base = strip_suffix(name, "_bucket");
      if (base.empty() || types.count(base) == 0 ||
          types[base] != "histogram") {
        return false;
      }
      double bound;
      if (le == "+Inf") {
        bound = std::numeric_limits<double>::infinity();
      } else {
        char* lend = nullptr;
        bound = std::strtod(le.c_str(), &lend);
        if (lend == le.c_str() || *lend != '\0') return false;
      }
      PromHistogram& h = hists[base];
      // Cumulative-monotone in exposition order, strictly increasing bounds.
      if (!h.buckets.empty() &&
          (bound <= h.buckets.back().first ||
           static_cast<int64_t>(value) < h.buckets.back().second)) {
        return false;
      }
      h.buckets.emplace_back(bound, static_cast<int64_t>(value));
      continue;
    }
    if (std::string b = strip_suffix(name, "_sum");
        !b.empty() && types.count(b) != 0 && types[b] == "histogram") {
      hists[b].sum = static_cast<int64_t>(value);
      continue;
    }
    if (std::string b = strip_suffix(name, "_count");
        !b.empty() && types.count(b) != 0 && types[b] == "histogram") {
      hists[b].count = static_cast<int64_t>(value);
      continue;
    }
    if (types.count(name) == 0 || types[name] == "histogram") {
      return false;  // scalar sample without a matching TYPE line
    }
    if (vals.count(name) != 0) return false;  // duplicate sample
    vals[name] = value;
  }
  // Histogram consistency: a +Inf bucket exists and equals _count.
  for (const auto& [name, h] : hists) {
    if (h.buckets.empty() || !std::isinf(h.buckets.back().first) ||
        h.buckets.back().second != h.count) {
      return false;
    }
  }
  if (scalars != nullptr) *scalars = std::move(vals);
  if (histograms != nullptr) *histograms = std::move(hists);
  return true;
}

}  // namespace missl::testutil

#endif  // MISSL_TESTS_PROM_TEST_UTIL_H_
