#include "obs/op_stats.h"

#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace missl::obs {

const OpStats& OpStats::Get(const char* name) {
  // Leaked map so references handed to function-local statics stay valid
  // through static destruction (still reachable, LSan-clean).
  static std::mutex* mu = new std::mutex();
  static auto* stats = new std::map<std::string, std::unique_ptr<OpStats>>();
  std::lock_guard<std::mutex> l(*mu);
  auto it = stats->find(name);
  if (it == stats->end()) {
    MetricsRegistry& reg = MetricsRegistry::Global();
    std::string base = std::string("tensor.op.") + name;
    it = stats->emplace(name, nullptr).first;
    // The name pointer aliases the map key (stable in std::map), so OpStats
    // never dangles even if the caller's string was temporary.
    it->second.reset(new OpStats{{it->first.c_str(), "tensor_op"},
                                 {it->first.c_str(), "tensor_op.backward"},
                                 reg.GetCounter(base + ".calls"),
                                 reg.GetCounter(base + ".nanos"),
                                 reg.GetCounter(base + ".backward.calls"),
                                 reg.GetCounter(base + ".backward.nanos")});
  }
  return *it->second;
}

}  // namespace missl::obs
