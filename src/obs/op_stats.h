// Per-op instrumentation for the tensor dispatch layer: each named op entry
// point opens an OpScope that counts the call and its wall time into the
// metrics registry ("tensor.op.<Name>.calls" / ".nanos") and, while a
// tracing session is open (obs/trace.h), records a span on the calling
// thread's track.
//
// With metrics and tracing both disabled the scope is two predictable
// branches and no clock reads — cheap enough to sit on every op, including
// the elementwise ones.
#ifndef MISSL_OBS_OP_STATS_H_
#define MISSL_OBS_OP_STATS_H_

#include "obs/metrics.h"
#include "obs/trace.h"

namespace missl::obs {

/// Cached instrument pair for one op name. Get interns by name and returns
/// a process-lifetime reference; call sites hold it in a function-local
/// static so the registry lock is paid once per site.
struct OpStats {
  SpanSite site;  ///< {op name, "tensor_op"}
  Counter& calls;
  Counter& nanos;

  static const OpStats& Get(const char* name);
};

/// RAII scope doing the actual counting; see file comment.
class OpScope {
 public:
  explicit OpScope(const OpStats& stats) {
    if (MetricsEnabled() || TracingEnabled()) {
      stats_ = &stats;
      start_ = NowNanos();
    }
  }
  ~OpScope() {
    if (stats_ == nullptr) return;
    int64_t dur = NowNanos() - start_;
    stats_->calls.Add(1);
    stats_->nanos.Add(dur);
    if (TracingEnabled()) RecordSpan(stats_->site, start_, dur);
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  const OpStats* stats_ = nullptr;
  int64_t start_ = 0;
};

}  // namespace missl::obs

/// Opens an instrumentation scope for the enclosing op. One use per scope.
#define MISSL_OP_SCOPE(op_name)                       \
  static const ::missl::obs::OpStats& missl_op_stats_ = \
      ::missl::obs::OpStats::Get(op_name);              \
  ::missl::obs::OpScope missl_op_scope_(missl_op_stats_)

#endif  // MISSL_OBS_OP_STATS_H_
