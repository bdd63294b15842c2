// Per-op instrumentation for the tensor dispatch layer: each named op entry
// point opens an OpScope that counts the call and its wall time into the
// metrics registry ("tensor.op.<Name>.calls" / ".nanos") and, while a
// tracing session is open (obs/trace.h), records a span on the calling
// thread's track. The scope also marks its op as the thread's current one,
// so the autograd node the op attaches remembers it, and Tensor::Backward
// counts that node's backward closure into "tensor.op.<Name>.backward.calls"
// / ".backward.nanos" while metrics are on, and records it as a span of
// category "tensor_op.backward" while a tracing session is open.
//
// With metrics and tracing both disabled the scope is two predictable
// branches, a thread-local pointer swap and no clock reads — cheap enough to
// sit on every op, including the elementwise ones.
#ifndef MISSL_OBS_OP_STATS_H_
#define MISSL_OBS_OP_STATS_H_

#include "obs/metrics.h"
#include "obs/trace.h"

namespace missl::obs {

/// Cached instrument pair for one op name. Get interns by name and returns
/// a process-lifetime reference; call sites hold it in a function-local
/// static so the registry lock is paid once per site.
struct OpStats {
  SpanSite site;           ///< {op name, "tensor_op"}
  SpanSite backward_site;  ///< {op name, "tensor_op.backward"}
  Counter& calls;
  Counter& nanos;
  Counter& backward_calls;
  Counter& backward_nanos;

  static const OpStats& Get(const char* name);
};

/// The op whose scope is innermost on this thread, or null outside every op.
inline thread_local const OpStats* t_current_op = nullptr;

/// RAII scope doing the actual counting; see file comment.
class OpScope {
 public:
  explicit OpScope(const OpStats& stats) : outer_(t_current_op) {
    t_current_op = &stats;
    if (MetricsEnabled() || TracingEnabled()) {
      stats_ = &stats;
      start_ = NowNanos();
    }
  }
  ~OpScope() {
    t_current_op = outer_;
    if (stats_ == nullptr) return;
    int64_t dur = NowNanos() - start_;
    stats_->calls.Add(1);
    stats_->nanos.Add(dur);
    if (TracingEnabled()) RecordSpan(stats_->site, start_, dur);
  }
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  const OpStats* outer_;
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
