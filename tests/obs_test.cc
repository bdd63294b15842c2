// Tests for the observability subsystem (src/obs/): metrics registry
// semantics, zero-cost disabled path, concurrent updates from pool workers,
// Chrome trace export (syntactic validity + span nesting), tensor memory
// accounting, the autograd-graph leak regression, and end-to-end training
// telemetry.
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/zoo.h"
#include "data/synthetic.h"
#include "obs/exposition.h"
#include "obs/json.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"
#include "runtime/runtime.h"
#include "tensor/ops.h"
#include "train/trainer.h"
#include "utils/rng.h"

#include "json_test_util.h"
#include "test_util.h"

namespace missl {
namespace {

using testutil::JVal;
using testutil::ParseJsonOrFail;

// Metrics are opt-in; every test here runs with them on and restores the
// default (off) afterwards so cross-test state stays predictable. Instruments
// are never zeroed: each case either owns its instrument names or asserts
// deltas from values read before it.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::SetMetricsEnabled(true); }
  void TearDown() override {
    obs::StopTracing();
    obs::SetMetricsEnabled(false);
  }
};

TEST_F(ObsTest, CounterGaugeSemantics) {
  obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("test.counter");
  const int64_t before = c.value();
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value() - before, 42);
  // Same name resolves to the same instrument.
  EXPECT_EQ(&c, &obs::MetricsRegistry::Global().GetCounter("test.counter"));

  obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge("test.gauge");
  g.Set(7);
  g.Add(-3);
  EXPECT_EQ(g.value(), 4);
}

TEST_F(ObsTest, HistogramBucketsAndPercentiles) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Histogram& h = reg.GetHistogram("test.hist");
  const obs::HistogramSnapshot before = reg.Snapshot().histograms["test.hist"];
  h.Observe(0);
  h.Observe(1);
  h.Observe(2);
  h.Observe(3);
  EXPECT_EQ(h.count() - before.count, 4);
  EXPECT_EQ(h.sum() - before.sum, 6);
  EXPECT_EQ(h.bucket(0) - before.buckets[0], 1);  // the value 0
  EXPECT_EQ(h.bucket(1) - before.buckets[1], 1);  // [1, 1]
  EXPECT_EQ(h.bucket(2) - before.buckets[2], 2);  // [2, 3]
  obs::HistogramSnapshot snap = testing::HistogramDelta(
      before, reg.Snapshot().histograms["test.hist"]);
  EXPECT_EQ(snap.count, 4);
  EXPECT_EQ(snap.sum, 6);
  EXPECT_EQ(obs::SnapshotPercentile(snap, 0.5), 1);
  EXPECT_EQ(obs::SnapshotPercentile(snap, 1.0), 3);
  // Huge values land in the top bucket instead of overflowing.
  h.Observe(int64_t{1} << 62);
  EXPECT_EQ(h.count() - before.count, 5);
  EXPECT_EQ(h.bucket(obs::Histogram::kNumBuckets - 1) -
                before.buckets[obs::Histogram::kNumBuckets - 1],
            1);
}

TEST_F(ObsTest, DisabledPathLeavesInstrumentsUntouched) {
  obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("test.disabled");
  obs::Histogram& h =
      obs::MetricsRegistry::Global().GetHistogram("test.disabled.hist");
  const int64_t c_before = c.value();
  const int64_t h_before = h.count();
  obs::SetMetricsEnabled(false);
  c.Add(5);
  h.Observe(100);
  EXPECT_EQ(c.value(), c_before);
  EXPECT_EQ(h.count(), h_before);
  obs::SetMetricsEnabled(true);
  c.Add(5);
  EXPECT_EQ(c.value() - c_before, 5);
}

TEST_F(ObsTest, ConcurrentCounterIncrementsAreExact) {
  runtime::ScopedNumThreads threads(4);
  obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("test.parallel");
  const int64_t before = c.value();
  constexpr int64_t kN = 20000;
  runtime::ParallelFor(0, kN, 64, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) c.Add(1);
  });
  EXPECT_EQ(c.value() - before, kN);
}

TEST_F(ObsTest, RegistryExportsParse) {
  obs::Counter& c = obs::MetricsRegistry::Global().GetCounter("test.export");
  obs::Histogram& h =
      obs::MetricsRegistry::Global().GetHistogram("test.export.hist");
  // Only this case writes these two, so every observation is the value 9
  // and the expected text is the values read before plus this case's writes.
  const std::string value = std::to_string(c.value() + 3);
  const std::string count = std::to_string(h.count() + 1);
  c.Add(3);
  h.Observe(9);
  // The human dump names the instrument, spells out the histogram's count
  // and buckets, and carries the memory gauges the snapshot adds.
  std::string text =
      obs::SnapshotText(obs::MetricsRegistry::Global().Snapshot());
  EXPECT_NE(text.find("test.export " + value + "\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("test.export.hist count=" + count + " "),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(" buckets=15:" + count + "\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("memory.live_bytes "), std::string::npos) << text;
}

TEST_F(ObsTest, JsonEscapeAndNumber) {
  EXPECT_EQ(obs::JsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  JVal v = ParseJsonOrFail("\"" + obs::JsonEscape(std::string("\x01\t ok")) +
                               "\"",
                           "escaped string");
  EXPECT_EQ(v.type, JVal::kStr);
  // Non-finite numbers must not leak into JSON output.
  EXPECT_EQ(obs::JsonNumber(std::numeric_limits<double>::infinity()), "0");
}

TEST_F(ObsTest, MemoryAccountingTracksAllocAndFree) {
  obs::MemoryStats base = obs::CurrentMemoryStats();
  {
    Tensor t = Tensor::Zeros({1000});
    obs::MemoryStats during = obs::CurrentMemoryStats();
    EXPECT_EQ(during.live_tensors, base.live_tensors + 1);
    EXPECT_GE(during.live_bytes, base.live_bytes + 4000);
    // Allocating the grad buffer is accounted too.
    t.impl()->EnsureGrad();
    EXPECT_GE(obs::CurrentMemoryStats().live_bytes, base.live_bytes + 8000);
  }
  obs::MemoryStats after = obs::CurrentMemoryStats();
  EXPECT_EQ(after.live_tensors, base.live_tensors);
  EXPECT_EQ(after.live_bytes, base.live_bytes);
}

TEST_F(ObsTest, PeakBytesHighWaterMark) {
  obs::ResetPeakBytes();
  int64_t floor = obs::CurrentMemoryStats().peak_bytes;
  { Tensor t = Tensor::Zeros({4096}); }
  obs::MemoryStats s = obs::CurrentMemoryStats();
  EXPECT_GE(s.peak_bytes, floor + 4096 * 4);  // tensor is gone, peak remains
  EXPECT_LT(s.live_bytes, s.peak_bytes);
  obs::ResetPeakBytes();
  EXPECT_LT(obs::CurrentMemoryStats().peak_bytes, s.peak_bytes);
}

// Regression test for the autograd self-cycle leak: backward closures used
// to capture the op's output Tensor by value, so every grad-recording
// forward whose result was dropped without Backward() kept its whole graph
// alive forever. The live-autograd-node gauge must return to baseline both
// after Backward() and after simply dropping a recorded forward result.
TEST_F(ObsTest, AutogradGraphReleasedWithAndWithoutBackward) {
  Rng rng(11);
  obs::MemoryStats base = obs::CurrentMemoryStats();
  {
    Tensor a = Tensor::Randn({8, 8}, &rng, 1.0f, /*requires_grad=*/true);
    Tensor b = Tensor::Randn({8, 8}, &rng, 1.0f, /*requires_grad=*/true);
    for (int i = 0; i < 3; ++i) {
      Tensor loss = Sum(Mul(Relu(MatMul(a, b)), a));
      EXPECT_GT(obs::CurrentMemoryStats().live_autograd_nodes,
                base.live_autograd_nodes);
      loss.Backward();
      // Backward() clears the visited graph.
      EXPECT_EQ(obs::CurrentMemoryStats().live_autograd_nodes,
                base.live_autograd_nodes);
    }
    for (int i = 0; i < 3; ++i) {
      // Dropped without Backward(): destruction alone must free the graph.
      Tensor dropped = Sum(Mul(Relu(MatMul(a, b)), a));
    }
    EXPECT_EQ(obs::CurrentMemoryStats().live_autograd_nodes,
              base.live_autograd_nodes);
  }
  obs::MemoryStats after = obs::CurrentMemoryStats();
  EXPECT_EQ(after.live_autograd_nodes, base.live_autograd_nodes);
  EXPECT_EQ(after.live_tensors, base.live_tensors);
  EXPECT_EQ(after.live_bytes, base.live_bytes);
}

TEST_F(ObsTest, OpDispatchCountersCountCalls) {
  Rng rng(3);
  Tensor a = Tensor::Randn({4, 4}, &rng);
  Tensor b = Tensor::Randn({4, 4}, &rng);
  obs::Counter& calls =
      obs::MetricsRegistry::Global().GetCounter("tensor.op.MatMul.calls");
  obs::Counter& nanos =
      obs::MetricsRegistry::Global().GetCounter("tensor.op.MatMul.nanos");
  int64_t before = calls.value();
  NoGradGuard ng;
  for (int i = 0; i < 3; ++i) MatMul(a, b);
  EXPECT_EQ(calls.value(), before + 3);
  EXPECT_GT(nanos.value(), 0);
  // Named elementwise ops go through the shared templates but still count
  // under their own name.
  int64_t add_before =
      obs::MetricsRegistry::Global().GetCounter("tensor.op.Add.calls").value();
  Add(a, b);
  EXPECT_EQ(
      obs::MetricsRegistry::Global().GetCounter("tensor.op.Add.calls").value(),
      add_before + 1);
}

// Each autograd node remembers the op that attached it, and Backward counts
// the node's closure under that op: two MatMuls and one bias Add on the tape
// add 2 and 1 to the backward call counters, and nothing with metrics off.
TEST_F(ObsTest, BackwardCountersAttributeEachNodeToItsOp) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& mm_calls = reg.GetCounter("tensor.op.MatMul.backward.calls");
  obs::Counter& mm_nanos = reg.GetCounter("tensor.op.MatMul.backward.nanos");
  obs::Counter& add_calls = reg.GetCounter("tensor.op.Add.backward.calls");
  Rng rng(4);
  Tensor x = Tensor::Randn({3, 5, 4}, &rng, 1.0f, /*requires_grad=*/true);
  Tensor w1 = Tensor::Randn({4, 4}, &rng, 1.0f, /*requires_grad=*/true);
  Tensor w2 = Tensor::Randn({4, 2}, &rng, 1.0f, /*requires_grad=*/true);
  Tensor bias = Tensor::Randn({4}, &rng, 1.0f, /*requires_grad=*/true);
  auto step = [&] { Sum(MatMul(Add(MatMul(x, w1), bias), w2)).Backward(); };

  const int64_t mm0 = mm_calls.value(), nanos0 = mm_nanos.value();
  const int64_t add0 = add_calls.value();
  step();
  EXPECT_EQ(mm_calls.value(), mm0 + 2);
  EXPECT_EQ(add_calls.value(), add0 + 1);
  EXPECT_GT(mm_nanos.value(), nanos0);

  obs::SetMetricsEnabled(false);
  const int64_t mm1 = mm_calls.value(), nanos1 = mm_nanos.value();
  const int64_t add1 = add_calls.value();
  step();
  EXPECT_EQ(mm_calls.value(), mm1);
  EXPECT_EQ(mm_nanos.value(), nanos1);
  EXPECT_EQ(add_calls.value(), add1);
}

// Extracts (tid, start_us, end_us, name) for every trace event.
struct SpanRec {
  double tid;
  double ts;
  double end;
  std::string name;
};

std::vector<SpanRec> ExtractSpans(const JVal& root) {
  std::vector<SpanRec> spans;
  const JVal* events = root.Get("traceEvents");
  if (events == nullptr) return spans;
  for (const JVal& e : events->arr) {
    SpanRec r;
    r.tid = e.Get("tid")->num;
    r.ts = e.Get("ts")->num;
    r.end = r.ts + e.Get("dur")->num;
    r.name = e.Get("name")->str;
    spans.push_back(std::move(r));
  }
  return spans;
}

// Spans on one thread's track must nest: any two either don't overlap or
// one contains the other. RAII scopes guarantee this by construction; a
// violation means ts/dur bookkeeping is broken.
void ExpectNested(const std::vector<SpanRec>& spans) {
  for (size_t i = 0; i < spans.size(); ++i) {
    for (size_t j = i + 1; j < spans.size(); ++j) {
      const SpanRec& x = spans[i];
      const SpanRec& y = spans[j];
      if (x.tid != y.tid) continue;
      bool disjoint = x.end <= y.ts || y.end <= x.ts;
      bool x_in_y = y.ts <= x.ts && x.end <= y.end;
      bool y_in_x = x.ts <= y.ts && y.end <= x.end;
      EXPECT_TRUE(disjoint || x_in_y || y_in_x)
          << x.name << " [" << x.ts << ", " << x.end << ") vs " << y.name
          << " [" << y.ts << ", " << y.end << ") on tid " << x.tid;
    }
  }
}

// Records outer > inner > MatMul (which fans out to pool.job + pool.run)
// and returns the dump's spans.
std::vector<SpanRec> TraceNestedWork(const char* what) {
  static constexpr obs::SpanSite kOuter{"outer", "test", "k"};
  static constexpr obs::SpanSite kInner{"inner", "test"};
  {
    obs::TraceSpan outer(kOuter, 1);
    {
      obs::TraceSpan inner(kInner);
      Rng rng(5);
      Tensor a = Tensor::Randn({64, 64}, &rng);
      NoGradGuard ng;
      MatMul(a, a);
    }
  }
  JVal root = ParseJsonOrFail(obs::TraceToJson(), what);
  EXPECT_EQ(root.type, JVal::kObj);
  EXPECT_NE(root.Get("traceEvents"), nullptr);
  return ExtractSpans(root);
}

TEST_F(ObsTest, TraceExportIsValidAndWellNested) {
  runtime::ScopedNumThreads threads(2);
  auto has = [](const std::vector<SpanRec>& spans, const char* name) {
    for (const auto& s : spans) {
      if (s.name == name) return true;
    }
    return false;
  };

  obs::StartTracing();
  std::vector<SpanRec> spans = TraceNestedWork("session trace");
  obs::StopTracing();
  EXPECT_GT(obs::TraceSpansRecorded(), 0);
  ASSERT_GE(spans.size(), 3u);
  EXPECT_TRUE(has(spans, "outer"));
  EXPECT_TRUE(has(spans, "inner"));
  EXPECT_TRUE(has(spans, "MatMul"));
  EXPECT_TRUE(has(spans, "pool.job"));
  ExpectNested(spans);

  // Without a session the rings still record every TraceSpan, nested the
  // same way, but no per-op kernel span.
  obs::ClearTrace();
  EXPECT_EQ(obs::TraceSpansRecorded(), 0);
  spans = TraceNestedWork("recorder dump");
  EXPECT_TRUE(has(spans, "outer"));
  EXPECT_TRUE(has(spans, "inner"));
  EXPECT_TRUE(has(spans, "pool.job"));
  ExpectNested(spans);
  JVal root = ParseJsonOrFail(obs::TraceToJson(), "recorder dump");
  for (const JVal& e : root.Get("traceEvents")->arr) {
    EXPECT_NE(e.Get("cat")->str, "tensor_op")
        << e.Get("name")->str << " recorded outside a session";
  }
  obs::ClearTrace();
  EXPECT_EQ(obs::TraceSpansRecorded(), 0);
}

// In a tracing session each backward closure is one span named after its
// op, category "tensor_op.backward"; outside a session there are none.
TEST_F(ObsTest, TracedBackwardRecordsOneSpanPerOpClosure) {
  auto gelu_backward_spans = [] {
    Rng rng(6);
    Tensor x = Tensor::Randn({4, 9}, &rng, 1.0f, /*requires_grad=*/true);
    Sum(Gelu(x)).Backward();
    JVal root = ParseJsonOrFail(obs::TraceToJson(), "backward trace");
    int count = 0;
    for (const JVal& e : root.Get("traceEvents")->arr) {
      if (e.Get("name")->str == "Gelu" &&
          e.Get("cat")->str == "tensor_op.backward") {
        ++count;
      }
    }
    return count;
  };
  obs::StartTracing();
  EXPECT_EQ(gelu_backward_spans(), 1);
  obs::StopTracing();
  obs::ClearTrace();
  EXPECT_EQ(gelu_backward_spans(), 0);
  obs::ClearTrace();
}

TEST_F(ObsTest, TrainTelemetrySmoke) {
  data::SyntheticConfig cfg;
  cfg.num_users = 60;
  cfg.num_items = 220;
  cfg.min_events = 15;
  cfg.max_events = 25;
  cfg.seed = 33;
  data::Dataset ds = data::GenerateSynthetic(cfg);
  data::SplitView split(ds);
  eval::EvalConfig ec;
  ec.max_len = 15;
  eval::Evaluator evaluator(ds, split, ec);

  baselines::ZooConfig zc;
  zc.dim = 16;
  zc.max_len = 15;
  zc.num_interests = 2;
  auto model = baselines::CreateModel("MISSL", ds, zc);

  const std::string trace_path = "obs_test_trace.json";
  const std::string telemetry_path = "obs_test_telemetry.jsonl";
  train::TrainConfig tc;
  tc.max_epochs = 2;
  tc.max_batches_per_epoch = 4;
  tc.max_len = ec.max_len;
  tc.batch_size = 32;
  tc.num_threads = 2;  // so the trace contains pool-worker tracks
  tc.trace_path = trace_path;
  tc.telemetry_path = telemetry_path;
  train::TrainResult result =
      train::Fit(model.get(), ds, split, evaluator, tc);
  EXPECT_EQ(result.epochs_run, 2);

  // Telemetry: one epoch line per epoch plus a final summary, all valid JSON.
  std::ifstream tf(telemetry_path);
  ASSERT_TRUE(tf.is_open());
  std::string line;
  int64_t epoch_lines = 0, final_lines = 0;
  while (std::getline(tf, line)) {
    if (line.empty()) continue;
    JVal v = ParseJsonOrFail(line, "telemetry line");
    ASSERT_NE(v.Get("event"), nullptr);
    if (v.Get("event")->str == "epoch") {
      ++epoch_lines;
      EXPECT_NE(v.Get("loss"), nullptr);
      EXPECT_NE(v.Get("grad_norm"), nullptr);
      EXPECT_NE(v.Get("examples_per_s"), nullptr);
      EXPECT_NE(v.Get("valid_ndcg10"), nullptr);
      ASSERT_NE(v.Get("peak_bytes"), nullptr);
      EXPECT_GT(v.Get("peak_bytes")->num, 0);
      EXPECT_EQ(v.Get("threads")->num, 2);
    } else {
      EXPECT_EQ(v.Get("event")->str, "final");
      ++final_lines;
      EXPECT_NE(v.Get("test_ndcg10"), nullptr);
    }
  }
  EXPECT_EQ(epoch_lines, result.epochs_run);
  EXPECT_EQ(final_lines, 1);

  // Trace: valid Chrome trace JSON with spans from all three layers —
  // trainer epochs, tensor ops, and the runtime pool.
  std::ifstream trf(trace_path);
  ASSERT_TRUE(trf.is_open());
  std::stringstream buf;
  buf << trf.rdbuf();
  JVal root = ParseJsonOrFail(buf.str(), "training trace");
  std::vector<SpanRec> spans = ExtractSpans(root);
  auto count_named = [&](const char* name) {
    int64_t n = 0;
    for (const auto& s : spans) {
      if (s.name == name) ++n;
    }
    return n;
  };
  EXPECT_EQ(count_named("train.fit"), 1);
  EXPECT_EQ(count_named("train.epoch"), result.epochs_run);
  EXPECT_GT(count_named("train.validate"), 0);
  EXPECT_GT(count_named("eval.evaluate"), 0);
  EXPECT_GT(count_named("Tensor::Backward"), 0);
  EXPECT_GT(count_named("MatMul"), 0);
  EXPECT_GT(count_named("pool.job"), 0);
  EXPECT_GT(count_named("pool.run"), 0);
  // The session kept every span: none was overwritten.
  ASSERT_NE(root.Get("otherData"), nullptr);
  EXPECT_EQ(root.Get("otherData")->Get("overwritten_spans")->num, 0);

  std::remove(trace_path.c_str());
  std::remove(telemetry_path.c_str());
}

}  // namespace
}  // namespace missl
