// Layer probes: each times one public call of one layer, single-threaded,
// on the workload's own model and queries, after the load phase. They say
// which layer a change moved before the end-to-end numbers can.
#include <algorithm>
#include <cstring>

#include "core/recommend.h"
#include "infer/plan.h"
#include "serve/protocol.h"
#include "span_recorder.h"
#include "workloads.h"

namespace missl::ledger {

namespace {

constexpr int kBatchSizes[] = {1, 4, 16};
constexpr int kGroups = 16;  // distinct batches cycled per batch size

// Calls fn(i) `calls` times after two untimed calls, recording one span per
// call; adds the median (and p90 as info) of the durations in `unit`.
template <typename Fn>
void Time(const char* span, const std::string& metric, int calls,
          double ns_per_unit, const char* unit, Report* r, Fn&& fn) {
  fn(0);
  fn(1);
  std::vector<double> v;
  v.reserve(static_cast<size_t>(calls));
  for (int i = 0; i < calls; ++i) {
    const int64_t t0 = NowNs();
    fn(i);
    const int64_t t1 = NowNs();
    spans::Record(span, t0, t1);
    v.push_back((t1 - t0) / ns_per_unit);
  }
  r->Add(metric, Median(v), unit, calls);
  r->Info(metric + ".p90", Percentile(v, 0.9), unit, calls);
}

}  // namespace

void RunProbes(core::MisslModel* model, const ModelShape& shape,
               const std::vector<serve::Query>& queries, int calls,
               Report* r) {
  NoGradGuard no_grad;
  const Tensor catalog = model->PrecomputeCatalog();
  const size_t n = queries.size();
  const int32_t nb = shape.num_behaviors;

  std::vector<std::string> lines;
  for (size_t i = 0; i < n; ++i) {
    lines.push_back(serve::QueryToLine(static_cast<int64_t>(i), queries[i]));
  }
  // groups[s][g]: the g-th batch of kBatchSizes[s] consecutive queries.
  std::vector<std::vector<std::vector<const serve::Query*>>> groups(3);
  std::vector<std::vector<data::Batch>> batches(3);
  for (int s = 0; s < 3; ++s) {
    for (int g = 0; g < kGroups; ++g) {
      std::vector<const serve::Query*> ptrs;
      for (int j = 0; j < kBatchSizes[s]; ++j) {
        ptrs.push_back(&queries[(g * kBatchSizes[s] + j) % n]);
      }
      batches[s].push_back(
          serve::BuildQueryBatch(ptrs, shape.max_len, nb));
      groups[s].push_back(std::move(ptrs));
    }
  }
  // Score rows and answers of the b16 groups, for the rank/encode probes.
  std::vector<Tensor> scores;
  std::vector<std::vector<int32_t>> exclude;
  std::vector<serve::TopKResult> answers;
  for (int g = 0; g < kGroups; ++g) {
    scores.push_back(
        model->ScoreAllItems(batches[2][g], shape.num_items, catalog));
    for (int row = 0; row < 16; ++row) {
      const serve::Query& q = *groups[2][g][row];
      exclude.push_back(q.exclude);
      std::sort(exclude.back().begin(), exclude.back().end());
      serve::TopKResult a;
      core::TopKRow(scores.back().data() + row * shape.num_items,
                    shape.num_items,
                    exclude.back().empty() ? nullptr : &exclude.back(), q.k,
                    &a.items, &a.scores);
      answers.push_back(std::move(a));
    }
  }
  const int rows = kGroups * 16;

  bool parsed_all = true;
  Time("probe.parse", "serve.protocol.parse_us", calls, 1e3, "us", r,
       [&](int i) {
         serve::ParsedQuery pq;
         parsed_all &= serve::ParseQueryLine(lines[i % n], &pq).ok();
       });
  if (!parsed_all) r->Fail("ParseQueryLine rejected a generated query");
  Time("probe.encode", "serve.protocol.encode_us", calls, 1e3, "us", r,
       [&](int i) { serve::TopKToJson(i, answers[i % rows]); });
  Time("probe.topk_row", "core.topk_row_us", calls, 1e3, "us", r, [&](int i) {
    const int row = i % rows;
    const std::vector<int32_t>& ex = exclude[static_cast<size_t>(row)];
    serve::TopKResult a;
    core::TopKRow(scores[row / 16].data() + (row % 16) * shape.num_items,
                  shape.num_items, ex.empty() ? nullptr : &ex, 10, &a.items,
                  &a.scores);
  });

  std::vector<double> compile_ms;
  std::unique_ptr<infer::PlannedExecutor> fp32, int8;
  for (int rep = 0; rep < 5; ++rep) {
    Status st;
    const int64_t t0 = NowNs();
    fp32 = infer::PlannedExecutor::Compile(*model, catalog, kMaxBatch, &st);
    const int64_t t1 = NowNs();
    spans::Record("probe.compile", t0, t1);
    compile_ms.push_back((t1 - t0) / 1e6);
    if (fp32 == nullptr) {
      r->Fail("PlannedExecutor::Compile: " + st.ToString());
      return;
    }
  }
  r->Add("infer.compile_ms", Median(compile_ms), "ms",
         static_cast<int64_t>(compile_ms.size()));
  infer::InferConfig quantized;
  quantized.quantize_catalog = true;
  Status st;
  int8 = infer::PlannedExecutor::Compile(*model, catalog, kMaxBatch, quantized,
                                         &st);
  if (int8 == nullptr) {
    r->Fail("PlannedExecutor::Compile (int8): " + st.ToString());
    return;
  }
  // The plan is served only if it scores bitwise like the training forward.
  const float* planned = fp32->Run(batches[2][0]);
  if (std::memcmp(planned, scores[0].data(),
                  sizeof(float) * 16 * static_cast<size_t>(shape.num_items)) !=
      0) {
    r->Fail("PlannedExecutor::Run differs from ScoreAllItems");
  }

  static const char* const kBuildMetric[] = {"serve.build_batch_us.b1",
                                             "serve.build_batch_us.b4",
                                             "serve.build_batch_us.b16"};
  static const char* const kScoreMetric[] = {"core.score_all_us.b1",
                                             "core.score_all_us.b4",
                                             "core.score_all_us.b16"};
  static const char* const kRunMetric[] = {
      "infer.run_us.b1", "infer.run_us.b4", "infer.run_us.b16"};
  static const char* const kRunQMetric[] = {"infer.run_int8_us.b1",
                                            "infer.run_int8_us.b4",
                                            "infer.run_int8_us.b16"};
  for (int s = 0; s < 3; ++s) {
    Time("probe.build_batch", kBuildMetric[s], calls, 1e3, "us", r,
         [&](int i) {
           serve::BuildQueryBatch(groups[s][i % kGroups], shape.max_len, nb);
         });
    Time("probe.score_all", kScoreMetric[s], calls, 1e3, "us", r, [&](int i) {
      model->ScoreAllItems(batches[s][i % kGroups], shape.num_items, catalog);
    });
    Time("probe.infer_run", kRunMetric[s], calls, 1e3, "us", r,
         [&](int i) { fp32->Run(batches[s][i % kGroups]); });
    Time("probe.infer_run_int8", kRunQMetric[s], calls, 1e3, "us", r,
         [&](int i) { int8->Run(batches[s][i % kGroups]); });
  }
}

}  // namespace missl::ledger
