// Online serving subsystem tests: frozen checkpoint loading, query-batch
// collation parity with the training-time BatchBuilder, bitwise serve-vs-
// offline top-K equivalence under concurrent clients, micro-batcher
// coalescing, input validation, and the line protocol. The micro-batcher is
// part of the TSan CI job (scripts/check.sh tsan), so every test here must
// be race-free by construction.
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/missl.h"
#include "core/recommend.h"
#include "data/batch.h"
#include "data/dataset.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "runtime/parallel_for.h"
#include "runtime/runtime.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "tensor/ops.h"
#include "utils/rng.h"

namespace missl {
namespace {

constexpr int32_t kItems = 60;
constexpr int32_t kBehaviors = 3;
constexpr int64_t kMaxLen = 12;

std::unique_ptr<core::MisslModel> MakeModel(uint64_t seed) {
  core::MisslConfig cfg;
  cfg.dim = 16;
  cfg.num_interests = 2;
  cfg.seed = seed;
  return std::make_unique<core::MisslModel>(kItems, kBehaviors, kMaxLen, cfg);
}

serve::Query RandomQuery(Rng* rng) {
  serve::Query q;
  int64_t len = 1 + static_cast<int64_t>(rng->UniformInt(2 * kMaxLen));
  for (int64_t i = 0; i < len; ++i) {
    q.items.push_back(static_cast<int32_t>(rng->UniformInt(kItems)));
    q.behaviors.push_back(static_cast<int32_t>(rng->UniformInt(kBehaviors)));
  }
  // Exclude a few ids, deliberately in event (unsorted) order.
  for (int64_t i = 0; i < len; i += 3) {
    q.exclude.push_back(q.items[static_cast<size_t>(i)]);
  }
  q.k = 5 + static_cast<int32_t>(rng->UniformInt(6));
  return q;
}

std::string CkptPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(FrozenLoadTest, PutsModuleInInferenceState) {
  auto saved = MakeModel(3);
  std::string path = CkptPath("serve_frozen1.bin");
  ASSERT_TRUE(nn::SaveParameters(*saved, path).ok());

  auto loaded = MakeModel(99);
  ASSERT_TRUE(nn::LoadParametersForInference(loaded.get(), path).ok());
  EXPECT_FALSE(loaded->training());
  for (const auto& [name, t] : loaded->NamedParameters()) {
    EXPECT_FALSE(t.requires_grad()) << name << " still requires grad";
  }
  auto p1 = saved->NamedParameters();
  auto p2 = loaded->NamedParameters();
  ASSERT_EQ(p1.size(), p2.size());
  for (size_t i = 0; i < p1.size(); ++i) {
    for (int64_t j = 0; j < p1[i].second.numel(); ++j) {
      ASSERT_EQ(p1[i].second.data()[j], p2[i].second.data()[j])
          << p1[i].first << " differs after round trip";
    }
  }
  std::remove(path.c_str());
}

TEST(FrozenLoadTest, RoundTripScoresIdenticalThroughFrozenPath) {
  auto saved = MakeModel(4);
  std::string path = CkptPath("serve_frozen2.bin");
  ASSERT_TRUE(nn::SaveParameters(*saved, path).ok());
  auto frozen = MakeModel(123);
  ASSERT_TRUE(nn::LoadParametersForInference(frozen.get(), path).ok());

  Rng rng(11);
  std::vector<serve::Query> queries;
  for (int i = 0; i < 6; ++i) queries.push_back(RandomQuery(&rng));
  data::Batch batch = serve::BuildQueryBatch(queries, kMaxLen, kBehaviors);
  auto a = core::RecommendTopN(saved.get(), batch, {}, 8, kItems);
  auto b = core::RecommendTopN(frozen.get(), batch, {}, 8, kItems);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].items, b[i].items);
    EXPECT_EQ(a[i].scores, b[i].scores);  // bitwise: same floats
  }
  std::remove(path.c_str());
}

TEST(BuildQueryBatchTest, MatchesTrainingBatchBuilder) {
  // One user's history collated at serving time must produce the same id
  // arrays as the training-time BatchBuilder given the same events.
  data::Dataset ds(1, kItems, kBehaviors);
  std::vector<int32_t> items = {5, 9, 5, 17, 30, 2};
  std::vector<int32_t> behs = {0, 0, 1, 2, 1, 0};
  for (size_t i = 0; i < items.size(); ++i) {
    ds.Add({0, items[i], static_cast<data::Behavior>(behs[i]),
            static_cast<int64_t>(10 * (i + 1))});
  }
  // Target event: the one BatchBuilder cuts at (history = events before it).
  ds.Add({0, 40, static_cast<data::Behavior>(kBehaviors - 1), 100});
  ds.Finalize();
  data::BatchBuilder builder(ds, kMaxLen);
  data::Batch offline = builder.Build({{0, 6}});

  serve::Query q;
  q.items = items;
  q.behaviors = behs;
  for (size_t i = 0; i < items.size(); ++i) {
    q.timestamps.push_back(static_cast<int64_t>(10 * (i + 1)));
  }
  q.now = 100;  // recency reference = the moment the next event would happen
  data::Batch online = serve::BuildQueryBatch({q}, kMaxLen, kBehaviors);

  EXPECT_EQ(offline.merged_items, online.merged_items);
  EXPECT_EQ(offline.merged_behaviors, online.merged_behaviors);
  EXPECT_EQ(offline.merged_recency, online.merged_recency);
}

TEST(RecoServiceTest, MatchesOfflineBitwiseUnderConcurrentClients) {
  auto offline_model = MakeModel(5);
  std::string path = CkptPath("serve_svc.bin");
  ASSERT_TRUE(nn::SaveParameters(*offline_model, path).ok());

  serve::ServeConfig cfg;
  cfg.max_len = kMaxLen;
  cfg.max_batch = 8;
  cfg.max_wait_us = 2000;
  Status status;
  auto service = serve::RecoService::Load(MakeModel(42), kItems, kBehaviors,
                                          path, cfg, &status);
  ASSERT_NE(service, nullptr) << status.ToString();

  Rng rng(7);
  std::vector<serve::Query> queries;
  for (int i = 0; i < 32; ++i) queries.push_back(RandomQuery(&rng));

  // Offline reference: one big batch through RecommendTopN. Seen sets are
  // passed in raw (unsorted) event order on purpose.
  data::Batch batch = serve::BuildQueryBatch(queries, kMaxLen, kBehaviors);
  std::vector<std::vector<int32_t>> seen;
  for (const auto& q : queries) seen.push_back(q.exclude);
  int32_t max_k = 0;
  for (const auto& q : queries) max_k = std::max(max_k, q.k);
  auto expected =
      core::RecommendTopN(offline_model.get(), batch, seen, max_k, kItems);

  // Serve the same queries from 4 client threads; coalescing compositions
  // vary run to run, the answers must not.
  constexpr int kClients = 4;
  std::vector<serve::TopKResult> results(queries.size());
  std::vector<Status> statuses(queries.size());
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < queries.size();
           i += kClients) {
        statuses[i] = service->TopK(queries[i], &results[i]);
      }
    });
  }
  for (auto& c : clients) c.join();

  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok()) << statuses[i].ToString();
    size_t want = std::min<size_t>(static_cast<size_t>(queries[i].k),
                                   expected[i].items.size());
    ASSERT_EQ(results[i].items.size(), want) << "query " << i;
    for (size_t j = 0; j < want; ++j) {
      EXPECT_EQ(results[i].items[j], expected[i].items[j])
          << "query " << i << " rank " << j;
      EXPECT_EQ(results[i].scores[j], expected[i].scores[j])
          << "query " << i << " rank " << j;  // bitwise
    }
  }
  EXPECT_EQ(service->requests_served(), static_cast<int64_t>(queries.size()));
  EXPECT_GE(service->batches_run(), 1);
  std::remove(path.c_str());
}

TEST(RecoServiceTest, ThreadCountsStayPerThreadNextToATrainer) {
  // A service scoring on 4 threads next to a thread that runs its parallel
  // loops at 1 thread, as a trainer under TrainConfig::num_threads = 1
  // does. Each ScopedNumThreads scopes its own thread only: the trainer's
  // loops stay inline and serial while the service's full batches fan out
  // to the pool, and both sides keep their bits.
  static constexpr int32_t kWideItems = 6000;  // b = 16 clears the floor
  auto make_model = [](uint64_t seed) {
    core::MisslConfig cfg;
    cfg.dim = 16;
    cfg.num_interests = 3;
    cfg.seed = seed;
    return std::make_unique<core::MisslModel>(kWideItems, kBehaviors,
                                              kMaxLen, cfg);
  };
  auto offline_model = make_model(5);
  std::string path = CkptPath("serve_threads.bin");
  ASSERT_TRUE(nn::SaveParameters(*offline_model, path).ok());
  serve::ServeConfig cfg;
  cfg.max_len = kMaxLen;
  cfg.max_batch = 16;
  cfg.max_wait_us = 1000000;  // an idle dispatcher waits for a full batch
  cfg.num_threads = 4;
  Status status;
  auto service = serve::RecoService::Load(make_model(42), kWideItems,
                                          kBehaviors, path, cfg, &status);
  ASSERT_NE(service, nullptr) << status.ToString();
  EXPECT_EQ(service->num_threads(), 4);

  Rng rng(9);
  std::vector<serve::Query> queries;
  for (int i = 0; i < 64; ++i) queries.push_back(RandomQuery(&rng));
  data::Batch batch = serve::BuildQueryBatch(queries, kMaxLen, kBehaviors);
  std::vector<std::vector<int32_t>> seen;
  for (const auto& q : queries) seen.push_back(q.exclude);
  auto expected =
      core::RecommendTopN(offline_model.get(), batch, seen, 10, kWideItems);

  Rng trng(3);
  const Tensor a = Tensor::Randn({24, 40}, &trng);
  const Tensor b = Tensor::Randn({40, 24}, &trng);
  const Tensor want_product = MatMul(a, b);

  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::Counter& jobs =
      obs::MetricsRegistry::Global().GetCounter("runtime.pool.jobs");
  const int64_t jobs_before = jobs.value();
  std::atomic<bool> served{false};
  std::atomic<int> trainer_rounds{0};
  std::thread trainer([&] {
    NoGradGuard ng;
    runtime::ScopedNumThreads one(1);
    while (!served.load() || trainer_rounds.load() < 20) {
      EXPECT_EQ(runtime::NumThreads(), 1);
      int calls = 0;  // inline: one call over the whole range
      runtime::ParallelFor(0, 64, 1, [&](int64_t, int64_t) { ++calls; });
      EXPECT_EQ(calls, 1);
      const Tensor got = MatMul(a, b);
      EXPECT_EQ(std::memcmp(got.data(), want_product.data(),
                            sizeof(float) * got.numel()),
                0);
      trainer_rounds.fetch_add(1);
    }
  });
  // Four rounds of 16 queries submitted together: full batches.
  std::vector<serve::TopKResult> results(queries.size());
  std::vector<Status> statuses(queries.size());
  for (size_t first = 0; first < queries.size(); first += 16) {
    std::atomic<int> left{16};
    std::mutex mu;
    std::condition_variable cv;
    for (size_t i = first; i < first + 16; ++i) {
      service->Submit(queries[i], [&, i](const Status& s, serve::TopKResult r) {
        statuses[i] = s;
        results[i] = std::move(r);
        if (left.fetch_sub(1) == 1) {
          std::lock_guard<std::mutex> l(mu);
          cv.notify_all();
        }
      });
    }
    std::unique_lock<std::mutex> l(mu);
    cv.wait(l, [&] { return left.load() == 0; });
  }
  served.store(true);
  trainer.join();
  EXPECT_GT(jobs.value(), jobs_before) << "the service never used the pool";
  obs::SetMetricsEnabled(metrics_were_enabled);
  EXPECT_EQ(runtime::NumThreads(), runtime::DefaultNumThreads(1));

  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok()) << statuses[i].ToString();
    const size_t want = std::min<size_t>(static_cast<size_t>(queries[i].k),
                                         expected[i].items.size());
    ASSERT_EQ(results[i].items.size(), want) << "query " << i;
    for (size_t j = 0; j < want; ++j) {
      EXPECT_EQ(results[i].items[j], expected[i].items[j])
          << "query " << i << " rank " << j;
      EXPECT_EQ(results[i].scores[j], expected[i].scores[j])
          << "query " << i << " rank " << j;  // bitwise
    }
  }
  std::remove(path.c_str());
}

TEST(RecoServiceTest, BatcherCoalescesAndRecordsMetrics) {
  bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  auto& reg = obs::MetricsRegistry::Global();
  int64_t requests_before = reg.GetCounter("serve.requests").value();
  int64_t wait_count_before =
      reg.GetHistogram("serve.stage.batch_ns").count();
  int64_t size_count_before = reg.GetHistogram("serve.batch_size").count();

  auto model = MakeModel(6);
  std::string path = CkptPath("serve_batcher.bin");
  ASSERT_TRUE(nn::SaveParameters(*model, path).ok());
  serve::ServeConfig cfg;
  cfg.max_len = kMaxLen;
  // The window is generous so all 8 clients land in few forwards even on a
  // loaded (or TSan-slowed) machine; the batch fires early once full.
  cfg.max_batch = 8;
  cfg.max_wait_us = 1'000'000;
  Status status;
  auto service = serve::RecoService::Load(MakeModel(43), kItems, kBehaviors,
                                          path, cfg, &status);
  ASSERT_NE(service, nullptr) << status.ToString();

  Rng rng(9);
  std::vector<serve::Query> queries;
  for (int i = 0; i < 8; ++i) queries.push_back(RandomQuery(&rng));
  std::vector<serve::TopKResult> results(queries.size());
  std::vector<Status> statuses(queries.size());
  std::vector<std::thread> clients;
  for (size_t i = 0; i < queries.size(); ++i) {
    clients.emplace_back(
        [&, i] { statuses[i] = service->TopK(queries[i], &results[i]); });
  }
  for (auto& c : clients) c.join();
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok()) << statuses[i].ToString();
    EXPECT_FALSE(results[i].items.empty());
  }

  EXPECT_EQ(service->requests_served(), 8);
  // All 8 clients were in flight inside one 1s window, so the batcher must
  // have coalesced at least some of them.
  EXPECT_LE(service->batches_run(), 4);
  EXPECT_EQ(reg.GetCounter("serve.requests").value() - requests_before, 8);
  EXPECT_EQ(reg.GetHistogram("serve.stage.batch_ns").count() -
                wait_count_before, 8);
  EXPECT_EQ(reg.GetHistogram("serve.batch_size").count() - size_count_before,
            service->batches_run());
  obs::SetMetricsEnabled(metrics_were_enabled);
  std::remove(path.c_str());
}

TEST(RecoServiceTest, RejectsMalformedQueriesWithoutCrashing) {
  auto model = MakeModel(8);
  std::string path = CkptPath("serve_validate.bin");
  ASSERT_TRUE(nn::SaveParameters(*model, path).ok());
  serve::ServeConfig cfg;
  cfg.max_len = kMaxLen;
  Status status;
  auto service = serve::RecoService::Load(MakeModel(44), kItems, kBehaviors,
                                          path, cfg, &status);
  ASSERT_NE(service, nullptr) << status.ToString();

  serve::TopKResult out;
  serve::Query bad;
  bad.items = {1, 2};
  bad.behaviors = {0};  // length mismatch
  EXPECT_EQ(service->TopK(bad, &out).code(), StatusCode::kInvalidArgument);

  bad.behaviors = {0, kBehaviors};  // behavior out of range
  EXPECT_EQ(service->TopK(bad, &out).code(), StatusCode::kInvalidArgument);

  bad.behaviors = {0, 0};
  bad.items = {1, kItems};  // item out of range
  EXPECT_EQ(service->TopK(bad, &out).code(), StatusCode::kInvalidArgument);

  serve::Query zero_k;
  zero_k.items = {1};
  zero_k.behaviors = {0};
  zero_k.k = 0;
  EXPECT_EQ(service->TopK(zero_k, &out).code(), StatusCode::kInvalidArgument);

  // The service must still answer well-formed queries afterwards.
  serve::Query good;
  good.items = {1, 2, 3};
  good.behaviors = {0, 1, 2};
  good.k = 4;
  ASSERT_TRUE(service->TopK(good, &out).ok());
  EXPECT_EQ(out.items.size(), 4u);
  std::remove(path.c_str());
}

TEST(RecoServiceTest, LoadRejectsNonPositiveMaxBatch) {
  auto model = MakeModel(50);
  std::string path = CkptPath("serve_cfg_batch.bin");
  ASSERT_TRUE(nn::SaveParameters(*model, path).ok());
  serve::ServeConfig cfg;
  cfg.max_len = kMaxLen;
  cfg.max_batch = 0;
  Status status;
  EXPECT_EQ(serve::RecoService::Load(MakeModel(51), kItems, kBehaviors, path,
                                     cfg, &status),
            nullptr);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("max_batch"), std::string::npos);
  cfg.max_batch = -3;
  EXPECT_EQ(serve::RecoService::Load(MakeModel(51), kItems, kBehaviors, path,
                                     cfg, &status),
            nullptr);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(RecoServiceTest, LoadRejectsNegativeWaitAndThreads) {
  auto model = MakeModel(52);
  std::string path = CkptPath("serve_cfg_wait.bin");
  ASSERT_TRUE(nn::SaveParameters(*model, path).ok());
  serve::ServeConfig cfg;
  cfg.max_len = kMaxLen;
  cfg.max_wait_us = -1;
  Status status;
  EXPECT_EQ(serve::RecoService::Load(MakeModel(53), kItems, kBehaviors, path,
                                     cfg, &status),
            nullptr);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("max_wait_us"), std::string::npos);

  cfg = serve::ServeConfig();
  cfg.max_len = kMaxLen;
  cfg.num_threads = -2;
  EXPECT_EQ(serve::RecoService::Load(MakeModel(53), kItems, kBehaviors, path,
                                     cfg, &status),
            nullptr);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(RecoServiceTest, LoadRejectsNumItemsMismatchWithModel) {
  // Score rows are the model's item-table width; a different num_items would
  // stride the ranking pass past them.
  auto model = MakeModel(56);
  std::string path = CkptPath("serve_cfg_items.bin");
  ASSERT_TRUE(nn::SaveParameters(*model, path).ok());
  serve::ServeConfig cfg;
  cfg.max_len = kMaxLen;
  Status status;
  EXPECT_EQ(serve::RecoService::Load(MakeModel(57), kItems + 1, kBehaviors,
                                     path, cfg, &status),
            nullptr);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("num_items"), std::string::npos);
  std::remove(path.c_str());
}

TEST(RecoServiceTest, LoadRejectsMaxLenMismatchWithCheckpoint) {
  // The checkpoint's position table has kMaxLen rows; serving with a
  // different max_len would silently index it out of distribution, so Load
  // must reject the combination up front.
  auto model = MakeModel(54);
  std::string path = CkptPath("serve_cfg_len.bin");
  ASSERT_TRUE(nn::SaveParameters(*model, path).ok());
  serve::ServeConfig cfg;
  cfg.max_len = 0;
  Status status;
  EXPECT_EQ(serve::RecoService::Load(MakeModel(55), kItems, kBehaviors, path,
                                     cfg, &status),
            nullptr);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);

  cfg.max_len = kMaxLen + 8;  // valid value, wrong for this checkpoint
  auto service = serve::RecoService::Load(MakeModel(55), kItems, kBehaviors,
                                          path, cfg, &status);
  EXPECT_EQ(service, nullptr);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("position table"), std::string::npos);

  // The same checkpoint loads fine with the matching max_len.
  cfg.max_len = kMaxLen;
  service = serve::RecoService::Load(MakeModel(55), kItems, kBehaviors, path,
                                     cfg, &status);
  EXPECT_NE(service, nullptr) << status.ToString();
  std::remove(path.c_str());
}

TEST(RecoServiceTest, LoadFailsCleanlyOnBadCheckpoint) {
  serve::ServeConfig cfg;
  cfg.max_len = kMaxLen;
  Status status;
  auto service = serve::RecoService::Load(MakeModel(45), kItems, kBehaviors,
                                          "/nonexistent/ckpt.bin", cfg,
                                          &status);
  EXPECT_EQ(service, nullptr);
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

TEST(ProtocolTest, ParsesFullQueryLine) {
  serve::ParsedQuery q;
  Status s = serve::ParseQueryLine("7\t5\t3:0:100,9:1:250,4:2:400\t9,3", &q);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(q.id, 7);
  EXPECT_EQ(q.query.k, 5);
  EXPECT_EQ(q.query.items, (std::vector<int32_t>{3, 9, 4}));
  EXPECT_EQ(q.query.behaviors, (std::vector<int32_t>{0, 1, 2}));
  EXPECT_EQ(q.query.timestamps, (std::vector<int64_t>{100, 250, 400}));
  EXPECT_EQ(q.query.now, 400);  // defaults to the newest event
  EXPECT_EQ(q.query.exclude, (std::vector<int32_t>{9, 3}));

  // Minimal form: no timestamps, no excludes.
  ASSERT_TRUE(serve::ParseQueryLine("0\t10\t5:0,6:1", &q).ok());
  EXPECT_TRUE(q.query.timestamps.empty());
  EXPECT_TRUE(q.query.exclude.empty());
  // "-" also means no excludes.
  ASSERT_TRUE(serve::ParseQueryLine("0\t10\t5:0\t-", &q).ok());
  EXPECT_TRUE(q.query.exclude.empty());
}

TEST(ProtocolTest, RejectsMalformedLines) {
  serve::ParsedQuery q;
  EXPECT_FALSE(serve::ParseQueryLine("", &q).ok());
  EXPECT_FALSE(serve::ParseQueryLine("1\t5", &q).ok());           // no history
  EXPECT_FALSE(serve::ParseQueryLine("x\t5\t1:0", &q).ok());      // bad id
  EXPECT_FALSE(serve::ParseQueryLine("1\t0\t1:0", &q).ok());      // k < 1
  EXPECT_FALSE(serve::ParseQueryLine("1\t5\t1", &q).ok());        // no behavior
  EXPECT_FALSE(serve::ParseQueryLine("1\t5\t1:0:2:3", &q).ok());  // 4 parts
  EXPECT_FALSE(serve::ParseQueryLine("1\t5\t1:0:5,2:1", &q).ok());  // mixed ts
  EXPECT_FALSE(serve::ParseQueryLine("1\t5\t1:0\tx", &q).ok());   // bad excl
}

// core::TopKRow's order is total: score descending, NaN after every number,
// then item id ascending. Before it was pinned, equal scores came out in
// unspecified order and a NaN score broke std::partial_sort's strict weak
// ordering requirement (undefined behavior).
TEST(TopKRowTest, RanksByScoreThenNanLastThenItemId) {
  const float nan = std::nanf("");
  const float inf = std::numeric_limits<float>::infinity();
  // id:                         0     1    2     3     4     5      6
  const std::vector<float> row = {1.0f, nan, 2.0f, 1.0f, -inf, 2.0f, -0.0f,
                                  // 7     8
                                  0.0f, nan};
  const int32_t n = static_cast<int32_t>(row.size());
  std::vector<int32_t> items;
  std::vector<float> scores;
  core::TopKRow(row.data(), n, nullptr, n, &items, &scores);
  // Ties fall to the lower id: 2 before 5, 0 before 3, -0.0 (6) before 0.0
  // (7); -inf is a number; the NaNs come last, by id.
  EXPECT_EQ(items, (std::vector<int32_t>{2, 5, 0, 3, 6, 7, 4, 1, 8}));
  ASSERT_EQ(scores.size(), items.size());
  EXPECT_TRUE(std::signbit(scores[4]));  // item 6's -0.0 is reported as is
  EXPECT_FALSE(std::signbit(scores[5]));
  EXPECT_EQ(scores[6], -inf);
  EXPECT_TRUE(std::isnan(scores[7]) && std::isnan(scores[8]));

  // A shorter list is a prefix of the full order, ties included.
  core::TopKRow(row.data(), n, nullptr, 3, &items, &scores);
  EXPECT_EQ(items, (std::vector<int32_t>{2, 5, 0}));

  // k above V minus the exclusions returns every remaining item; duplicate
  // and out-of-range exclusion ids are harmless.
  const std::vector<int32_t> excl = {2, 2, 5, 9, 100};
  core::TopKRow(row.data(), n, &excl, 50, &items, &scores);
  EXPECT_EQ(items, (std::vector<int32_t>{0, 3, 6, 7, 4, 1, 8}));

  // A row whose every item is excluded yields an empty list.
  std::vector<int32_t> all(static_cast<size_t>(n));
  for (int32_t i = 0; i < n; ++i) all[static_cast<size_t>(i)] = i;
  core::TopKRow(row.data(), n, &all, 5, &items, &scores);
  EXPECT_TRUE(items.empty());
  EXPECT_TRUE(scores.empty());

  // An all-NaN row still ranks, by id.
  const std::vector<float> nans(4, nan);
  core::TopKRow(nans.data(), 4, nullptr, 2, &items, &scores);
  EXPECT_EQ(items, (std::vector<int32_t>{0, 1}));
}

TEST(ProtocolTest, FormatsTopKJson) {
  serve::TopKResult r;
  r.items = {12, 5, 40};
  r.scores = {1.25f, 1.0f, 0.5f};
  EXPECT_EQ(serve::TopKToJson(7, r),
            "{\"id\":7,\"k\":3,\"items\":[12,5,40],"
            "\"scores\":[1.25,1,0.5]}");
}

}  // namespace
}  // namespace missl
