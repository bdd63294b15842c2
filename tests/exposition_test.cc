// Tests for the exposition layer (obs/exposition.h) and the span store
// (obs/trace.h): Prometheus text validity (validated end-to-end
// through testutil::ParsePrometheusText, the same strict parser the socket
// scrape tests use), name/label sanitization, snapshot JSON/delta/
// percentile semantics, ring behavior (overwrite-oldest at fixed capacity
// outside a session, growth to the session bound with an overwritten count,
// clear), and a concurrent scrape-while-updating run that the TSan CI leg
// exercises for data races.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <latch>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "utils/rng.h"

#include "json_test_util.h"
#include "prom_test_util.h"

namespace missl {
namespace {

using testutil::JVal;
using testutil::ParseJsonOrFail;
using testutil::ParsePrometheusText;
using testutil::PromHistogram;

// Metrics are opt-in. Every test here turns them on, starts from empty
// rings, and restores the defaults so cross-test state stays predictable.
class ExpositionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetMetricsEnabled(true);
    obs::ClearTrace();
  }
  void TearDown() override {
    obs::StopTracing();
    obs::ClearTrace();
    obs::SetMetricsEnabled(false);
  }
};

TEST_F(ExpositionTest, PrometheusNameSanitization) {
  EXPECT_EQ(obs::PrometheusName("serve.tcp.bytes_in"), "serve_tcp_bytes_in");
  EXPECT_EQ(obs::PrometheusName("already_fine:name"), "already_fine:name");
  EXPECT_EQ(obs::PrometheusName("weird-chars/and spaces"),
            "weird_chars_and_spaces");
  // A leading digit is prefixed, not replaced, so distinct names stay
  // distinct after sanitization.
  EXPECT_EQ(obs::PrometheusName("9lives"), "_9lives");
  EXPECT_EQ(obs::PrometheusName(""), "_");
}

TEST_F(ExpositionTest, PrometheusLabelEscape) {
  EXPECT_EQ(obs::PrometheusLabelEscape("plain"), "plain");
  EXPECT_EQ(obs::PrometheusLabelEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::PrometheusLabelEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(obs::PrometheusLabelEscape("line\nbreak"), "line\\nbreak");
}

TEST_F(ExpositionTest, PrometheusTextParsesAndRoundTripsValues) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter& c = reg.GetCounter("expo.test.requests");
  obs::Gauge& g = reg.GetGauge("expo.test.depth");
  obs::Histogram& h = reg.GetHistogram("expo.test.latency_ns");
  c.Reset();
  h.Reset();
  c.Add(42);
  g.Set(-7);
  for (int i = 0; i < 100; ++i) h.Observe(i * 37);

  std::string text = obs::PrometheusText(reg.Snapshot());

  std::map<std::string, double> scalars;
  std::map<std::string, PromHistogram> histograms;
  ASSERT_TRUE(ParsePrometheusText(text, &scalars, &histograms))
      << "PrometheusText output rejected by the scrape parser:\n"
      << text;

  ASSERT_TRUE(scalars.count("expo_test_requests"));
  EXPECT_EQ(scalars["expo_test_requests"], 42);
  ASSERT_TRUE(scalars.count("expo_test_depth"));
  EXPECT_EQ(scalars["expo_test_depth"], -7);

  ASSERT_TRUE(histograms.count("expo_test_latency_ns"));
  const PromHistogram& ph = histograms["expo_test_latency_ns"];
  EXPECT_EQ(ph.count, h.count());
  EXPECT_EQ(ph.sum, h.sum());
  // Cumulative-monotone with a final +Inf equal to _count is enforced by
  // the parser; pin the shape on top: one le per finite pow2 bound + +Inf.
  ASSERT_EQ(static_cast<int>(ph.buckets.size()), obs::Histogram::kNumBuckets);
  int64_t cum = 0;
  for (int i = 0; i < obs::Histogram::kNumBuckets - 1; ++i) {
    cum += h.bucket(i);
    EXPECT_EQ(ph.buckets[i].first,
              static_cast<double>(obs::Histogram::BucketUpperBound(i)));
    EXPECT_EQ(ph.buckets[i].second, cum);
  }
  EXPECT_EQ(ph.buckets.back().second, h.count());
}

TEST_F(ExpositionTest, PrometheusTextStableOrderingAndByteStable) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("expo.order.b");
  reg.GetCounter("expo.order.a");
  reg.GetGauge("expo.order.c");

  obs::MetricsSnapshot snap = reg.Snapshot();
  std::string text = obs::PrometheusText(snap);
  EXPECT_EQ(text, obs::PrometheusText(snap))
      << "same snapshot must render byte-identically";

  // "# TYPE" families must appear in sorted name order within each section
  // (counters, then gauges, then histograms) so diffs between scrapes are
  // positionally stable.
  std::vector<std::string> counter_families;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream ls(line);
    std::string hash, type, fam, kind;
    if ((ls >> hash >> type >> fam >> kind) && hash == "#" &&
        type == "TYPE" && kind == "counter") {
      counter_families.push_back(fam);
    }
  }
  ASSERT_GE(counter_families.size(), 2u);
  EXPECT_TRUE(std::is_sorted(counter_families.begin(), counter_families.end()))
      << "counter families not in sorted order";
}

TEST_F(ExpositionTest, SnapshotToJsonIsValidJson) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("expo.json.counter").Add(3);
  reg.GetHistogram("expo.json.hist").Observe(1000);

  JVal root = ParseJsonOrFail(obs::SnapshotToJson(reg.Snapshot()),
                              "SnapshotToJson()");
  ASSERT_EQ(root.type, JVal::kObj);
  const JVal* counters = root.Get("counters");
  const JVal* gauges = root.Get("gauges");
  const JVal* histograms = root.Get("histograms");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(histograms, nullptr);
  ASSERT_EQ(histograms->type, JVal::kObj);
  const JVal* h = histograms->Get("expo.json.hist");
  ASSERT_NE(h, nullptr);
  const JVal* count = h->Get("count");
  ASSERT_NE(count, nullptr);
  EXPECT_GE(count->num, 1);
  ASSERT_NE(h->Get("buckets"), nullptr);
  EXPECT_EQ(h->Get("buckets")->type, JVal::kArr);
}

TEST_F(ExpositionTest, SnapshotDeltaSemantics) {
  obs::MetricsSnapshot base;
  base.counters["c.common"] = 10;
  base.gauges["g"] = 5;
  obs::HistogramSnapshot hb;
  hb.count = 4;
  hb.sum = 40;
  hb.buckets[3] = 4;
  base.histograms["h"] = hb;

  obs::MetricsSnapshot cur;
  cur.counters["c.common"] = 25;
  cur.counters["c.new"] = 7;  // absent in base: passes through
  cur.gauges["g"] = 2;
  obs::HistogramSnapshot hc;
  hc.count = 9;
  hc.sum = 100;
  hc.buckets[3] = 6;
  hc.buckets[5] = 3;
  cur.histograms["h"] = hc;

  obs::MetricsSnapshot d = obs::SnapshotDelta(cur, base);
  EXPECT_EQ(d.counters["c.common"], 15);
  EXPECT_EQ(d.counters["c.new"], 7);
  // Gauges are point-in-time: delta keeps the current value.
  EXPECT_EQ(d.gauges["g"], 2);
  EXPECT_EQ(d.histograms["h"].count, 5);
  EXPECT_EQ(d.histograms["h"].sum, 60);
  EXPECT_EQ(d.histograms["h"].buckets[3], 2);
  EXPECT_EQ(d.histograms["h"].buckets[5], 3);
}

TEST_F(ExpositionTest, SnapshotPercentileMatchesApproxPercentile) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Histogram& h = reg.GetHistogram("expo.pct.hist");
  h.Reset();
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    h.Observe(static_cast<int64_t>(rng.UniformInt(1000000)));
  }
  obs::HistogramSnapshot snap = reg.Snapshot().histograms["expo.pct.hist"];
  for (double p : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(obs::SnapshotPercentile(snap, p), h.ApproxPercentile(p))
        << "p=" << p;
  }
  obs::HistogramSnapshot empty;
  EXPECT_EQ(obs::SnapshotPercentile(empty, 0.5), 0);
}

TEST_F(ExpositionTest, SnapshotPercentileEmptyHistogram) {
  // An empty histogram has no data to rank: every percentile is 0, including
  // the out-of-range p values (clamped, not UB).
  obs::HistogramSnapshot empty;
  for (double p : {-1.0, 0.0, 0.5, 0.99, 1.0, 2.0}) {
    EXPECT_EQ(obs::SnapshotPercentile(empty, p), 0) << "p=" << p;
  }
  // A count-zero snapshot with stale bucket entries (e.g. a delta of two
  // identical snapshots after a reset skew) still reports 0.
  obs::HistogramSnapshot zeroed;
  zeroed.buckets[4] = 0;
  EXPECT_EQ(obs::SnapshotPercentile(zeroed, 0.5), 0);
}

TEST_F(ExpositionTest, SnapshotPercentileSingleBucket) {
  // With every observation in one bucket, every percentile (and every
  // clamped out-of-range p) is that bucket's upper bound.
  obs::HistogramSnapshot h;
  h.count = 7;
  h.sum = 7 * 5;
  h.buckets[3] = 7;
  const int64_t bound = obs::Histogram::BucketUpperBound(3);
  for (double p : {-0.5, 0.0, 0.25, 0.5, 0.99, 1.0, 1.5}) {
    EXPECT_EQ(obs::SnapshotPercentile(h, p), bound) << "p=" << p;
  }
  // Single observation: same story, count-1 ranking must not underflow.
  obs::HistogramSnapshot one;
  one.count = 1;
  one.sum = 3;
  one.buckets[2] = 1;
  for (double p : {0.0, 0.5, 1.0}) {
    EXPECT_EQ(obs::SnapshotPercentile(one, p),
              obs::Histogram::BucketUpperBound(2))
        << "p=" << p;
  }
}

TEST_F(ExpositionTest, SnapshotDeltaEmptyAndSingleBucketHistograms) {
  // Empty-histogram corners of SnapshotDelta: identical snapshots cancel to
  // a zero histogram; an instrument absent from base passes through; an
  // instrument absent from cur is dropped (the delta describes cur).
  obs::HistogramSnapshot single;
  single.count = 5;
  single.sum = 50;
  single.buckets[6] = 5;

  obs::MetricsSnapshot base;
  base.histograms["h.same"] = single;
  base.histograms["h.gone"] = single;

  obs::MetricsSnapshot cur;
  cur.histograms["h.same"] = single;
  cur.histograms["h.empty"] = obs::HistogramSnapshot{};
  obs::HistogramSnapshot grown = single;
  grown.count = 8;
  grown.sum = 80;
  grown.buckets[6] = 8;
  cur.histograms["h.new"] = grown;

  obs::MetricsSnapshot d = obs::SnapshotDelta(cur, base);
  ASSERT_EQ(d.histograms.count("h.same"), 1u);
  EXPECT_EQ(d.histograms["h.same"].count, 0);
  EXPECT_EQ(d.histograms["h.same"].sum, 0);
  for (int i = 0; i < obs::Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(d.histograms["h.same"].buckets[i], 0) << "bucket " << i;
  }
  // The cancelled histogram ranks as empty, tying the two APIs together.
  EXPECT_EQ(obs::SnapshotPercentile(d.histograms["h.same"], 0.5), 0);

  // Absent from base: the full cur value passes through, still one bucket.
  ASSERT_EQ(d.histograms.count("h.new"), 1u);
  EXPECT_EQ(d.histograms["h.new"].count, 8);
  EXPECT_EQ(d.histograms["h.new"].buckets[6], 8);
  EXPECT_EQ(obs::SnapshotPercentile(d.histograms["h.new"], 1.0),
            obs::Histogram::BucketUpperBound(6));

  // Empty in cur, absent in base: passes through as empty, not dropped.
  ASSERT_EQ(d.histograms.count("h.empty"), 1u);
  EXPECT_EQ(d.histograms["h.empty"].count, 0);

  // Absent in cur: not resurrected from base.
  EXPECT_EQ(d.histograms.count("h.gone"), 0u);
}

TEST_F(ExpositionTest, BuildRevNonEmpty) {
  ASSERT_NE(obs::BuildRev(), nullptr);
  EXPECT_NE(std::string(obs::BuildRev()), "");
}

// ---- Span store ------------------------------------------------------------

// Counts "ph":"X" events in a Chrome trace document and checks the fields
// every event must carry.
int CountTraceEvents(const std::string& json, const std::string& what) {
  JVal root = ParseJsonOrFail(json, what);
  if (root.type != JVal::kObj) return -1;
  const JVal* events = root.Get("traceEvents");
  if (events == nullptr || events->type != JVal::kArr) return -1;
  for (const JVal& e : events->arr) {
    EXPECT_EQ(e.type, JVal::kObj);
    EXPECT_NE(e.Get("name"), nullptr);
    EXPECT_NE(e.Get("ts"), nullptr);
    EXPECT_NE(e.Get("dur"), nullptr);
    const JVal* ph = e.Get("ph");
    EXPECT_NE(ph, nullptr);
    if (ph != nullptr) {
      EXPECT_EQ(ph->str, "X");
    }
  }
  return static_cast<int>(events->arr.size());
}

// The dump's count of spans recorded since the last clear but overwritten.
int64_t OverwrittenSpans(const std::string& json) {
  JVal root = ParseJsonOrFail(json, "trace dump");
  const JVal* other = root.Get("otherData");
  if (other == nullptr || other->Get("overwritten_spans") == nullptr) {
    ADD_FAILURE() << "dump has no otherData.overwritten_spans";
    return -1;
  }
  return static_cast<int64_t>(other->Get("overwritten_spans")->num);
}

constexpr obs::SpanSite kTestSpan{"expo.span", "test", "i"};

TEST_F(ExpositionTest, FlightRecorderCapacityClamp) {
  // Capacity is fixed at first use; whatever the environment says, the
  // clamp contract bounds it.
  EXPECT_GE(obs::FlightRingCapacity(), 64u);
  EXPECT_LE(obs::FlightRingCapacity(), obs::kTraceSessionBound);
}

TEST_F(ExpositionTest, FlightRecorderRecordsAndDumps) {
  for (int i = 0; i < 10; ++i) {
    obs::RecordSpan(kTestSpan, 1000 + i * 10, 5, i);
  }
  EXPECT_EQ(obs::TraceSpansRecorded(), 10);
  std::string json = obs::TraceToJson();
  EXPECT_EQ(CountTraceEvents(json, "flight dump"), 10);
  // Every slot resolves to its site's name, category and integer argument.
  JVal root = ParseJsonOrFail(json, "flight dump");
  int i = 0;
  for (const JVal& e : root.Get("traceEvents")->arr) {
    EXPECT_EQ(e.Get("name")->str, "expo.span");
    EXPECT_EQ(e.Get("cat")->str, "test");
    ASSERT_NE(e.Get("args"), nullptr);
    ASSERT_NE(e.Get("args")->Get("i"), nullptr);
    EXPECT_EQ(e.Get("args")->Get("i")->num, i++);
  }
  EXPECT_EQ(OverwrittenSpans(json), 0);
}

TEST_F(ExpositionTest, FlightRecorderOverwritesOldestAtFixedCapacity) {
  // Outside a session a ring never grows: it keeps FlightRingCapacity()
  // slots and overwrites its oldest span.
  ASSERT_FALSE(obs::TracingEnabled());
  const int64_t cap = static_cast<int64_t>(obs::FlightRingCapacity());
  const int64_t total = cap + 100;
  for (int64_t i = 0; i < total; ++i) {
    obs::RecordSpan(kTestSpan, i, 1, i);
  }
  // Everything was counted, but only the newest `cap` records survive.
  EXPECT_EQ(obs::TraceSpansRecorded(), total);
  std::string json = obs::TraceToJson();
  EXPECT_EQ(CountTraceEvents(json, "wrapped dump"), cap);
  EXPECT_EQ(OverwrittenSpans(json), 100);
}

TEST_F(ExpositionTest, FlightRecorderClearEmptiesDump) {
  obs::RecordSpan(kTestSpan, 1, 1);
  EXPECT_GT(obs::TraceSpansRecorded(), 0);
  obs::ClearTrace();
  EXPECT_EQ(obs::TraceSpansRecorded(), 0);
  EXPECT_EQ(CountTraceEvents(obs::TraceToJson(), "cleared dump"), 0);
}

TEST_F(ExpositionTest, TraceSpanLandsInRecorderWithoutStartTracing) {
  ASSERT_FALSE(obs::TracingEnabled());
  static constexpr obs::SpanSite kAuto{"expo.flight.auto", "test"};
  { obs::TraceSpan span(kAuto); }
  EXPECT_EQ(obs::TraceSpansRecorded(), 1);
  std::string json = obs::TraceToJson();
  EXPECT_EQ(CountTraceEvents(json, "span dump"), 1);
  EXPECT_NE(json.find("expo.flight.auto"), std::string::npos);
}

TEST_F(ExpositionTest, WriteTraceProducesValidFile) {
  obs::RecordSpan(kTestSpan, 1, 2);
  std::string path = ::testing::TempDir() + "missl_flight_test.json";
  ASSERT_TRUE(obs::WriteTrace(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(CountTraceEvents(buf.str(), "flight file"), 1);
  std::remove(path.c_str());
}

// A session grows one thread's ring up to kTraceSessionBound slots; past it
// the oldest spans are overwritten and counted. The dump is streamed to a
// file and scanned line by line (one event per line) rather than parsed.
TEST_F(ExpositionTest, TraceSessionBoundKeepsNewestSpans) {
  const int64_t bound = static_cast<int64_t>(obs::kTraceSessionBound);
  constexpr int64_t kExtra = 37;
  obs::StartTracing();
  for (int64_t i = 0; i < bound + kExtra; ++i) {
    obs::RecordSpan(kTestSpan, i * 1000, 1, i);  // ts == i microseconds
  }
  obs::StopTracing();
  EXPECT_EQ(obs::TraceSpansRecorded(), bound + kExtra);

  const std::string path = "exposition_test_session_bound.json";
  ASSERT_TRUE(obs::WriteTrace(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  int64_t events = 0, first_ts = -1, last_ts = -1, overwritten = -1;
  const std::string ts_key = "\"ts\":", ow_key = "\"overwritten_spans\":";
  while (std::getline(in, line)) {
    if (line.rfind("{\"name\":\"expo.span\"", 0) == 0) {
      size_t at = line.find(ts_key);
      ASSERT_NE(at, std::string::npos) << line;
      const int64_t ts = std::stoll(line.substr(at + ts_key.size()));
      if (first_ts < 0) first_ts = ts;
      EXPECT_EQ(ts, last_ts < 0 ? ts : last_ts + 1) << "spans out of order";
      last_ts = ts;
      ++events;
    } else if (size_t at = line.find(ow_key); at != std::string::npos) {
      overwritten = std::stoll(line.substr(at + ow_key.size()));
    }
  }
  in.close();
  std::remove(path.c_str());
  EXPECT_EQ(events, bound);
  EXPECT_EQ(first_ts, kExtra);
  EXPECT_EQ(last_ts, bound + kExtra - 1);
  EXPECT_EQ(overwritten, kExtra);

  // Cleared outside a session, the grown ring returns to its base size.
  obs::ClearTrace();
  const int64_t cap = static_cast<int64_t>(obs::FlightRingCapacity());
  for (int64_t i = 0; i <= cap; ++i) obs::RecordSpan(kTestSpan, i, 1, i);
  std::string json = obs::TraceToJson();
  EXPECT_EQ(CountTraceEvents(json, "after the session"), cap);
  EXPECT_EQ(OverwrittenSpans(json), 1);
}

// ---- Concurrency ----------------------------------------------------------

// Scrape-while-updating: worker threads hammer a counter, a histogram, and
// the span rings while a scraper loops snapshot -> render -> parse and
// dumps the rings. Writers start on a latch the scraper releases and keep
// writing until the scraper has finished a full round, so scrapes overlap
// writes by construction. The second input opens a tracing session after
// that first round: each writer then records kPerThread more spans, so its
// ring grows while the scraper keeps dumping. The TSan CI leg runs this
// binary; any unsynchronized access in the exposition path, the seqlock
// rings or ring growth shows up here. Final counts must be exact — scrapes
// never lose updates.
TEST_F(ExpositionTest, ConcurrentScrapeWhileUpdating) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter& c = reg.GetCounter("expo.conc.counter");
  obs::Histogram& h = reg.GetHistogram("expo.conc.hist");
  static constexpr obs::SpanSite kConcSpan{"expo.conc.span", "test"};
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;  // > the default ring, so sessions grow

  for (bool open_session : {false, true}) {
    SCOPED_TRACE(open_session ? "session opened mid-run" : "always-on rings");
    c.Reset();
    h.Reset();
    obs::ClearTrace();
    std::latch start(1);
    std::atomic<int> rounds{0};
    std::atomic<int> done{0};
    std::vector<int64_t> writes(kThreads, 0);

    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        int64_t i = 0;
        auto write = [&] {
          c.Add();
          h.Observe(t * 1000 + i % 1000);
          obs::RecordSpan(kConcSpan, i, 1);
          ++i;
        };
        start.wait();
        while (rounds.load() < 1) write();
        for (int k = 0; k < kPerThread; ++k) write();
        writes[t] = i;
        done.fetch_add(1);
      });
    }

    start.count_down();
    int scrapes = 0;
    while (done.load() < kThreads) {
      std::string text = obs::PrometheusText(reg.Snapshot());
      std::map<std::string, double> scalars;
      std::map<std::string, PromHistogram> histograms;
      ASSERT_TRUE(ParsePrometheusText(text, &scalars, &histograms))
          << "mid-update scrape must still be well-formed";
      ASSERT_GE(CountTraceEvents(obs::TraceToJson(), "live dump"), 0);
      if (++scrapes == 1 && open_session) obs::StartTracing();
      rounds.store(scrapes);
    }
    for (auto& w : workers) w.join();
    obs::StopTracing();
    EXPECT_GT(scrapes, 0);

    int64_t total = 0;
    for (int64_t n : writes) total += n;
    obs::MetricsSnapshot final_snap = reg.Snapshot();
    EXPECT_EQ(final_snap.counters["expo.conc.counter"], total);
    EXPECT_EQ(final_snap.histograms["expo.conc.hist"].count, total);
    if (!open_session) {
      EXPECT_EQ(obs::TraceSpansRecorded(), total);
      continue;
    }
    // The session kept every span recorded since it opened: at least the
    // kPerThread each writer wrote after seeing it, none overwritten.
    std::string json = obs::TraceToJson();
    EXPECT_GE(obs::TraceSpansRecorded(),
              static_cast<int64_t>(kThreads) * kPerThread);
    EXPECT_EQ(CountTraceEvents(json, "session dump"),
              obs::TraceSpansRecorded());
    EXPECT_EQ(OverwrittenSpans(json), 0);
  }
}

}  // namespace
}  // namespace missl
