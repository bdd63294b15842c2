// Tests for the exposition layer (obs/exposition.h) and the span store
// (obs/trace.h): Prometheus text validity (validated end-to-end
// through testutil::ParsePrometheusText, the same strict parser the socket
// scrape tests use), name sanitization, the human SnapshotText dump,
// percentile semantics, ring behavior (overwrite-oldest at fixed capacity
// outside a session, growth to the session bound with an overwritten count,
// clear), and concurrent scrape-while-updating runs that the TSan CI leg
// exercises for data races.
#include <algorithm>
#include <atomic>
#include <bit>
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
#include "test_util.h"

namespace missl {
namespace {

using testutil::JVal;
using testutil::ParseJsonOrFail;
using testutil::ParsePrometheusText;
using testutil::PromHistogram;

// Metrics are opt-in. Every test here turns them on, starts from empty
// rings, and restores the defaults so cross-test state stays predictable.
// Instruments are never zeroed, so cases assert deltas from values read
// before them.
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

TEST_F(ExpositionTest, PrometheusTextParsesAndRoundTripsValues) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter& c = reg.GetCounter("expo.test.requests");
  obs::Gauge& g = reg.GetGauge("expo.test.depth");
  obs::Histogram& h = reg.GetHistogram("expo.test.latency_ns");
  const int64_t requests_before = c.value();
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
  EXPECT_EQ(scalars["expo_test_requests"], requests_before + 42);
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

// SnapshotPercentile against a nearest-rank reference computed from the raw
// samples: sample number floor(p * (n - 1)) + 1 in sorted order, reported as
// the upper bound of its power-of-two bucket.
TEST_F(ExpositionTest, SnapshotPercentileMatchesNearestRank) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Histogram& h = reg.GetHistogram("expo.pct.hist");
  const obs::HistogramSnapshot before =
      reg.Snapshot().histograms["expo.pct.hist"];
  Rng rng(17);
  std::vector<int64_t> samples(500);
  for (int64_t& v : samples) {
    v = static_cast<int64_t>(rng.UniformInt(1000000));
    h.Observe(v);
  }
  std::sort(samples.begin(), samples.end());
  const int64_t n = static_cast<int64_t>(samples.size());
  obs::HistogramSnapshot snap = testing::HistogramDelta(
      before, reg.Snapshot().histograms["expo.pct.hist"]);
  ASSERT_EQ(snap.count, n);
  for (double p : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    const uint64_t v = static_cast<uint64_t>(
        samples[static_cast<size_t>(p * static_cast<double>(n - 1))]);
    const int64_t bound = v == 0 ? 0 : (int64_t{1} << std::bit_width(v)) - 1;
    EXPECT_EQ(obs::SnapshotPercentile(snap, p), bound) << "p=" << p;
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
  // A count-zero snapshot with zeroed bucket entries still reports 0.
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

TEST_F(ExpositionTest, SnapshotTextLineShape) {
  obs::MetricsSnapshot snap;
  snap.counters["a.c"] = 3;
  snap.gauges["b.g"] = -2;
  snap.gauges["memory.live_bytes"] = 10;
  obs::HistogramSnapshot& h = snap.histograms["h"];
  h.count = 4;
  h.sum = 6;
  h.buckets[0] = 1;
  h.buckets[1] = 1;
  h.buckets[2] = 2;
  snap.histograms["h.empty"];
  EXPECT_EQ(obs::SnapshotText(snap),
            "a.c 3\n"
            "b.g -2\n"
            "memory.live_bytes 10\n"
            "h count=4 sum=6 mean=1.5 p50<=1 p99<=3 buckets=0:1,1:1,3:2\n"
            "h.empty count=0 sum=0 mean=0 p50<=0 p99<=0 buckets=-\n");
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
// rings or ring growth shows up here. Final counts must grow by exactly the
// writes made — scrapes never lose updates.
TEST_F(ExpositionTest, ConcurrentScrapeWhileUpdating) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter& c = reg.GetCounter("expo.conc.counter");
  obs::Histogram& h = reg.GetHistogram("expo.conc.hist");
  static constexpr obs::SpanSite kConcSpan{"expo.conc.span", "test"};
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;  // > the default ring, so sessions grow

  for (bool open_session : {false, true}) {
    SCOPED_TRACE(open_session ? "session opened mid-run" : "always-on rings");
    const int64_t counter_before = c.value();
    const int64_t hist_before = h.count();
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
    EXPECT_EQ(final_snap.counters["expo.conc.counter"] - counter_before, total);
    EXPECT_EQ(final_snap.histograms["expo.conc.hist"].count - hist_before,
              total);
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

// Histogram::count() is the bucket total, the same count a snapshot reports.
// While 4 threads Observe, the scraper reads the buckets, then count(), then
// a snapshot. Each is a later read of the same monotone atomics, so none may
// be less than the one before, and a snapshot's count equals its bucket sum.
// A count kept in its own atomic and bumped after the bucket would read less
// than the buckets summed just before it.
TEST_F(ExpositionTest, HistogramCountIsBucketSumWhileObserving) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Histogram& h = reg.GetHistogram("expo.count.hist");
  const int64_t before = h.count();
  constexpr int kThreads = 4;
  constexpr int kScrapes = 20000;
  std::latch start(kThreads + 1);
  std::atomic<bool> stop{false};
  std::vector<int64_t> writes(kThreads, 0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      int64_t i = 0;
      start.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) h.Observe(t * 1000 + i++);
      writes[t] = i;
    });
  }
  start.arrive_and_wait();
  int64_t last = before;
  for (int k = 0; k < kScrapes && !HasFailure(); ++k) {
    int64_t bucket_sum = 0;
    for (int i = 0; i < obs::Histogram::kNumBuckets; ++i) {
      bucket_sum += h.bucket(i);
    }
    const int64_t count = h.count();
    const obs::HistogramSnapshot hs =
        reg.Snapshot().histograms["expo.count.hist"];
    int64_t snap_sum = 0;
    for (int64_t b : hs.buckets) snap_sum += b;
    EXPECT_GE(bucket_sum, last) << "scrape " << k;
    EXPECT_GE(count, bucket_sum) << "scrape " << k;
    EXPECT_GE(hs.count, count) << "scrape " << k;
    EXPECT_EQ(hs.count, snap_sum) << "scrape " << k;
    last = hs.count;
  }
  stop.store(true);
  for (auto& w : workers) w.join();

  int64_t total = 0;
  for (int64_t n : writes) total += n;
  EXPECT_EQ(h.count() - before, total);
  EXPECT_EQ(reg.Snapshot().histograms["expo.count.hist"].count - before,
            total);
}

}  // namespace
}  // namespace missl
