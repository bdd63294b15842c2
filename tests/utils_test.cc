// Tests for the utility substrate: Status, Table rendering, RNG statistical
// sanity, and logging level filtering.
#include <cmath>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "utils/logging.h"
#include "utils/rng.h"
#include "utils/status.h"
#include "utils/table.h"

namespace missl {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status s = Status::IOError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_EQ(s.ToString(), "IO_ERROR: disk on fire");
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(TableTest, RendersAlignedColumns) {
  Table t({"Name", "Value"});
  t.Row().Cell("alpha").Num(0.5, 2);
  t.Row().Cell("b").Int(42);
  std::string s = t.ToString();
  EXPECT_NE(s.find("| Name  | Value |"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 0.50  |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 42    |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, WideCellsGrowColumn) {
  Table t({"X"});
  t.Row().Cell("very-long-content");
  EXPECT_NE(t.ToString().find("very-long-content"), std::string::npos);
}

TEST(TableDeathTest, CellBeforeRowAborts) {
  Table t({"X"});
  EXPECT_DEATH(t.Cell("boom"), "Row");
}

TEST(RngTest, UniformMeanAndRange) {
  Rng rng(1);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    float u = rng.Uniform();
    ASSERT_GE(u, 0.0f);
    ASSERT_LT(u, 1.0f);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000, 0.5, 0.01);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(2);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    float v = rng.Normal();
    sum += v;
    sq += double(v) * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, UniformIntUnbiasedOverSmallRange) {
  Rng rng(3);
  std::map<uint64_t, int> counts;
  const int n = 30000;
  for (int i = 0; i < n; ++i) counts[rng.UniformInt(3)]++;
  for (auto& [v, c] : counts) {
    EXPECT_LT(v, 3u);
    EXPECT_NEAR(static_cast<double>(c) / n, 1.0 / 3.0, 0.02);
  }
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(4);
  std::vector<float> w = {1.0f, 3.0f};
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ones += rng.Categorical(w) == 1 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.02);
}

TEST(RngTest, ZipfSkewsTowardSmallRanks) {
  Rng rng(5);
  int64_t low = 0, high = 0;
  for (int i = 0; i < 10000; ++i) {
    size_t r = rng.Zipf(100, 1.1);
    ASSERT_LT(r, 100u);
    (r < 10 ? low : high)++;
  }
  EXPECT_GT(low, high);  // top-10 ranks dominate the tail 90
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(6);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(7);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.Bernoulli(0.2f) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.2, 0.015);
}

TEST(RngDeathTest, CategoricalRejectsAllZeros) {
  Rng rng(8);
  std::vector<float> w = {0.0f, 0.0f};
  EXPECT_DEATH(rng.Categorical(w), "zero");
}

TEST(LoggingTest, LevelFilters) {
  SetLogLevel(LogLevel::kError);
  testing::internal::CaptureStderr();
  MISSL_LOG_INFO << "this should be swallowed";
  MISSL_LOG_ERROR << "this should be printed";
  const std::string err = testing::internal::GetCapturedStderr();
  SetLogLevel(LogLevel::kInfo);  // the default in logging.cc
  EXPECT_EQ(err.find("swallowed"), std::string::npos) << err;
  EXPECT_NE(err.find("[E] this should be printed\n"), std::string::npos)
      << err;
}

}  // namespace
}  // namespace missl
