// The benchmark's own tests: span self-time arithmetic, the tiny-scale
// run of every workload, and agreement between the metric lists the
// program prints and the ones BENCHMARK.json declares.
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(SpansTest, UnionCountsOverlapOnceAndClips) {
  EXPECT_DOUBLE_EQ(UnionSeconds({{1, 4}, {3, 6}, {8, 12}}, 0, 10), 7);
  EXPECT_DOUBLE_EQ(UnionSeconds({{2, 3}, {2, 3}}, 0, 10), 1);
  EXPECT_DOUBLE_EQ(UnionSeconds({{5, 4}, {3, 3}, {-2, -1}}, 0, 10), 0);
  EXPECT_DOUBLE_EQ(UnionSeconds({}, 0, 10), 0);
}

// parent [0,10] with overlapping children [1,4] and [3,6], a child that
// runs past the parent's end [8,12], and a grandchild [1.5,2] that must
// not count against the parent.
TEST(SpansTest, SelfTimeOnHandBuiltTree) {
  SpanRecorder rec;
  const int parent = rec.Add("round", -1, 7, 0, 0);
  const int a = rec.Add("map-0", parent, 7, 1, 4);
  rec.Add("map-1", parent, 7, 3, 6);
  const int c = rec.Add("reduce-0", parent, 7, 8, 12);
  rec.Add("decode", a, 7, 1.5, 2);
  rec.Add("other-root", -1, 8, 20, 30);
  rec.SetEnd(parent, 10);
  const std::vector<Span> spans = rec.spans();
  ASSERT_EQ(spans.size(), 6u);
  EXPECT_EQ(spans[parent].end, 10);
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, parent), 10 - (5 + 2));
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, a), 3 - 0.5);
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, c), 4);
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, 42), 0);
}

// (name, unit) pairs of one BENCHMARK.json section.
std::vector<MetricSpec> DeclaredMetrics(const std::string& section) {
  std::ifstream f(PERFBENCH_SPEC_PATH);
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  const size_t begin = text.find("\"" + section + "\"");
  size_t end = text.find(']', begin);
  if (begin == std::string::npos || end == std::string::npos) return {};
  const std::string body = text.substr(begin, end - begin);
  const std::regex entry(
      R"re("name"\s*:\s*"([^"]+)"\s*,\s*"unit"\s*:\s*"([^"]+)")re");
  std::vector<MetricSpec> out;
  for (auto it = std::sregex_iterator(body.begin(), body.end(), entry);
       it != std::sregex_iterator(); ++it) {
    out.push_back({(*it)[1], (*it)[2]});
  }
  return out;
}

void ExpectSameMetrics(const std::vector<MetricSpec>& declared,
                       const std::vector<MetricSpec>& printed) {
  ASSERT_EQ(declared.size(), printed.size());
  for (size_t i = 0; i < declared.size(); ++i) {
    EXPECT_EQ(declared[i].name, printed[i].name);
    EXPECT_EQ(declared[i].unit, printed[i].unit);
  }
}

TEST(SpecTest, BenchmarkJsonDeclaresWhatTheProgramPrints) {
  ExpectSameMetrics(DeclaredMetrics("end_to_end"), EndToEndMetrics());
  ExpectSameMetrics(DeclaredMetrics("per_layer"), PerLayerMetrics());
}

class TinyWorkloadTest
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(TinyWorkloadTest, PrintsEveryMetricWithItsUnit) {
  RunOptions options;
  options.workload = std::get<0>(GetParam());
  options.trace = std::get<1>(GetParam());
  options.seed = 3;
  options.seconds = 0.5;
  options.scale = Scale::kTiny;
  options.work_dir = ::testing::TempDir() + "perfbench_test";
  gesall::Result<RunReport> report = RunWorkload(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const RunReport& r = report.ValueOrDie();
  EXPECT_TRUE(r.correct);
  EXPECT_GE(r.attempted, 1);
  EXPECT_EQ(r.failed, 0);

  const std::vector<MetricSpec>& expected =
      options.trace ? PerLayerMetrics() : EndToEndMetrics();
  ASSERT_EQ(r.metrics.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(r.metrics[i].name, expected[i].name);
    EXPECT_EQ(r.metrics[i].unit, expected[i].unit);
    EXPECT_FALSE(r.metrics[i].unit.empty());
    if (!options.trace) {
      EXPECT_GT(r.metrics[i].value, 0) << r.metrics[i].name;
    }
  }
  const std::string json = ResultJson(r);
  EXPECT_EQ(json.rfind("{\"correct\": true", 0), 0u) << json;
  for (const auto& m : expected) {
    EXPECT_NE(json.find("\"" + m.name + "\": {\"value\": "),
              std::string::npos)
        << m.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, TinyWorkloadTest,
    ::testing::Combine(::testing::Values("wgs_stream", "wgs_gz",
                                         "svc_durable"),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) ? "_traced" : "_untraced");
    });

TEST(WorkloadTest, UnknownWorkloadIsAnError) {
  RunOptions options;
  options.workload = "nope";
  options.work_dir = ::testing::TempDir() + "perfbench_test";
  EXPECT_FALSE(RunWorkload(options).ok());
}

}  // namespace
}  // namespace perfbench
