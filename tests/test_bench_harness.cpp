// Tests for the shared bench harness (bench/harness.hpp): the argument
// parser, the sampler's warm-up and interleaving, min/median, and the
// stamped BENCH writer.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/diff.hpp"

namespace {

using rmsyn::bench::Args;
using rmsyn::bench::parse_args;
using rmsyn::bench::sample;
using rmsyn::bench::Samples;
using rmsyn::bench::Warmup;
using rmsyn::obs::Json;

Args parse(std::vector<const char*> argv, const std::string& default_out,
           bool takes_names) {
  argv.insert(argv.begin(), "bench_x");
  return parse_args(static_cast<int>(argv.size()), argv.data(), default_out,
                    takes_names);
}

TEST(BenchArgs, DefaultOutputPathAndNoNames) {
  const Args a = parse({}, "BENCH_x.json", true);
  EXPECT_TRUE(a.error.empty());
  EXPECT_EQ(a.out, "BENCH_x.json");
  EXPECT_TRUE(a.names.empty());
}

TEST(BenchArgs, OutAndPositionalNames) {
  const Args a = parse({"z4ml", "--out", "o.json", "t481"}, "BENCH_x.json",
                       true);
  EXPECT_TRUE(a.error.empty());
  EXPECT_EQ(a.out, "o.json");
  EXPECT_EQ(a.names, (std::vector<std::string>{"z4ml", "t481"}));
}

TEST(BenchArgs, RejectsUnknownFlag) {
  // A dropped tuning flag must not be taken as a circuit name or ignored.
  const Args a = parse({"--max-overhead", "0", "z4ml"}, "BENCH_x.json", true);
  EXPECT_NE(a.error.find("--max-overhead"), std::string::npos);
}

TEST(BenchArgs, RejectsOutWithoutValue) {
  EXPECT_FALSE(parse({"--out"}, "BENCH_x.json", true).error.empty());
}

TEST(BenchArgs, RejectsWhatTheBenchDoesNotTake) {
  EXPECT_FALSE(parse({"z4ml"}, "BENCH_x.json", false).error.empty());
  EXPECT_FALSE(parse({"--out", "o.json"}, "", true).error.empty());
  EXPECT_EQ(parse({"z4ml"}, "", true).names,
            (std::vector<std::string>{"z4ml"}));
}

TEST(BenchSampler, WarmupIsNotCountedAndConfigurationsAlternate) {
  std::vector<char> order;
  const auto [a, b] = sample(
      3, Warmup::Once, [&] { order.push_back('a'); },
      [&] { order.push_back('b'); });
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'a', 'b', 'a', 'b', 'a', 'b'}));
  EXPECT_EQ(a.values.size(), 3u);
  EXPECT_EQ(b.values.size(), 3u);
  for (const double s : a.values) EXPECT_GE(s, 0.0);
}

TEST(BenchSampler, NoWarmupRunsExactlyK) {
  int runs = 0;
  const auto s = sample(2, Warmup::None, [&] { ++runs; })[0];
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(s.values.size(), 2u);
}

TEST(BenchSampler, SelfMeasuredSamplesAreKeptAsReturned) {
  double next = 0.0;
  const auto s = sample(3, Warmup::Once, [&] { return next += 1.0; })[0];
  EXPECT_EQ(s.values, (std::vector<double>{2.0, 3.0, 4.0}));
}

TEST(BenchSampler, MinAndMedianOnOddAndEvenCounts) {
  const Samples odd{{5.0, 1.0, 3.0}};
  EXPECT_EQ(odd.min(), 1.0);
  EXPECT_EQ(odd.median(), 3.0);
  const Samples even{{4.0, 1.0, 8.0, 2.0}};
  EXPECT_EQ(even.min(), 1.0);
  EXPECT_EQ(even.median(), 3.0);
  EXPECT_EQ(even.values, (std::vector<double>{4.0, 1.0, 8.0, 2.0}));
}

TEST(BenchWriter, StampedFileRoundTripsAndDiffsSameAgainstItself) {
  const Json doc = rmsyn::bench::bench_doc(
      "x", {{"seconds", 0.125},
            {"results_identical", true},
            {"rows", Json::array()}});
  const std::string path = ::testing::TempDir() + "rmsyn_BENCH_x.json";
  ASSERT_TRUE(rmsyn::bench::write_bench(path, doc));
  const Json back = Json::parse(rmsyn::obs::read_file(path));
  std::remove(path.c_str());
  EXPECT_EQ(back, doc);
  EXPECT_EQ(back.get("bench").as_string(), "x");
  EXPECT_TRUE(back.get("hardware_threads").is_number());
  EXPECT_EQ(back.members()[2].first, "seconds");
  const rmsyn::obs::DiffResult d =
      rmsyn::obs::diff_documents(back, back, rmsyn::obs::DiffOptions{});
  EXPECT_EQ(d.worst, rmsyn::obs::Verdict::Same);
}

TEST(BenchWriter, UnwritablePathFails) {
  EXPECT_FALSE(rmsyn::bench::write_bench(
      ::testing::TempDir() + "no_such_dir/BENCH_x.json",
      rmsyn::bench::bench_doc("x", {})));
}

} // namespace
