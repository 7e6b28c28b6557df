// The shared bench baseline gate and flag parser (bench/table_common),
// run on doctored in-memory documents.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "table_common.hpp"

namespace chortle::bench {
namespace {

obs::Json row(const std::string& name, int k, int luts, double seconds) {
  obs::Json entry = obs::Json::object();
  entry.set("name", name);
  entry.set("k", k);
  entry.set("luts", luts);
  entry.set("blif_fnv1a64", "ace57903006f0994");
  entry.set("seconds_serial", seconds);
  entry.set("seconds_jobs", seconds);
  return entry;
}

/// Two rows of 10 ms each per seconds column: above the 5 ms floor.
obs::Json doc(double seconds = 0.010) {
  obs::Json rows = obs::Json::array();
  rows.push_back(row("count", 2, 64, seconds));
  rows.push_back(row("frg1", 2, 130, seconds));
  obs::Json out = obs::Json::object();
  out.set("schema", "chortle-bench/1");
  out.set("benchmarks", std::move(rows));
  return out;
}

/// The "benchmarks" array of a document built by doc().
obs::Json::Array& rows_of(obs::Json& document) {
  return document.as_object()[1].second.as_array();
}

obs::Json& first_row(obs::Json& document) { return rows_of(document)[0]; }

TEST(BenchGate, IdenticalRunsPass) {
  EXPECT_EQ(compare_to_baseline(doc(), doc(), "test"), 0);
}

TEST(BenchGate, LutMismatchFails) {
  obs::Json baseline = doc();
  first_row(baseline).set("luts", 65);
  EXPECT_EQ(compare_to_baseline(doc(), baseline, "test"), 1);
}

TEST(BenchGate, HashMismatchFails) {
  obs::Json baseline = doc();
  first_row(baseline).set("blif_fnv1a64", "0000000000000000");
  EXPECT_EQ(compare_to_baseline(doc(), baseline, "test"), 1);
}

TEST(BenchGate, EveryNonTimingBaselineFieldIsExact) {
  // A field the bench never gated by name is still exact...
  obs::Json baseline = doc();
  first_row(baseline).set("winner", "cutmap");
  obs::Json current = doc();
  first_row(current).set("winner", "chortle");
  EXPECT_EQ(compare_to_baseline(current, baseline, "test"), 1);
  // ...a field missing from the current run is a mismatch...
  EXPECT_EQ(compare_to_baseline(doc(), baseline, "test"), 1);
  // ...and a field the baseline predates is not compared.
  first_row(current).set("winner", "cutmap");
  first_row(current).set("depth", 7);
  EXPECT_EQ(compare_to_baseline(current, baseline, "test"), 0);
}

TEST(BenchGate, DoubledSecondsRegress) {
  EXPECT_EQ(compare_to_baseline(doc(0.020), doc(0.010), "test"), 3);
  // Within the 15% tolerance passes.
  EXPECT_EQ(compare_to_baseline(doc(0.011), doc(0.010), "test"), 0);
}

TEST(BenchGate, ExactMismatchOutranksTimingRegression) {
  obs::Json baseline = doc(0.010);
  first_row(baseline).set("luts", 65);
  EXPECT_EQ(compare_to_baseline(doc(0.020), baseline, "test"), 1);
}

TEST(BenchGate, SubFiveMillisecondTotalsAreNotTimed) {
  // 2 x 1 ms = 2 ms per column: below the floor, so 10x slower passes.
  EXPECT_EQ(compare_to_baseline(doc(0.010), doc(0.001), "test"), 0);
}

TEST(BenchGate, NoSharedRowsIsUnusable) {
  obs::Json baseline = doc();
  for (obs::Json& entry : rows_of(baseline)) entry.set("k", 6);
  EXPECT_EQ(compare_to_baseline(doc(), baseline, "test"), 2);
  EXPECT_EQ(compare_to_baseline(doc(), obs::Json::object(), "test"), 2);
}

TEST(BenchGate, MissingBaselineFileIsUnusable) {
  EXPECT_EQ(check_against_baseline(doc(), "/nonexistent/baseline.json",
                                   "test"),
            2);
}

/// parse_flags over a whitespace-free argument list.
bool parse(std::vector<std::string> args, int* repeat, std::string* out) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return parse_flags(static_cast<int>(argv.size()), argv.data(),
                     {{"--repeat", repeat}, {"--out", out}}, "usage\n");
}

TEST(BenchFlags, ParsesWholeNumbersAndStrings) {
  int repeat = 1;
  std::string out;
  EXPECT_TRUE(parse({"--repeat", "5", "--out", "x.json"}, &repeat, &out));
  EXPECT_EQ(repeat, 5);
  EXPECT_EQ(out, "x.json");
}

TEST(BenchFlags, RejectsNumbersWithTrailingJunk) {
  int repeat = 1;
  std::string out;
  EXPECT_FALSE(parse({"--repeat", "2x"}, &repeat, &out));
  EXPECT_FALSE(parse({"--repeat", "15%"}, &repeat, &out));
  EXPECT_FALSE(parse({"--repeat", ""}, &repeat, &out));
  EXPECT_FALSE(parse({"--repeat", "99999999999"}, &repeat, &out));
}

TEST(BenchFlags, RejectsUnknownFlagsAndMissingValues) {
  int repeat = 1;
  std::string out;
  EXPECT_FALSE(parse({"--tolerance", "0.15"}, &repeat, &out));
  EXPECT_FALSE(parse({"--repeat"}, &repeat, &out));
}

}  // namespace
}  // namespace chortle::bench
