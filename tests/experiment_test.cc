#include "src/exp/experiment.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>

namespace omega {
namespace {

TEST(LogSpaceTest, EndpointsAndMonotonicity) {
  const auto v = LogSpace(0.01, 100.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_NEAR(v.front(), 0.01, 1e-12);
  EXPECT_NEAR(v.back(), 100.0, 1e-9);
  EXPECT_NEAR(v[2], 1.0, 1e-9);  // geometric midpoint
  for (size_t i = 1; i < v.size(); ++i) {
    EXPECT_GT(v[i], v[i - 1]);
  }
}

TEST(LinSpaceTest, EvenSpacing) {
  const auto v = LinSpace(0.0, 10.0, 6);
  ASSERT_EQ(v.size(), 6u);
  for (size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(v[i], 2.0 * static_cast<double>(i), 1e-12);
  }
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer_name", "2.5"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer_name"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TablePrinterTest, NumericRows) {
  TablePrinter t({"a", "b"});
  t.AddNumericRow({1.23456789, 1e6});
  std::ostringstream os;
  t.Print(os);
  EXPECT_NE(os.str().find("1.235"), std::string::npos);
}

TEST(TablePrinterDeathTest, WrongArityAborts) {
  TablePrinter t({"a", "b"});
  EXPECT_DEATH(t.AddRow({"only-one"}), "Check failed");
}

TEST(PrintCdfTest, RendersRows) {
  Cdf cdf;
  for (int i = 1; i <= 100; ++i) {
    cdf.Add(i);
  }
  std::ostringstream os;
  PrintCdf(os, cdf, "test-cdf", 6);
  const std::string out = os.str();
  EXPECT_NE(out.find("test-cdf"), std::string::npos);
  EXPECT_NE(out.find("n=100"), std::string::npos);
}

TEST(PrintCdfTest, EmptyCdf) {
  Cdf cdf;
  std::ostringstream os;
  PrintCdf(os, cdf, "empty");
  EXPECT_NE(os.str().find("no samples"), std::string::npos);
}

TEST(BenchHorizonTest, DefaultAndOverride) {
  unsetenv("OMEGA_BENCH_DAYS");
  EXPECT_EQ(BenchHorizon(2.0), Duration::FromDays(2.0));
  setenv("OMEGA_BENCH_DAYS", "", 1);  // empty means unset
  EXPECT_EQ(BenchHorizon(2.0), Duration::FromDays(2.0));
  setenv("OMEGA_BENCH_DAYS", "0.5", 1);
  EXPECT_EQ(BenchHorizon(2.0), Duration::FromDays(0.5));
  unsetenv("OMEGA_BENCH_DAYS");
}

TEST(BenchThreadsTest, DefaultAndOverride) {
  unsetenv("OMEGA_BENCH_THREADS");
  EXPECT_EQ(BenchThreads(), 0u);
  setenv("OMEGA_BENCH_THREADS", "", 1);
  EXPECT_EQ(BenchThreads(), 0u);
  setenv("OMEGA_BENCH_THREADS", "4", 1);
  EXPECT_EQ(BenchThreads(), 4u);
  setenv("OMEGA_BENCH_THREADS", "0", 1);  // hardware concurrency
  EXPECT_EQ(BenchThreads(), 0u);
  unsetenv("OMEGA_BENCH_THREADS");
}

TEST(BenchSeedTest, DefaultAndOverride) {
  unsetenv("OMEGA_BENCH_SEED");
  EXPECT_EQ(BenchSeed(7000), 7000u);
  setenv("OMEGA_BENCH_SEED", "", 1);
  EXPECT_EQ(BenchSeed(7000), 7000u);
  setenv("OMEGA_BENCH_SEED", "31337", 1);
  EXPECT_EQ(BenchSeed(7000), 31337u);
  setenv("OMEGA_BENCH_SEED", "0", 1);
  EXPECT_EQ(BenchSeed(7000), 0u);
  setenv("OMEGA_BENCH_SEED", "18446744073709551615", 1);
  EXPECT_EQ(BenchSeed(7000), UINT64_MAX);
  unsetenv("OMEGA_BENCH_SEED");
}

// A value that does not parse completely must fail loudly, naming the
// variable, instead of silently running the default.
TEST(BenchHorizonDeathTest, MalformedDaysAbort) {
  for (const char* bad : {"0.5d", "abc", "-1", "0", "inf", "1e999"}) {
    SCOPED_TRACE(bad);
    EXPECT_DEATH(
        {
          setenv("OMEGA_BENCH_DAYS", bad, 1);
          BenchHorizon(2.0);
        },
        "OMEGA_BENCH_DAYS");
  }
}

TEST(BenchHorizonDeathTest, MalformedThreadsAbort) {
  for (const char* bad : {"four", "4x", "-1", "2.5"}) {
    SCOPED_TRACE(bad);
    EXPECT_DEATH(
        {
          setenv("OMEGA_BENCH_THREADS", bad, 1);
          BenchThreads();
        },
        "OMEGA_BENCH_THREADS");
  }
}

// "12abc" must not become 12, "-1" must not wrap to 2^64 - 1, and "abc"
// must not fall back to the default.
TEST(BenchSeedDeathTest, MalformedSeedAborts) {
  for (const char* bad : {"12abc", "-1", "abc", "+5", " 5", "1.5",
                          "18446744073709551616"}) {
    SCOPED_TRACE(bad);
    EXPECT_DEATH(
        {
          setenv("OMEGA_BENCH_SEED", bad, 1);
          BenchSeed(7000);
        },
        "OMEGA_BENCH_SEED");
  }
}

}  // namespace
}  // namespace omega
