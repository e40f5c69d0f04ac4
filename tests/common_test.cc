// Tests for the remaining common utilities: SimTime/Duration arithmetic,
// ParallelFor, JSON emission, and logging levels.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/common/parallel_for.h"
#include "src/common/sim_time.h"

namespace omega {
namespace {

TEST(SimTimeTest, ConversionsRoundTrip) {
  EXPECT_EQ(SimTime::FromSeconds(1.5).micros(), 1500000);
  EXPECT_EQ(SimTime::FromMillis(2.0).micros(), 2000);
  EXPECT_EQ(SimTime::FromMinutes(1.0), SimTime::FromSeconds(60.0));
  EXPECT_EQ(SimTime::FromHours(1.0), SimTime::FromSeconds(3600.0));
  EXPECT_EQ(SimTime::FromDays(1.0), SimTime::FromHours(24.0));
  EXPECT_DOUBLE_EQ(SimTime::FromSeconds(90.0).ToSeconds(), 90.0);
  EXPECT_DOUBLE_EQ(SimTime::FromHours(36.0).ToDays(), 1.5);
}

TEST(SimTimeTest, Arithmetic) {
  const SimTime t = SimTime::FromSeconds(100);
  const Duration d = Duration::FromSeconds(40);
  EXPECT_EQ(t + d, SimTime::FromSeconds(140));
  EXPECT_EQ(t - d, SimTime::FromSeconds(60));
  EXPECT_EQ((t + d) - t, d);
  EXPECT_EQ(d + d, Duration::FromSeconds(80));
  EXPECT_EQ(d - Duration::FromSeconds(10), Duration::FromSeconds(30));
  EXPECT_EQ(d * 2.5, Duration::FromSeconds(100));
  EXPECT_EQ(2.5 * d, Duration::FromSeconds(100));
  EXPECT_DOUBLE_EQ(Duration::FromSeconds(80) / d, 2.0);
}

TEST(SimTimeTest, Comparisons) {
  EXPECT_LT(SimTime::FromSeconds(1), SimTime::FromSeconds(2));
  EXPECT_EQ(SimTime::Zero(), SimTime(0));
  EXPECT_GT(SimTime::Max(), SimTime::FromDays(100000));
  EXPECT_LE(Duration::Zero(), Duration::FromMillis(1));
}

TEST(SimTimeTest, Streaming) {
  std::ostringstream os;
  os << SimTime::FromSeconds(2.5) << " " << Duration::FromSeconds(0.5);
  EXPECT_EQ(os.str(), "2.5s 0.5s");
}

TEST(ParallelForTest, CoversAllIndicesOnce) {
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); }, 8);
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelForTest, ZeroIterationsIsNoop) {
  ParallelFor(0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelForTest, SingleThreadFallback) {
  std::vector<int> order;
  ParallelFor(5, [&](size_t i) { order.push_back(static_cast<int>(i)); }, 1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, MoreThreadsThanWork) {
  std::atomic<int> sum{0};
  ParallelFor(3, [&](size_t i) { sum.fetch_add(static_cast<int>(i) + 1); }, 64);
  EXPECT_EQ(sum.load(), 6);
}

// Regression: an exception thrown inside fn used to escape the worker thread
// and call std::terminate. It must surface on the joining thread instead.
TEST(ParallelForTest, ExceptionRethrownOnCallingThread) {
  EXPECT_THROW(
      ParallelFor(
          100,
          [](size_t i) {
            if (i == 17) {
              throw std::runtime_error("trial 17 failed");
            }
          },
          4),
      std::runtime_error);
}

TEST(ParallelForTest, ExceptionStopsSchedulingNewIterations) {
  std::atomic<int> started{0};
  try {
    ParallelFor(
        1000000,
        [&](size_t) {
          started.fetch_add(1);
          throw std::runtime_error("boom");
        },
        4);
    FAIL() << "expected the exception to propagate";
  } catch (const std::runtime_error&) {
  }
  // At most one in-flight iteration per worker after the first throw.
  EXPECT_LE(started.load(), 8);
}

TEST(ParallelForTest, ExceptionPropagatesFromSingleThreadPath) {
  EXPECT_THROW(
      ParallelFor(
          5, [](size_t) { throw std::logic_error("serial"); }, 1),
      std::logic_error);
}

TEST(ParallelForTest, ExceptionPreservesMessage) {
  try {
    ParallelFor(
        8, [](size_t) { throw std::runtime_error("exact message"); }, 4);
    FAIL() << "expected the exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "exact message");
  }
}

std::string RenderNumber(double v) {
  std::ostringstream os;
  json::AppendNumber(os, v);
  return os.str();
}

TEST(JsonTest, AppendNumberRoundTripsFiniteValues) {
  const double values[] = {0.0,
                           1.0,
                           -2.5,
                           0.1,
                           1.0 / 3.0,
                           9.531760859161224e-05,
                           1e300,
                           -1e-300,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::lowest()};
  for (const double v : values) {
    const std::string s = RenderNumber(v);
    const double parsed = std::strtod(s.c_str(), nullptr);
    EXPECT_EQ(parsed, v) << "rendered as " << s;
  }
}

TEST(JsonTest, AppendNumberEmitsNullForNonFiniteValues) {
  // JSON has no NaN/Infinity; an empty-Cdf percentile or a zero-duration
  // rate must not poison the whole document.
  EXPECT_EQ(RenderNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(RenderNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(RenderNumber(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonTest, AppendNumberIgnoresStreamFormatState) {
  // A caller that left hexfloat/fixed/precision set on the stream must not
  // change what lands in the document.
  std::ostringstream os;
  os << std::hexfloat << std::setprecision(2);
  json::AppendNumber(os, 0.1);
  os << ' ';
  os.setf(std::ios::fixed, std::ios::floatfield);
  json::AppendNumber(os, 1e-7);
  EXPECT_EQ(os.str(), "0.1 1e-07");
}

TEST(LoggingTest, LevelFiltering) {
  const LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kWarning);
  EXPECT_FALSE(OMEGA_LOG_IS_ON(kDebug));
  EXPECT_FALSE(OMEGA_LOG_IS_ON(kInfo));
  EXPECT_TRUE(OMEGA_LOG_IS_ON(kWarning));
  EXPECT_TRUE(OMEGA_LOG_IS_ON(kError));
  SetLogLevel(old);
}

TEST(LoggingDeathTest, CheckFailureAborts) {
  EXPECT_DEATH({ OMEGA_CHECK(1 == 2) << "impossible"; }, "Check failed");
}

TEST(LoggingTest, CheckPassesSilently) {
  OMEGA_CHECK(true) << "never evaluated";
  SUCCEED();
}

}  // namespace
}  // namespace omega
