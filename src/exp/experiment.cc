#include "src/exp/experiment.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "src/common/logging.h"

namespace omega {

std::vector<double> LogSpace(double lo, double hi, int n) {
  OMEGA_CHECK(lo > 0.0 && hi >= lo && n >= 2);
  std::vector<double> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    const double frac = static_cast<double>(i) / (n - 1);
    out.push_back(lo * std::pow(hi / lo, frac));
  }
  return out;
}

std::vector<double> LinSpace(double lo, double hi, int n) {
  OMEGA_CHECK(n >= 2);
  std::vector<double> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    const double frac = static_cast<double>(i) / (n - 1);
    out.push_back(lo + frac * (hi - lo));
  }
  return out;
}

std::string FormatValue(double v) {
  std::ostringstream os;
  os << std::setprecision(4) << v;
  return os.str();
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  OMEGA_CHECK(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::AddNumericRow(const std::vector<double>& cells) {
  std::vector<std::string> row;
  row.reserve(cells.size());
  for (double c : cells) {
    row.push_back(FormatValue(c));
  }
  AddRow(std::move(row));
}

void TablePrinter::Print(std::ostream& os) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t i = 0; i < headers_.size(); ++i) {
    widths[i] = headers_[i].size();
  }
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      os << std::left << std::setw(static_cast<int>(widths[i]) + 2) << row[i];
    }
    os << "\n";
  };
  print_row(headers_);
  size_t total = 0;
  for (size_t w : widths) {
    total += w + 2;
  }
  os << std::string(total, '-') << "\n";
  for (const auto& row : rows_) {
    print_row(row);
  }
}

void PrintCdf(std::ostream& os, const Cdf& cdf, const std::string& label,
              int points, bool log_spaced) {
  os << label << " (n=" << cdf.count() << ")\n";
  if (cdf.empty()) {
    os << "  <no samples>\n";
    return;
  }
  double lo = cdf.MinValue();
  double hi = cdf.MaxValue();
  if (log_spaced) {
    lo = std::max(lo, 1e-6);
    hi = std::max(hi, lo * 1.000001);
  }
  TablePrinter table({"value", "cdf"});
  const std::vector<double> xs =
      log_spaced ? LogSpace(lo, hi, points) : LinSpace(lo, hi, points);
  for (double x : xs) {
    table.AddNumericRow({x, cdf.FractionAtOrBelow(x)});
  }
  table.Print(os);
}

namespace {

// The value of environment variable `name`, or nullptr when it is unset or
// empty (both mean "use the default").
const char* BenchEnv(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && env[0] != '\0' ? env : nullptr;
}

}  // namespace

Duration BenchHorizon(double default_days) {
  const char* env = BenchEnv("OMEGA_BENCH_DAYS");
  if (env == nullptr) {
    return Duration::FromDays(default_days);
  }
  char* end = nullptr;
  errno = 0;
  const double days = std::strtod(env, &end);
  OMEGA_CHECK(end != env && *end == '\0' && errno == 0 &&
              std::isfinite(days) && days > 0.0)
      << "OMEGA_BENCH_DAYS must be a positive number of days, got \"" << env
      << "\"";
  return Duration::FromDays(days);
}

size_t BenchThreads() {
  const char* env = BenchEnv("OMEGA_BENCH_THREADS");
  if (env == nullptr) {
    return 0;  // ParallelFor default: hardware concurrency
  }
  char* end = nullptr;
  errno = 0;
  const long long threads = std::strtoll(env, &end, 10);
  OMEGA_CHECK(end != env && *end == '\0' && errno == 0 && threads >= 0)
      << "OMEGA_BENCH_THREADS must be an integer >= 0 (0 = hardware "
         "concurrency), got \""
      << env << "\"";
  return static_cast<size_t>(threads);
}

uint64_t BenchSeed(uint64_t default_seed) {
  const char* env = BenchEnv("OMEGA_BENCH_SEED");
  if (env == nullptr) {
    return default_seed;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long seed = std::strtoull(env, &end, 10);
  // strtoull accepts leading whitespace and a sign (wrapping "-1" to
  // 2^64 - 1), so require the value to start with a digit.
  OMEGA_CHECK(std::isdigit(static_cast<unsigned char>(env[0])) &&
              *end == '\0' && errno == 0)
      << "OMEGA_BENCH_SEED must be an integer in [0, 2^64 - 1], got \""
      << env << "\"";
  return static_cast<uint64_t>(seed);
}

}  // namespace omega
