#pragma once

// Shared plumbing of the repository benchmark: clocks, sample statistics,
// the metric table printed at the end of a run, the benchmark-side span
// recorder used by traced runs, and host facts.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using clock_type = std::chrono::steady_clock;
using time_point = clock_type::time_point;

inline time_point now() { return clock_type::now(); }

inline double ms_between(time_point a, time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double seconds_between(time_point a, time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- sample statistics -----------------------------------------------------

/// Median; NaN when empty, infinite when most samples are.
inline double median(std::vector<double> v) {
  if (v.empty())
    return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  std::size_t const mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

inline double mean(std::vector<double> const& v) {
  if (v.empty())
    return std::numeric_limits<double>::quiet_NaN();
  double s = 0.0;
  for (double x : v)
    s += x;
  return s / static_cast<double>(v.size());
}

/// Tail of a latency sample: the nearest-rank `percentile`.  Each
/// workload fixes its percentiles and its minimum sample counts so that at
/// least ten samples lie beyond the tail (`beyond`, printed with the
/// value).  A fixed percentile, rather than the highest one the sample count
/// allows, keeps a faster program from being charged with a higher
/// percentile for taking more samples in the same time.
struct tail_stat {
  double value = std::numeric_limits<double>::quiet_NaN();
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

inline tail_stat tail_of(std::vector<double> v, double percentile) {
  tail_stat t;
  t.percentile = percentile;
  t.samples = v.size();
  if (v.empty())
    return t;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(percentile / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  t.value = v[rank - 1];
  t.beyond = v.size() - rank;
  return t;
}

// --- metric table ------------------------------------------------------------

struct metric {
  std::string name;
  double value;
  std::string unit;
};

class metric_table {
 public:
  void add(std::string name, double value, std::string unit) {
    rows_.push_back({std::move(name), value, std::move(unit)});
  }
  std::vector<metric> const& rows() const { return rows_; }

  /// One JSON object on one line: the benchmark's result record.  Callers
  /// check all_finite() first (JSON has no NaN or infinity).
  void print_result(bool correct, std::uint64_t attempted,
                    std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", rows_[i].value);
      out += (i ? ", " : "") + std::string("\"") + rows_[i].name +
             "\": {\"value\": " + buf + ", \"unit\": \"" + rows_[i].unit +
             "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

  bool all_finite() const {
    for (auto const& r : rows_)
      if (!std::isfinite(r.value))
        return false;
    return true;
  }

 private:
  std::vector<metric> rows_;
};

// --- benchmark-side spans (traced runs only) --------------------------------

/// Spans recorded from the benchmark's own code around each call into a
/// layer.  Kept in memory and written out when the run ends.
class span_log {
 public:
  struct span {
    std::string name;
    std::uint64_t id;
    std::uint64_t parent;
    double start_ms;
    double end_ms;
  };

  explicit span_log(bool enabled) : enabled_(enabled), origin_(now()) {}

  std::uint64_t record(std::string name, time_point start, time_point end,
                       std::uint64_t parent = 0) {
    if (!enabled_)
      return 0;
    std::lock_guard<std::mutex> guard(mutex_);
    std::uint64_t const id = ++next_id_;
    spans_.push_back({std::move(name), id, parent, ms_between(origin_, start),
                      ms_between(origin_, end)});
    return id;
  }

  void write_json(std::FILE* f) const {
    std::lock_guard<std::mutex> guard(mutex_);
    std::fprintf(f, "[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto const& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"start_ms\":%.6f,\"end_ms\":%.6f}",
                   i ? "," : "", s.name.c_str(),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.start_ms,
                   s.end_ms);
    }
    std::fprintf(f, "\n]");
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return spans_.size();
  }

 private:
  bool const enabled_;
  time_point const origin_;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 0;
  std::vector<span> spans_;
};

// --- host facts --------------------------------------------------------------

inline std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    int const n = CPU_COUNT(&set);
    if (n > 0)
      return static_cast<std::size_t>(n);
  }
  long const n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

/// Last-level cache size in bytes (0 when the platform does not say).
inline std::size_t llc_bytes() {
#ifdef _SC_LEVEL3_CACHE_SIZE
  long const l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0)
    return static_cast<std::size_t>(l3);
#endif
#ifdef _SC_LEVEL2_CACHE_SIZE
  long const l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (l2 > 0)
    return static_cast<std::size_t>(l2);
#endif
  return 0;
}

/// A `Vm*` field of /proc/self/status in KiB (-1 when absent).
inline double proc_status_kb(char const* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f)
    return -1;
  std::size_t const len = std::char_traits<char>::length(field);
  char line[256];
  double kb = -1;
  while (std::fgets(line, sizeof line, f))
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      kb = std::strtod(line + len + 1, nullptr);
      break;
    }
  std::fclose(f);
  return kb;
}

/// Resets the process's resident-set high-water mark (VmHWM) to the
/// current resident set and returns that resident set in KiB.  Memory held
/// before the reset (inputs, reference answers) is then excluded by
/// subtracting the returned baseline from a later VmHWM.
inline double reset_peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  bool const reset = f && std::fputs("5", f) >= 0;
  if (f && std::fclose(f) != 0)
    return -1;
  return reset ? proc_status_kb("VmRSS") : -1;
}

/// Deterministic 64-bit generator for the benchmark's own choices (sources,
/// request mix, deltas).  splitmix64.
class rng64 {
 public:
  explicit rng64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  double unit() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

}  // namespace perfbench
