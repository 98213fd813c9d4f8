// Measurement plumbing shared by the perfbench workloads: clocks, process
// CPU and RSS, exact order statistics, digests, in-memory spans and deltas
// of the library's own util::metrics instruments.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/atomic_file.hpp"
#include "util/metrics.hpp"

namespace perfbench {

namespace metrics = ccd::util::metrics;

/// Microseconds on the steady clock since the first call (process epoch).
inline double now_us() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

/// User + system CPU seconds consumed by the whole process so far.
inline double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Peak resident set of the process in MiB (Linux reports KiB).
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Share of the machine's CPU time that the hypervisor gave to other
/// guests between construction and share(): the steal column of the
/// kernel's /proc/stat over all CPUs. A vCPU only loses time while it has
/// work, so a busy block sees the host's interference and an idle one does
/// not. Reads -1 where the kernel does not report steal.
class StealMeter {
 public:
  StealMeter() : ticks0_(steal_ticks()), t0_(now_us()) {}

  double share() const {
    const long long ticks1 = steal_ticks();
    const double wall_s = (now_us() - t0_) / 1e6;
    const double capacity = wall_s * static_cast<double>(::sysconf(_SC_CLK_TCK)) *
                            static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
    if (ticks0_ < 0 || ticks1 < 0 || capacity <= 0.0) return -1.0;
    return static_cast<double>(ticks1 - ticks0_) / capacity;
  }

 private:
  static long long steal_ticks() {
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return -1;
    unsigned long long v[8] = {};
    const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
    std::fclose(f);
    return n == 8 ? static_cast<long long>(v[7]) : -1;
  }

  long long ticks0_;
  double t0_;
};

/// Exact quantile with linear interpolation between closest ranks (the
/// numpy default). 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

inline std::uint64_t digest(const std::string& bytes) {
  return ccd::util::fnv1a64(bytes.data(), bytes.size());
}

inline std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- spans -----------------------------------------------------------------

/// One timed call into a layer, recorded by the benchmark around a public
/// entry point. `parent` is the id of the enclosing span (0 = root);
/// `campaign` and `round` locate the span in the workload.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  std::uint32_t campaign = 0;
  std::uint32_t round = 0;

  double us() const { return end_us - start_us; }
};

/// Per-thread span buffer. Ids are unique across logs: the log index sits
/// in the high bits, so threads never share a counter.
class SpanLog {
 public:
  explicit SpanLog(std::uint64_t log_index = 0)
      : next_id_((log_index + 1) << 40) {}

  /// Reserve an id for a span whose children are recorded before it ends.
  std::uint64_t reserve() { return ++next_id_; }

  std::uint64_t add(const char* name, double start_us, double end_us,
                    std::uint64_t parent, std::uint32_t campaign,
                    std::uint32_t round, std::uint64_t id = 0) {
    Span span;
    span.id = id != 0 ? id : reserve();
    span.parent = parent;
    span.name = name;
    span.start_us = start_us;
    span.end_us = end_us;
    span.campaign = campaign;
    span.round = round;
    spans_.push_back(span);
    return span.id;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t next_id_;
  std::vector<Span> spans_;
};

/// Durations (us) of every span called `name`.
inline std::vector<double> durations(const std::vector<Span>& spans,
                                     const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back(s.us());
  }
  return out;
}

/// Write spans as JSON lines (one object per span).
inline void write_spans(const std::string& path, const std::string& workload,
                        const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                 "\"start_us\":%.3f,\"end_us\":%.3f,\"workload\":\"%s\","
                 "\"campaign\":%u,\"round\":%u}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 s.start_us, s.end_us, workload.c_str(), s.campaign, s.round);
  }
  std::fclose(f);
}

// --- library instruments ---------------------------------------------------

/// What a histogram recorded between two snapshots. Extrema are not
/// differentiable, so the later snapshot's bounds clamp the quantiles.
inline metrics::HistogramSnapshot histogram_delta(
    const metrics::HistogramSnapshot& after,
    const metrics::HistogramSnapshot& before) {
  metrics::HistogramSnapshot d;
  for (std::size_t i = 0; i < d.buckets.size(); ++i) {
    d.buckets[i] = after.buckets[i] - before.buckets[i];
  }
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  d.min = after.min;
  d.max = after.max;
  return d;
}

/// Counter and histogram readings bracketing one phase of a run.
struct InstrumentDelta {
  std::uint64_t cache_lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t pool_tasks = 0;
  metrics::HistogramSnapshot pool_task_us;
  metrics::HistogramSnapshot queue_wait_us;
};

class InstrumentWindow {
 public:
  InstrumentWindow() { read(begin_); }

  InstrumentDelta finish() const {
    Readings end;
    read(end);
    InstrumentDelta d;
    d.cache_lookups = end.lookups - begin_.lookups;
    d.cache_hits = end.hits - begin_.hits;
    d.cache_misses = end.misses - begin_.misses;
    d.pool_tasks = end.tasks - begin_.tasks;
    d.pool_task_us = histogram_delta(end.task_us, begin_.task_us);
    d.queue_wait_us = histogram_delta(end.queue_wait, begin_.queue_wait);
    return d;
  }

 private:
  struct Readings {
    std::uint64_t lookups = 0, hits = 0, misses = 0, tasks = 0;
    metrics::HistogramSnapshot task_us, queue_wait;
  };

  static void read(Readings& r) {
    for (const metrics::MetricSnapshot& m : metrics::registry().snapshot()) {
      if (m.name == "ccd.cache.lookups") r.lookups = m.counter;
      else if (m.name == "ccd.cache.hits") r.hits = m.counter;
      else if (m.name == "ccd.cache.misses") r.misses = m.counter;
      else if (m.name == "ccd.pool.tasks") r.tasks = m.counter;
      else if (m.name == "ccd.pool.task_us") r.task_us = m.histogram;
      else if (m.name == "ccd.serve.queue_wait_us") r.queue_wait = m.histogram;
    }
  }

  Readings begin_;
};

}  // namespace perfbench
