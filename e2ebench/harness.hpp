// Measurement plumbing shared by the workloads: the result record printed
// as the last line of output, exact and histogram-derived percentiles, the
// benchmark's own spans, and kStats scrapes summed over a cluster's nodes.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/stats.hpp"
#include "common/clock.hpp"
#include "common/histogram.hpp"
#include "volap/volap.hpp"

namespace e2e {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one run reports besides its answer checks. `endToEnd` is
/// printed with --trace 0, `layers` with --trace 1; `notes` are
/// human-readable lines printed before the result.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> endToEnd;
  std::vector<Metric> layers;
  std::vector<std::string> notes;

  void e2e(const std::string& name, double value, const std::string& unit) {
    endToEnd.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back({name, value, unit});
  }
  void note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
};

inline void Result::note(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  notes.emplace_back(buf);
}

inline double msOf(std::uint64_t nanos) {
  return static_cast<double>(nanos) / 1e6;
}

inline double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Exact quantile of raw samples, linearly interpolated between ranks.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Quantile of a client's latency histogram, interpolated inside the bucket
/// that holds it. The histogram only answers "upper bound of the bucket
/// holding rank k", which would quantize a median to ~6% steps; ranks
/// are located by bisection over that public query, and the value is
/// placed linearly between the bucket's bounds by rank.
inline double histQuantileNanos(const volap::LatencyHistogram& h, double q) {
  const std::uint64_t n = h.count();
  if (n == 0) return 0;
  auto upperAtRank = [&](std::uint64_t k) {  // 1-based rank
    return h.quantileNanos((static_cast<double>(k) - 0.5) /
                           static_cast<double>(n));
  };
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))));
  const std::uint64_t upper = upperAtRank(target);
  // First and last rank whose bucket upper bound equals `upper`.
  std::uint64_t lo = 1, hi = target;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (upperAtRank(mid) >= upper) hi = mid; else lo = mid + 1;
  }
  const std::uint64_t first = lo;
  lo = target;
  hi = n;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo + 1) / 2;
    if (upperAtRank(mid) <= upper) lo = mid; else hi = mid - 1;
  }
  const std::uint64_t last = lo;
  const int bucket = volap::LatencyHistogram::bucketFor(upper);
  const double bLo = static_cast<double>(
      std::max(volap::LatencyHistogram::bucketLower(bucket), h.minNanos()));
  const double bHi = static_cast<double>(
      std::min<std::uint64_t>(upper, h.maxNanos()));
  const double frac = (static_cast<double>(target - first) + 0.5) /
                      static_cast<double>(last - first + 1);
  return bLo + (bHi - bLo) * frac;
}

/// Spans the benchmark records around its calls into the program: name,
/// start, end, parent. Kept in memory and written out when the run ends.
/// Recording is off unless the run is traced.
class Spans {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::string name;
    std::uint64_t startNanos = 0;
    std::uint64_t endNanos = 0;
  };

  void enable() { on_ = true; }
  bool on() const { return on_; }

  std::uint64_t begin(const std::string& name, std::uint64_t parent = 0) {
    if (!on_) return 0;
    std::lock_guard lock(mu_);
    const std::uint64_t id = spans_.size() + 1;
    spans_.push_back({id, parent, name, volap::nowNanos(), 0});
    return id;
  }
  void end(std::uint64_t id) {
    if (id == 0) return;
    std::lock_guard lock(mu_);
    spans_[id - 1].endNanos = volap::nowNanos();
  }
  std::size_t size() const {
    std::lock_guard lock(mu_);
    return spans_.size();
  }

  /// One JSON object per line: {"id","parent","name","start_ns","end_ns"}.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard lock(mu_);
    for (const Span& s : spans_)
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                   "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name.c_str(),
                   static_cast<unsigned long long>(s.startNanos),
                   static_cast<unsigned long long>(s.endNanos));
    return std::fclose(f) == 0;
  }

 private:
  bool on_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class SpanScope {
 public:
  SpanScope(Spans& spans, const std::string& name, std::uint64_t parent = 0)
      : spans_(spans), id_(spans.begin(name, parent)) {}
  ~SpanScope() { spans_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  Spans& spans_;
  std::uint64_t id_;
};

/// kStats registries of a set of nodes, summed: counters and gauges add up;
/// histogram counts and sums add up (so deltas give exact means) and the
/// p99 is the largest any node reports.
struct Scrape {
  std::map<std::string, double> values;
  std::map<std::string, volap::HistogramStats> hists;

  double value(const std::string& name) const {
    auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  }
  volap::HistogramStats hist(const std::string& name) const {
    auto it = hists.find(name);
    return it == hists.end() ? volap::HistogramStats{} : it->second;
  }
};

inline Scrape scrape(volap::VolapCluster& cluster,
                     const std::vector<std::string>& endpoints) {
  Scrape s;
  for (const auto& reply : volap::scrapeStats(cluster.fabric(), endpoints)) {
    for (const auto& [n, v] : reply.snapshot.counters)
      s.values[n] += static_cast<double>(v);
    for (const auto& [n, v] : reply.snapshot.gauges)
      s.values[n] += static_cast<double>(v);
    for (const auto& [n, h] : reply.snapshot.histograms) {
      auto& acc = s.hists[n];
      acc.count += h.count;
      acc.sum += h.sum;
      acc.p99 = std::max(acc.p99, h.p99);
    }
  }
  return s;
}

/// Poll `pred` every millisecond until it holds or `timeout` passes.
template <typename Pred>
bool waitUntil(Pred pred, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

}  // namespace e2e
