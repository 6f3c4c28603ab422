// Process metrics: atomic counters/gauges, fixed-boundary histograms,
// and a Prometheus text-format renderer.
//
// A MetricsRegistry is the single source of truth for a service's
// machine-readable state. Scalar metrics come in two flavors that share
// one namespace:
//
//   * *live* counters/gauges (MetricCounter/MetricGauge) — lock-free
//     atomics registered once and bumped on the hot path (the query
//     service's latency and queue-wait histograms live here too);
//   * *exported* scalars — existing counters (ServiceStats, store and
//     maintenance counters) are snapshotted into the registry at scrape
//     time via SetScalar, so sources that already aggregate elsewhere
//     need no second write path. ExportServiceStats (service/protocol.h)
//     does this mechanically from the ServiceStats field list, so a new
//     counter cannot silently skip the registry.
//
// Histograms have fixed bucket boundaries chosen at registration;
// Observe() is two relaxed atomic adds plus a branchless-ish bucket
// search, and Quantile() derives p50/p95/p99 by linear interpolation
// within the owning bucket — replacing the service's old bounded sample
// ring (which silently stopped reflecting the tail once the window
// wrapped).
//
// RenderPrometheus() emits the text exposition format (version 0.0.4):
// `# HELP`/`# TYPE` per metric, cumulative `_bucket{le="..."}` series
// plus `_sum`/`_count` per histogram, metrics sorted by name. Both the
// {"op":"metrics"} admin op and amalgamd's --metrics-tcp listener (one
// more listener on the daemon's event loop, net/server.h) serve exactly
// this text through one function, RenderMetrics (service/session.h), so
// the two scrape surfaces can never disagree.
#ifndef AMALGAM_OBS_METRICS_H_
#define AMALGAM_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace amalgam {

/// Monotonically increasing value. Add() on the hot path; Set() for
/// scrape-time export of an externally-aggregated total.
class MetricCounter {
 public:
  void Add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void Set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A value that can go up or down.
class MetricGauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-boundary histogram. `bounds` are the upper-inclusive bucket
/// limits in ascending order; one overflow (+Inf) bucket is implicit.
class MetricHistogram {
 public:
  explicit MetricHistogram(std::vector<double> bounds);

  void Observe(double value);

  /// The q-quantile (q in [0,1]) estimated from the bucket counts:
  /// linear interpolation inside the bucket holding the target rank;
  /// observations in the overflow bucket clamp to the largest finite
  /// boundary. 0 when nothing was observed.
  double Quantile(double q) const;

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Raw (non-cumulative) count of bucket `i`; i == bounds().size() is
  /// the overflow bucket.
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  const std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds+1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Latency-shaped default boundaries in milliseconds: 50µs .. 10s,
/// roughly 1-2.5-5 per decade.
std::vector<double> DefaultLatencyBoundsMs();

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-global registry (amalgamd wires the service to it; tests
  /// construct private registries to stay isolated).
  static MetricsRegistry& Global();

  /// Find-or-register. Names must match [a-zA-Z_:][a-zA-Z0-9_:]* and are
  /// unique across all kinds; re-registering an existing name with a
  /// different kind throws std::invalid_argument. Returned references
  /// stay valid for the registry's lifetime.
  MetricCounter& Counter(const std::string& name, const std::string& help);
  MetricGauge& Gauge(const std::string& name, const std::string& help);
  MetricHistogram& Histogram(const std::string& name, const std::string& help,
                             std::vector<double> bounds);

  /// Scrape-time export of an externally-aggregated scalar: registers
  /// `name` as a counter or gauge if needed and sets its value.
  void SetScalar(MetricKind kind, const std::string& name,
                 const std::string& help, double value);

  /// An info-style labeled gauge, e.g.
  ///   amalgam_build_info{build_type="Release",version="0.10.0"} 1
  /// `labels` is the rendered label body without braces.
  void SetLabeledGauge(const std::string& name, const std::string& help,
                       const std::string& labels, double value);

  /// Every registered metric name, sorted (histograms by base name).
  std::vector<std::string> MetricNames() const;

  /// The full registry in Prometheus text format (version 0.0.4).
  std::string RenderPrometheus() const;

 private:
  struct Scalar {
    MetricKind kind = MetricKind::kGauge;
    std::string help;
    std::string labels;  // rendered label body, "" for none
    std::unique_ptr<MetricCounter> counter;
    std::unique_ptr<MetricGauge> gauge;
  };
  struct Hist {
    std::string help;
    std::unique_ptr<MetricHistogram> histogram;
  };

  Scalar& ScalarSlot(MetricKind kind, const std::string& name,
                     const std::string& help);
  static void ValidateName(const std::string& name);

  mutable std::mutex mutex_;
  // std::map: render output is sorted by construction, and references
  // into mapped values stay valid across inserts.
  std::map<std::string, Scalar> scalars_;
  std::map<std::string, Hist> histograms_;
};

}  // namespace amalgam

#endif  // AMALGAM_OBS_METRICS_H_
