// Process metrics: fixed-boundary histograms and the Prometheus text
// format for one scalar or one histogram.
//
// Every counter lives with its owner (the query service, GraphCache,
// GraphStore, SpecMemo, the sessions, the maintenance loop) and reaches
// the exposition through one ServiceStats snapshot; the query service
// owns its two histograms as members.
// FormatMetricsExposition (service/protocol.h) renders one snapshot plus
// those histograms with the helpers below, so every scrape is one
// snapshot and no counter has a second copy.
//
// Histograms have fixed bucket boundaries chosen at construction;
// Observe() is two relaxed atomic adds plus a binary bucket search, and
// Quantile() derives p50/p95/p99 by linear interpolation within the
// owning bucket.
//
// The text is the exposition format version 0.0.4: `# HELP`/`# TYPE` per
// metric, cumulative `_bucket{le="..."}` series plus `_sum`/`_count` per
// histogram. Both the {"op":"metrics"} admin op and amalgamd's
// --metrics-tcp listener (one more listener on the daemon's event loop,
// net/server.h) serve it through one function, RenderMetrics
// (service/session.h), so the two scrape surfaces can never disagree.
#ifndef AMALGAM_OBS_METRICS_H_
#define AMALGAM_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace amalgam {

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

enum class MetricKind { kCounter, kGauge };

/// Latency-shaped default boundaries in milliseconds: 50µs .. 10s,
/// roughly 1-2.5-5 per decade.
std::vector<double> DefaultLatencyBoundsMs();

/// One scalar metric in text format: its HELP and TYPE lines and one
/// sample. `labels` is the rendered label body without braces, e.g.
/// `build_type="Release",version="0.10.0"`; "" for none.
std::string PrometheusScalar(const std::string& name, const std::string& help,
                             MetricKind kind, double value,
                             const std::string& labels = "");

/// One histogram in text format: HELP and TYPE, the cumulative buckets
/// ending at +Inf, then `_sum` and `_count`.
std::string PrometheusHistogram(const std::string& name,
                                const std::string& help,
                                const MetricHistogram& histogram);

}  // namespace amalgam

#endif  // AMALGAM_OBS_METRICS_H_
