#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace amalgam {

namespace {

// %.17g round-trips doubles exactly; trim to a plain integer rendering
// when the value is one (the overwhelmingly common case for counters).
std::string RenderValue(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Header(const std::string& name, const std::string& help,
                   const char* type) {
  return "# HELP " + name + " " + help + "\n# TYPE " + name + " " + type +
         "\n";
}

}  // namespace

MetricHistogram::MetricHistogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]) {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void MetricHistogram::Observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> is C++20 but not universally lowered;
  // a CAS loop is portable and this is off every per-member hot loop.
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + value,
                                     std::memory_order_relaxed)) {
  }
}

double MetricHistogram::Quantile(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    const std::uint64_t in_bucket = bucket_count(i);
    if (in_bucket == 0) continue;
    const std::uint64_t next = cumulative + in_bucket;
    if (static_cast<double>(next) >= rank) {
      if (i == bounds_.size()) {
        // Overflow bucket: no finite upper edge to interpolate toward.
        return bounds_.empty() ? 0.0 : bounds_.back();
      }
      const double hi = bounds_[i];
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double into =
          (rank - static_cast<double>(cumulative)) / in_bucket;
      return lo + (hi - lo) * std::clamp(into, 0.0, 1.0);
    }
    cumulative = next;
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

std::vector<double> DefaultLatencyBoundsMs() {
  return {0.05, 0.1,  0.25, 0.5,  1.0,    2.5,    5.0,    10.0,  25.0,
          50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0};
}

std::string PrometheusScalar(const std::string& name, const std::string& help,
                             MetricKind kind, double value,
                             const std::string& labels) {
  std::string out = Header(name, help,
                           kind == MetricKind::kCounter ? "counter" : "gauge");
  out += name;
  if (!labels.empty()) out += "{" + labels + "}";
  out += " " + RenderValue(value) + "\n";
  return out;
}

std::string PrometheusHistogram(const std::string& name,
                                const std::string& help,
                                const MetricHistogram& h) {
  std::string out = Header(name, help, "histogram");
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < h.bounds().size(); ++i) {
    cumulative += h.bucket_count(i);
    out += name + "_bucket{le=\"" + RenderValue(h.bounds()[i]) + "\"} " +
           RenderValue(static_cast<double>(cumulative)) + "\n";
  }
  cumulative += h.bucket_count(h.bounds().size());
  out += name + "_bucket{le=\"+Inf\"} " +
         RenderValue(static_cast<double>(cumulative)) + "\n";
  out += name + "_sum " + RenderValue(h.sum()) + "\n";
  out += name + "_count " + RenderValue(static_cast<double>(h.count())) +
         "\n";
  return out;
}

}  // namespace amalgam
