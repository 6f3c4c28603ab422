// Tests for the metrics surface: histogram bucket math and quantile
// interpolation, registry find-or-register semantics, the Prometheus
// text renderer, ExportServiceStats completeness (every ServiceStats
// field reaches the registry — generated from the same X-macro as the
// struct, so the check cannot rot), the service's histogram-backed
// latency quantiles, and the {"op":"metrics"}/{"op":"recent"} admin ops.
// The --metrics-tcp HTTP scrape is tested over a real socket in
// daemon_net_test.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <string>
#include <vector>

#include "fraisse/relational.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/service.h"
#include "service/session.h"
#include "system/zoo.h"

namespace amalgam {
namespace {

TEST(MetricHistogramTest, ObservationsLandInTheirBuckets) {
  MetricHistogram hist({1.0, 2.0, 4.0});
  hist.Observe(0.5);   // <= 1
  hist.Observe(1.5);   // <= 2
  hist.Observe(2.0);   // boundary is upper-inclusive: <= 2
  hist.Observe(3.0);   // <= 4
  hist.Observe(100.0); // overflow
  EXPECT_EQ(hist.bucket_count(0), 1u);
  EXPECT_EQ(hist.bucket_count(1), 2u);
  EXPECT_EQ(hist.bucket_count(2), 1u);
  EXPECT_EQ(hist.bucket_count(3), 1u);
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_DOUBLE_EQ(hist.sum(), 107.0);
}

TEST(MetricHistogramTest, QuantilesInterpolateAndClamp) {
  MetricHistogram hist({1.0, 2.0, 4.0});
  EXPECT_EQ(hist.Quantile(0.5), 0.0) << "no observations yet";
  for (int i = 0; i < 100; ++i) hist.Observe(1.5);
  hist.Observe(1000.0);  // one overflow outlier
  const double p50 = hist.Quantile(0.50);
  const double p99 = hist.Quantile(0.99);
  EXPECT_GT(p50, 1.0);
  EXPECT_LE(p50, 2.0) << "the median sits inside its owning bucket";
  EXPECT_LE(p50, p99) << "quantiles are monotone in q";
  EXPECT_DOUBLE_EQ(hist.Quantile(1.0), 4.0)
      << "overflow observations clamp to the largest finite boundary";
}

TEST(MetricsRegistryTest, FindOrRegisterReturnsStableSlots) {
  MetricsRegistry registry;
  MetricCounter& a = registry.Counter("amalgam_test_total", "help");
  MetricCounter& b = registry.Counter("amalgam_test_total", "help");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_THROW(registry.Gauge("amalgam_test_total", "help"),
               std::invalid_argument)
      << "one name, one kind";
  EXPECT_THROW(registry.Counter("0bad name", "help"), std::invalid_argument);
}

TEST(MetricsRegistryTest, RenderPrometheusTextFormat) {
  MetricsRegistry registry;
  registry.Counter("amalgam_widgets_total", "Widgets made").Add(7);
  registry.Gauge("amalgam_depth", "Current depth").Set(2.5);
  MetricHistogram& hist =
      registry.Histogram("amalgam_lat_ms", "Latency", {1.0, 10.0});
  hist.Observe(0.5);
  hist.Observe(5.0);
  hist.Observe(50.0);
  registry.SetLabeledGauge("amalgam_build_info", "Build metadata",
                           "build_type=\"Release\",version=\"0.0.0\"", 1.0);
  const std::string text = registry.RenderPrometheus();

  EXPECT_NE(text.find("# HELP amalgam_widgets_total Widgets made\n"
                      "# TYPE amalgam_widgets_total counter\n"
                      "amalgam_widgets_total 7\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("amalgam_depth 2.5\n"), std::string::npos) << text;
  // Histogram buckets are cumulative and end at +Inf == _count.
  EXPECT_NE(text.find("amalgam_lat_ms_bucket{le=\"1\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("amalgam_lat_ms_bucket{le=\"10\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("amalgam_lat_ms_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("amalgam_lat_ms_count 3\n"), std::string::npos) << text;
  EXPECT_NE(text.find("amalgam_lat_ms_sum 55.5\n"), std::string::npos) << text;
  EXPECT_NE(
      text.find("amalgam_build_info{build_type=\"Release\","
                "version=\"0.0.0\"} 1\n"),
      std::string::npos)
      << text;
}

TEST(MetricsRegistryTest, ExportServiceStatsCoversEveryField) {
  // Generated from the same X-macro that defines the struct: adding a
  // ServiceStats field without a help string fails to compile, and every
  // field must surface in the rendered exposition.
  MetricsRegistry registry;
  ServiceStats stats;
  stats.queries = 11;
  stats.cache_hits = 5;
  ExportServiceStats(stats, registry);
  const std::string text = registry.RenderPrometheus();

#define AMALGAM_CHECK_STAT_FIELD(field, kind, help)                    \
  EXPECT_NE(text.find("# TYPE amalgam_" #field " "), std::string::npos) \
      << "missing exposition for ServiceStats::" #field;
  AMALGAM_SERVICE_STATS_FIELDS(AMALGAM_CHECK_STAT_FIELD)
#undef AMALGAM_CHECK_STAT_FIELD

  EXPECT_NE(text.find("amalgam_queries 11\n"), std::string::npos) << text;
  EXPECT_NE(text.find("amalgam_cache_hits 5\n"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE amalgam_pending gauge\n"), std::string::npos)
      << "gauge kinds survive the export";
  EXPECT_NE(text.find("amalgam_build_info{"), std::string::npos);
}

QueryRequest ReachRedRequest() {
  QueryRequest request;
  request.kind = QueryKind::kSystem;
  request.system = std::make_shared<DdsSystem>(ReachRedSystem());
  request.cls = std::make_shared<AllStructuresClass>(GraphZooSchema());
  return request;
}

TEST(MetricsServiceTest, LatencyQuantilesComeFromTheHistogram) {
  MetricsRegistry registry;
  QueryService::Options options;
  options.metrics = &registry;
  QueryService service(options);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.Submit(ReachRedRequest()).get().ok);
  }
  service.Drain();
  // uptime_ms has millisecond granularity; the queries above finish in
  // microseconds.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));

  const ServiceStats stats = service.Stats();
  EXPECT_GT(stats.p50_latency_ms, 0.0);
  EXPECT_LE(stats.p50_latency_ms, stats.p95_latency_ms);
  EXPECT_LE(stats.p95_latency_ms, stats.p99_latency_ms);
  EXPECT_GT(stats.uptime_ms, 0u);

  // The service's live histograms registered into the injected registry.
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("amalgam_query_latency_ms_count 4\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("amalgam_queue_wait_ms_count 4\n"), std::string::npos)
      << text;
}

TEST(MetricsServiceTest, RecentRingIsBoundedOldestOut) {
  QueryService::Options options;
  options.recent_capacity = 2;
  QueryService service(options);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.Submit(ReachRedRequest()).get().ok);
  }
  service.Drain();

  const std::vector<RecentQuery> recent = service.Recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].seq, 2u) << "the oldest entry fell off the ring";
  EXPECT_EQ(recent[1].seq, 3u);
  EXPECT_EQ(recent[0].kind, std::string("system"));
  EXPECT_EQ(recent[0].key.size(), 16u) << "FNV-1a hex of the graph key";
  EXPECT_EQ(recent[0].key, recent[1].key) << "identical queries, one key";
  EXPECT_TRUE(recent[1].from_cache);
}

TEST(MetricsSessionTest, MetricsOpEmitsTheFullExposition) {
  QueryService service(QueryService::Options{});
  Session::Options sopts;
  std::vector<std::string> lines;
  std::mutex lines_mutex;
  {
    Session session(service, sopts, [&](const std::string& line) {
      std::lock_guard<std::mutex> lock(lines_mutex);
      lines.push_back(line);
    });
    session.HandleLine(
        R"({"id":1,"kind":"system","class":"all","system":"reach_red"})");
    session.HandleLine(R"({"id":2,"op":"metrics"})");
    session.HandleLine(R"({"id":3,"op":"recent"})");
    session.Flush();
  }
  ASSERT_EQ(lines.size(), 3u);

  const std::optional<JsonValue> metrics = ParseJson(lines[1]);
  ASSERT_TRUE(metrics.has_value()) << lines[1];
  EXPECT_TRUE(metrics->GetBool("ok"));
  EXPECT_EQ(metrics->GetString("op"), "metrics");
  EXPECT_EQ(metrics->GetString("content_type"),
            "text/plain; version=0.0.4; charset=utf-8");
  const std::string body = metrics->GetString("body");
  // The FIFO put the scrape after the query's response, so the query is
  // already counted.
  EXPECT_NE(body.find("amalgam_queries 1\n"), std::string::npos) << body;
  EXPECT_NE(body.find("# TYPE amalgam_query_latency_ms histogram\n"),
            std::string::npos)
      << body;

  const std::optional<JsonValue> recent = ParseJson(lines[2]);
  ASSERT_TRUE(recent.has_value()) << lines[2];
  EXPECT_TRUE(recent->GetBool("ok"));
  EXPECT_EQ(recent->GetInt("count"), 1);
  const JsonValue* queries = recent->Get("queries");
  ASSERT_NE(queries, nullptr);
  ASSERT_EQ(queries->array.size(), 1u);
  const JsonValue& entry = queries->array[0];
  EXPECT_EQ(entry.GetString("kind"), "system");
  EXPECT_TRUE(entry.GetBool("ok"));
  EXPECT_FALSE(entry.GetBool("traced"));
  EXPECT_EQ(entry.Get("spans"), nullptr)
      << "an untraced entry carries no span rollup";
}

}  // namespace
}  // namespace amalgam
