// Tests for the metrics surface: histogram bucket math and quantile
// interpolation, the Prometheus text helpers, FormatMetricsExposition
// completeness (every ServiceStats field reaches the exposition —
// generated from the same X-macro as the struct, so the check cannot rot)
// and its whole text pinned byte for byte, the service's histogram-backed
// latency quantiles, concurrent scrapes that each render one snapshot,
// and the {"op":"metrics"}/{"op":"recent"} admin ops.
// The --metrics-tcp HTTP scrape is tested over a real socket in
// daemon_net_test.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fraisse/relational.h"
#include "obs/build_info.h"
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

TEST(MetricsExpositionTest, RenderPrometheusTextFormat) {
  MetricHistogram hist({1.0, 10.0});
  hist.Observe(0.5);
  hist.Observe(5.0);
  hist.Observe(50.0);
  const std::string text =
      PrometheusScalar("amalgam_widgets_total", "Widgets made",
                       MetricKind::kCounter, 7) +
      PrometheusScalar("amalgam_depth", "Current depth", MetricKind::kGauge,
                       2.5) +
      PrometheusHistogram("amalgam_lat_ms", "Latency", hist) +
      PrometheusScalar("amalgam_build_info", "Build metadata",
                       MetricKind::kGauge, 1.0,
                       "build_type=\"Release\",version=\"0.0.0\"");

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

TEST(MetricsExpositionTest, ExpositionCoversEveryField) {
  // Generated from the same X-macro that defines the struct: adding a
  // ServiceStats field without a help string fails to compile, and every
  // field must surface in the rendered exposition.
  ServiceStats stats;
  stats.queries = 11;
  stats.cache_hits = 5;
  const MetricHistogram latency(DefaultLatencyBoundsMs());
  const MetricHistogram queue_wait(DefaultLatencyBoundsMs());
  const std::string text = FormatMetricsExposition(stats, latency, queue_wait);

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

// The whole exposition for fixed inputs, byte for byte: names, HELP/TYPE
// text, the name-sorted interleaving of scalars and histograms, the
// build_info label body and the number formatting (integers plain, the
// rest %.17g). The literal was produced by the registry-based exporter
// this renderer replaced, on the same inputs; @LABELS@ stands for the
// build's own build_info label body.
constexpr char kGoldenExposition[] = R"golden(# HELP amalgam_build_info Build metadata; the value is always 1
# TYPE amalgam_build_info gauge
amalgam_build_info{@LABELS@} 1
# HELP amalgam_cache_evictions Memory-tier LRU evictions
# TYPE amalgam_cache_evictions counter
amalgam_cache_evictions 370
# HELP amalgam_cache_hits Graph cache hits (memory or promoted store load)
# TYPE amalgam_cache_hits counter
amalgam_cache_hits 296
# HELP amalgam_cache_misses Graph cache misses
# TYPE amalgam_cache_misses counter
amalgam_cache_misses 333
# HELP amalgam_coalesced_joins Queries that waited on another query's build
# TYPE amalgam_coalesced_joins counter
amalgam_coalesced_joins 111
# HELP amalgam_conn_id Connection id of the asking client (stats op only)
# TYPE amalgam_conn_id gauge
amalgam_conn_id 851
# HELP amalgam_conn_rejected_overload The asking connection's refused query lines
# TYPE amalgam_conn_rejected_overload counter
amalgam_conn_rejected_overload 925
# HELP amalgam_conn_requests Lines the asking connection has sent
# TYPE amalgam_conn_requests counter
amalgam_conn_requests 888
# HELP amalgam_connections_open Currently connected clients
# TYPE amalgam_connections_open gauge
amalgam_connections_open 740
# HELP amalgam_connections_opened Connections accepted since startup
# TYPE amalgam_connections_opened counter
amalgam_connections_opened 777
# HELP amalgam_failed Queries completed with an error
# TYPE amalgam_failed counter
amalgam_failed 74
# HELP amalgam_maintenance_passes Maintenance passes completed
# TYPE amalgam_maintenance_passes counter
amalgam_maintenance_passes 962
# HELP amalgam_members_enumerated Members delivered to the guard sweep, all completed queries
# TYPE amalgam_members_enumerated counter
amalgam_members_enumerated 666
# HELP amalgam_members_generated Members materialized by the backends, all completed queries
# TYPE amalgam_members_generated counter
amalgam_members_generated 1.152921504606847e+18
# HELP amalgam_overload_rejections Query lines refused by per-connection inflight caps, all clients
# TYPE amalgam_overload_rejections counter
amalgam_overload_rejections 814
# HELP amalgam_partials_completed Partial store entries driven to completion by maintenance
# TYPE amalgam_partials_completed counter
amalgam_partials_completed 999
# HELP amalgam_pending Queries accepted but not yet finished
# TYPE amalgam_pending gauge
amalgam_pending 259
# HELP amalgam_prewarm_loads Graphs promoted into memory by startup prewarm
# TYPE amalgam_prewarm_loads counter
amalgam_prewarm_loads 1036
# HELP amalgam_queries Completed queries (ok or failed)
# TYPE amalgam_queries counter
amalgam_queries 37
# HELP amalgam_query_latency_ms Query latency from worker pickup to verdict, milliseconds
# TYPE amalgam_query_latency_ms histogram
amalgam_query_latency_ms_bucket{le="0.050000000000000003"} 1
amalgam_query_latency_ms_bucket{le="0.10000000000000001"} 1
amalgam_query_latency_ms_bucket{le="0.25"} 1
amalgam_query_latency_ms_bucket{le="0.5"} 3
amalgam_query_latency_ms_bucket{le="1"} 3
amalgam_query_latency_ms_bucket{le="2.5"} 3
amalgam_query_latency_ms_bucket{le="5"} 3
amalgam_query_latency_ms_bucket{le="10"} 4
amalgam_query_latency_ms_bucket{le="25"} 4
amalgam_query_latency_ms_bucket{le="50"} 4
amalgam_query_latency_ms_bucket{le="100"} 4
amalgam_query_latency_ms_bucket{le="250"} 4
amalgam_query_latency_ms_bucket{le="500"} 4
amalgam_query_latency_ms_bucket{le="1000"} 4
amalgam_query_latency_ms_bucket{le="2500"} 4
amalgam_query_latency_ms_bucket{le="5000"} 4
amalgam_query_latency_ms_bucket{le="10000"} 4
amalgam_query_latency_ms_bucket{le="+Inf"} 5
amalgam_query_latency_ms_sum 12008.120000000001
amalgam_query_latency_ms_count 5
# HELP amalgam_queue_wait_ms Queue wait from submit to worker pickup, milliseconds
# TYPE amalgam_queue_wait_ms histogram
amalgam_queue_wait_ms_bucket{le="0.050000000000000003"} 1
amalgam_queue_wait_ms_bucket{le="0.10000000000000001"} 1
amalgam_queue_wait_ms_bucket{le="0.25"} 1
amalgam_queue_wait_ms_bucket{le="0.5"} 1
amalgam_queue_wait_ms_bucket{le="1"} 2
amalgam_queue_wait_ms_bucket{le="2.5"} 3
amalgam_queue_wait_ms_bucket{le="5"} 3
amalgam_queue_wait_ms_bucket{le="10"} 3
amalgam_queue_wait_ms_bucket{le="25"} 3
amalgam_queue_wait_ms_bucket{le="50"} 3
amalgam_queue_wait_ms_bucket{le="100"} 3
amalgam_queue_wait_ms_bucket{le="250"} 3
amalgam_queue_wait_ms_bucket{le="500"} 3
amalgam_queue_wait_ms_bucket{le="1000"} 3
amalgam_queue_wait_ms_bucket{le="2500"} 3
amalgam_queue_wait_ms_bucket{le="5000"} 3
amalgam_queue_wait_ms_bucket{le="10000"} 3
amalgam_queue_wait_ms_bucket{le="+Inf"} 3
amalgam_queue_wait_ms_sum 3.5499999999999998
amalgam_queue_wait_ms_count 3
# HELP amalgam_resume_coalesced Queries that waited on another query's resume
# TYPE amalgam_resume_coalesced counter
amalgam_resume_coalesced 222
# HELP amalgam_resume_leads Queries that owned a partial-entry extension
# TYPE amalgam_resume_leads counter
amalgam_resume_leads 185
# HELP amalgam_single_flight_leads Queries that owned a single-flight build
# TYPE amalgam_single_flight_leads counter
amalgam_single_flight_leads 148
# HELP amalgam_spec_memo_entries Prepared query lines the spec memo holds
# TYPE amalgam_spec_memo_entries gauge
amalgam_spec_memo_entries 1110
# HELP amalgam_spec_memo_hits Query lines served a prepared query by the spec memo (no parse)
# TYPE amalgam_spec_memo_hits counter
amalgam_spec_memo_hits 1073
# HELP amalgam_store_load_failures Store files present but unreadable (fell back to a fresh build)
# TYPE amalgam_store_load_failures counter
amalgam_store_load_failures 444
# HELP amalgam_store_loads Graphs deserialized from the disk tier
# TYPE amalgam_store_loads counter
amalgam_store_loads 407
# HELP amalgam_store_save_skips Store saves refused by the progress guard
# TYPE amalgam_store_save_skips counter
amalgam_store_save_skips 518
# HELP amalgam_store_sweep_bytes_removed Bytes removed by disk-tier sweeps
# TYPE amalgam_store_sweep_bytes_removed counter
amalgam_store_sweep_bytes_removed 629
# HELP amalgam_store_sweep_files_removed Files removed by disk-tier sweeps
# TYPE amalgam_store_sweep_files_removed counter
amalgam_store_sweep_files_removed 592
# HELP amalgam_store_sweeps Disk-tier sweep passes that enforced a cap
# TYPE amalgam_store_sweeps counter
amalgam_store_sweeps 555
# HELP amalgam_store_writes Graphs written through to the disk tier
# TYPE amalgam_store_writes counter
amalgam_store_writes 481
# HELP amalgam_uptime_ms Milliseconds since the service started
# TYPE amalgam_uptime_ms gauge
amalgam_uptime_ms 1147
)golden";

TEST(MetricsExpositionTest, GoldenExposition) {
  ServiceStats stats;
  std::uint64_t next = 0;
#define AMALGAM_SET_STAT_FIELD(field, kind, help) stats.field = ++next * 37;
  AMALGAM_SERVICE_STATS_FIELDS(AMALGAM_SET_STAT_FIELD)
#undef AMALGAM_SET_STAT_FIELD
  stats.members_generated = std::uint64_t{1} << 60;  // the %.17g path
  MetricHistogram latency(DefaultLatencyBoundsMs());
  for (double v : {0.02, 0.3, 0.3, 7.5, 12000.0}) latency.Observe(v);
  MetricHistogram queue_wait(DefaultLatencyBoundsMs());
  for (double v : {0.05, 1.0, 2.5}) queue_wait.Observe(v);

  std::string expected = kGoldenExposition;
  const std::string placeholder = "@LABELS@";
  expected.replace(expected.find(placeholder), placeholder.size(),
                   std::string("build_type=\"") + AmalgamBuildType() +
                       "\",version=\"" + AmalgamVersion() + "\"");
  EXPECT_EQ(FormatMetricsExposition(stats, latency, queue_wait), expected);
}

QueryRequest ReachRedRequest() {
  QueryRequest request;
  request.kind = QueryKind::kSystem;
  request.system = std::make_shared<DdsSystem>(ReachRedSystem());
  request.cls = std::make_shared<AllStructuresClass>(GraphZooSchema());
  return request;
}

TEST(MetricsServiceTest, LatencyQuantilesComeFromTheHistogram) {
  QueryService service(QueryService::Options{});
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

  // The scrape renders the service's own histograms.
  EXPECT_EQ(service.latency_histogram().count(), 4u);
  const std::string text = RenderMetrics(service, nullptr, nullptr);
  EXPECT_NE(text.find("amalgam_query_latency_ms_count 4\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("amalgam_queue_wait_ms_count 4\n"), std::string::npos)
      << text;
}

// The sample of every `# TYPE <name> counter` metric in one scrape body,
// and how many TYPE lines name each metric.
struct ScrapeView {
  std::map<std::string, double> counters;
  std::map<std::string, int> type_lines;
};

ScrapeView ParseScrape(const std::string& body) {
  ScrapeView view;
  std::istringstream in(body);
  std::string line;
  std::string counter;  // the counter whose sample line comes next
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::size_t space = line.find(' ', 7);
      const std::string name = line.substr(7, space - 7);
      ++view.type_lines[name];
      counter = line.substr(space + 1) == "counter" ? name : "";
    } else if (!counter.empty() && line.rfind(counter + " ", 0) == 0) {
      view.counters[counter] = std::stod(line.substr(counter.size() + 1));
      counter.clear();
    }
  }
  return view;
}

TEST(MetricsServiceTest, EachScrapeRendersOneSnapshot) {
  // Four scrapers race queries completing on the service. A scrape is one
  // snapshot that no other scrape writes into, so within one thread no
  // counter ever reads lower than in that thread's previous scrape, and
  // every body names every metric exactly once.
  QueryService::Options options;
  options.num_workers = 2;
  QueryService service(options);
  std::set<std::string> names = {"amalgam_build_info",
                                 "amalgam_query_latency_ms",
                                 "amalgam_queue_wait_ms"};
#define AMALGAM_NAME_STAT_FIELD(field, kind, help) \
  names.insert("amalgam_" #field);
  AMALGAM_SERVICE_STATS_FIELDS(AMALGAM_NAME_STAT_FIELD)
#undef AMALGAM_NAME_STAT_FIELD

  std::atomic<bool> done{false};
  std::thread load([&] {
    while (!done.load()) {
      std::vector<std::future<QueryResult>> batch;
      for (int i = 0; i < 8; ++i) {
        batch.push_back(service.Submit(ReachRedRequest()));
      }
      for (auto& result : batch) ASSERT_TRUE(result.get().ok);
    }
  });

  constexpr int kScrapers = 4;
  constexpr int kScrapes = 200;
  // Each scraper's first failure, "" when it saw none.
  std::vector<std::string> failures(kScrapers);
  std::vector<std::thread> scrapers;
  for (int t = 0; t < kScrapers; ++t) {
    scrapers.emplace_back([&, t] {
      std::map<std::string, double> last;
      for (int i = 0; i < kScrapes && failures[t].empty(); ++i) {
        const ScrapeView view =
            ParseScrape(RenderMetrics(service, nullptr, nullptr));
        for (const std::string& name : names) {
          const auto it = view.type_lines.find(name);
          const int seen = it == view.type_lines.end() ? 0 : it->second;
          if (seen != 1) {
            failures[t] = "scrape " + std::to_string(i) + " names " + name +
                          " " + std::to_string(seen) + " times";
          }
        }
        if (view.type_lines.size() != names.size()) {
          failures[t] = "scrape " + std::to_string(i) + " names " +
                        std::to_string(view.type_lines.size()) + " metrics";
        }
        for (const auto& [name, value] : view.counters) {
          const auto prev = last.find(name);
          if (prev != last.end() && value < prev->second) {
            failures[t] = "scrape " + std::to_string(i) + ": " + name +
                          " fell from " + std::to_string(prev->second) +
                          " to " + std::to_string(value);
          }
          last[name] = value;
        }
      }
    });
  }
  for (std::thread& scraper : scrapers) scraper.join();
  done.store(true);
  load.join();

  for (int t = 0; t < kScrapers; ++t) {
    EXPECT_EQ(failures[t], "") << "scraper " << t;
  }
  EXPECT_GT(service.Stats().queries, 0u);
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
