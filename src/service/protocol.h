// The amalgamd JSONL protocol: one request object per line in, one
// response object per line out.
//
// A *query* line names a front door and its inputs — zoo-named or
// spec-described — and maps onto one QueryService::Submit:
//
//   {"id":1,"kind":"system","class":"all","system":"reach_red"}
//   {"id":2,"kind":"words","nfa":"aplus_bplus","system":"zigzag"}
//   {"id":3,"kind":"trees","automaton":"two_level","system":{"registers":
//     ["x"],"states":[{"name":"s","initial":true},{"name":"t","accepting":
//     true}],"rules":[{"from":"s","to":"t","guard":"desc(x_old, x_new)"}]}}
//   {"id":4,"kind":"branching","class":"all","system":{"registers":["x"],
//     "states":[...],"rules":[{"from":"a","branches":[{"guard":"...",
//     "to":"b"},...]}]}}
//
// Optional query fields: "strategy" ("onthefly"|"eager"), "num_threads"
// (build threads for this query), "build_witness", "extra_pattern_cap"
// (trees), "atom_cap" (kinds "system" and "branching": relational
// enumeration cap; a query whose candidate space exceeds it fails in-band
// with "error_code":"enumeration_cap"), "rounds"/"steps" (the
// parametrized zoo systems), "schema"
// ({"relations":[["E",2],...],"functions":[...]}; kind "system" specs
// only — word/tree schemas are implied by the automaton), "store_dir"
// (attaches the service's disk tier; an error if a different tier is
// already attached elsewhere), "trace" (true: record the query's span
// tree — queue wait, coalesced wait, per-phase sweeps, store I/O — and
// return it in the response's "trace" member; see docs/OBSERVABILITY.md).
//
// *Admin* lines select an op instead: {"op":"stats"}, {"op":"sweep",
// "max_bytes":N,"max_files":N}, {"op":"maintain"} (one synchronous
// maintenance pass: complete partials, sweep — needs a daemon
// with a store attached), {"op":"metrics"} (the full metrics registry in
// Prometheus text format, JSON-escaped in the response's "body"),
// {"op":"recent"} (the bounded ring of recent query summaries),
// {"op":"drain"}, {"op":"shutdown"}. metrics/recent are cheap snapshots:
// they do not drain the service first.
//
// Responses echo the request's "id" verbatim and always carry "ok";
// failures report {"ok":false,"error":"..."} and never kill the loop.
// Machine-readable "error_code" values include "enumeration_cap" (atom cap
// exceeded), "overloaded" (the connection's inflight cap refused a query
// line — read pending responses, then resend) and "line_too_long" (the
// daemon's per-line byte cap; the connection's input side is closed).
#ifndef AMALGAM_SERVICE_PROTOCOL_H_
#define AMALGAM_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "service/maintenance.h"
#include "service/query.h"
#include "solver/store.h"

namespace amalgam {

struct ProtocolRequest {
  enum class Op {
    kQuery,
    kStats,
    kSweep,
    kMaintain,
    kMetrics,
    kRecent,
    kDrain,
    kShutdown
  };

  Op op = Op::kQuery;
  /// The request's "id" member, re-serialized for echoing ("" = absent).
  std::string id_json;
  /// Non-empty: the line failed to parse or validate; reply with
  /// FormatErrorResponse and do not execute anything.
  std::string error;

  QueryRequest query;              // kQuery
  std::string store_dir;           // kQuery: optional disk-tier attach
  std::uint64_t max_bytes = 0;     // kSweep
  std::uint64_t max_files = 0;     // kSweep
};

/// Parses one JSONL request line. Never throws: malformed input comes
/// back as a ProtocolRequest with `error` set (and any parsable id).
ProtocolRequest ParseRequestLine(const std::string& line);

/// A request line split into its id and the query it asks. A line that
/// opens with a numeric id member — `{"id":<number>,` byte for byte —
/// asks the same query as its id-less form `{…`: `id_json` holds the id
/// as ParseRequestLine echoes it (re-serialized, so `1e2` echoes `100`)
/// and `rest` the bytes after the member's comma. Any other line (no id, a
/// string id, an id that is not the first member, whitespace around it)
/// stays whole: `id_json` is empty and `rest` is the line. The spec memo
/// and the access log both key lines this way.
struct LineIdentity {
  std::string id_json;
  std::string_view rest;

  bool id_stripped() const { return !id_json.empty(); }
  /// The id-less line: `{` + rest, or the whole line.
  std::string IdLess() const;
};

/// Splits `line` (which must outlive the result). Never parses more than
/// the leading id token.
LineIdentity IdentifyLine(std::string_view line);

std::string FormatQueryResponse(const ProtocolRequest& request,
                                const QueryResult& result);
std::string FormatStatsResponse(const ProtocolRequest& request,
                                const ServiceStats& stats);
std::string FormatSweepResponse(const ProtocolRequest& request,
                                const StoreSweepResult& result);
/// One pass's work plus the loop's cumulative counters.
std::string FormatMaintainResponse(const ProtocolRequest& request,
                                   const MaintenancePassResult& pass,
                                   const MaintenanceStats& stats);
/// The {"op":"metrics"} response: `body` (RenderPrometheus output) is
/// carried JSON-escaped next to its content type, so the op replays
/// through the same JSONL loop as everything else.
std::string FormatMetricsResponse(const ProtocolRequest& request,
                                  const std::string& body);
/// The {"op":"recent"} response: the ring entries oldest first.
std::string FormatRecentResponse(const ProtocolRequest& request,
                                 const std::vector<RecentQuery>& entries);
/// Snapshots every ServiceStats field into `registry` as an
/// "amalgam_<field>" counter/gauge (generated from
/// AMALGAM_SERVICE_STATS_FIELDS, so a new stats counter is exported
/// automatically), plus the amalgam_build_info labeled gauge. Called at
/// scrape time by both the metrics op and the --metrics-tcp endpoint.
void ExportServiceStats(const ServiceStats& stats, MetricsRegistry& registry);
std::string FormatDrainResponse(const ProtocolRequest& request,
                                const ServiceStats& stats);
std::string FormatShutdownResponse(const ProtocolRequest& request,
                                   const ServiceStats& stats);
/// `code`, when non-empty, is emitted as a machine-readable "error_code"
/// member next to the human-readable "error" (e.g. "enumeration_cap" when
/// the relational candidate space exceeded the query's atom cap).
std::string FormatErrorResponse(const ProtocolRequest& request,
                                const std::string& error,
                                const std::string& code = "");

}  // namespace amalgam

#endif  // AMALGAM_SERVICE_PROTOCOL_H_
