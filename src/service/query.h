// Request/response types of the concurrent query service.
//
// A QueryRequest names one emptiness query through any of the four front
// doors — generic system (SolveEmptiness), word-driven
// (SolveWordEmptiness), tree-driven (SolveTreeEmptiness) or branching
// (SolveBranchingEmptiness) — together with the inputs that front door
// needs. Inputs are held by shared_ptr so a batch of requests can share
// one system/automaton/class instance and a request stays cheap to copy;
// the service keeps them alive for the lifetime of the query (TreeRunClass
// in particular retains a pointer to the automaton it was built over).
#ifndef AMALGAM_SERVICE_QUERY_H_
#define AMALGAM_SERVICE_QUERY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fraisse/fraisse_class.h"
#include "obs/trace.h"
#include "solver/branching.h"
#include "solver/engine.h"
#include "system/dds.h"
#include "trees/automaton.h"
#include "words/nfa.h"

namespace amalgam {

/// Which front door a request names; the service runs each kind's
/// GraphSpec through that front door's own path.
enum class QueryKind {
  kSystem,     // SolveEmptiness: *cls over the system's rule guards
  kWord,       // SolveWordEmptiness: WordRunClassFor(system, *nfa)
  kTree,       // SolveTreeEmptiness: TreeRunClassFor(system, *automaton)
  kBranching,  // SolveBranchingEmptiness: *cls over the flattened branches
};

/// The query-kind name used by the protocol and the recent-query log.
const char* QueryKindName(QueryKind kind);

struct QueryRequest {
  QueryKind kind = QueryKind::kSystem;

  /// The control skeleton (kSystem, kWord, kTree).
  std::shared_ptr<const DdsSystem> system;
  /// The backend class (kSystem, kBranching).
  std::shared_ptr<const FraisseClass> cls;
  /// The word language (kWord).
  std::shared_ptr<const Nfa> nfa;
  /// The tree language (kTree).
  std::shared_ptr<const TreeAutomaton> automaton;
  /// The branching system (kBranching).
  std::shared_ptr<const BranchingSystem> branching;

  /// kTree only: TreeRunClass pattern cap (member size is m + this cap).
  int extra_pattern_cap = 4;
  /// Exploration strategy for the linear front doors (the branching
  /// fixpoint always needs the complete graph).
  SolveStrategy strategy = SolveStrategy::kOnTheFly;
  /// Worker threads for this query's complete-graph builds
  /// (SubTransitionGraph::BuildFullParallel); 0 means the service default.
  int num_threads = 0;
  /// Run the engine's witness reconstruction (kSystem/kWord; costs extra
  /// work). The result carries no witness, and kTree/kBranching ignore it.
  bool build_witness = false;
  /// Cap on the relational enumerators' per-partition atom count
  /// (SolveOptions::relational_atom_cap; 0 = backend default) for the
  /// relational classes of kSystem and kBranching; the word and tree run
  /// classes have no such enumerator. Exceeding it fails the query in-band
  /// with QueryResult::error_code == EnumerationCapError::kCode.
  std::uint32_t atom_cap = 0;

  /// When set, the query is traced end to end: the service and the engine
  /// record spans (queue wait, coalesced wait, per-phase sweeps, BFS,
  /// store I/O) into this recorder and QueryResult::trace carries it back
  /// for in-band serialization. Null (the default) disables tracing at
  /// the cost of one branch per span site. The protocol layer creates one
  /// for a `"trace":true` request line.
  std::shared_ptr<TraceRecorder> trace;
};

/// A request made ready to run: what QueryService::Prepare derives once
/// and every execution of the same request then shares. Immutable once
/// built, so one instance may back any number of concurrent queries (the
/// session layer's spec memo hands the same instance to every repeat of a
/// request line); everything per-execution — the trace recorder, the
/// promise, the flight role — lives with the queued task instead.
struct PreparedQuery {
  /// The inputs, untraced: `request.trace` is always null.
  QueryRequest request;
  /// The request asked to be traced; each execution records into a fresh
  /// recorder of its own.
  bool traced = false;
  /// The protocol's optional disk-tier attach ("" = none).
  std::string store_dir;
  /// The graph the query needs, keyed; its key is empty when the spec
  /// could not be built, and `setup_error` says why.
  GraphSpec spec;
  std::string setup_error;
};

struct QueryResult {
  /// True iff the query ran to a verdict; false means `error` explains
  /// what went wrong (errors are delivered in-band, never as a broken
  /// future, so batch callers can collect every outcome uniformly).
  bool ok = false;
  std::string error;
  /// Machine-readable error class ("" = none). Currently the only value is
  /// EnumerationCapError::kCode ("enumeration_cap"): the candidate space
  /// exceeded the atom cap — retry with a larger `atom_cap` or refine the
  /// system.
  std::string error_code;

  bool nonempty = false;
  SolveStats stats;

  /// Wall time inside the service, from worker pickup to verdict.
  double latency_ms = 0.0;
  /// This query waited on another in-flight query building the same
  /// sub-transition graph (the single-flight join path) instead of
  /// building it itself.
  bool coalesced = false;

  /// The request's trace recorder, with the query's span tree recorded
  /// (null for untraced requests). FormatQueryResponse serializes it as
  /// the response's "trace" member.
  std::shared_ptr<const TraceRecorder> trace;
};

/// One completed query as remembered by the bounded recent-query ring
/// (QueryService::Recent(), served by {"op":"recent"}) — a fleet-ready
/// slow-query log entry: what ran, how it was served, how long it took,
/// and (for traced queries) where the time went by span name.
struct RecentQuery {
  /// Completion sequence number (monotonically increasing per service).
  std::uint64_t seq = 0;
  /// FNV-1a hash of the graph cache key, in hex — a stable, compact
  /// identifier for "the same graph" across queries and restarts ("" when
  /// the request failed before a key existed).
  std::string key;
  const char* kind = "";  // QueryKindName
  bool ok = false;
  bool nonempty = false;
  bool coalesced = false;
  bool from_cache = false;
  bool resumed = false;
  bool traced = false;
  double latency_ms = 0.0;
  /// Per-span-name total durations in ms, traced queries only.
  std::vector<std::pair<std::string, double>> span_rollup;
};

// The ServiceStats counter fields, one X(name, kind, help) per uint64
// member. This list is the single source of truth: the struct members,
// the stats-op JSON fields, and the Prometheus export
// (ExportServiceStats, metric name "amalgam_<field>") are all generated
// from it, and the static_assert below pins sizeof(ServiceStats) to the
// macro's field count — adding a uint64 counter to the struct without
// routing it through this list does not compile, so a new counter can
// never silently skip the registry or the exposition. `kind` is the
// Prometheus type: Counter (monotone total) or Gauge (point-in-time).
#define AMALGAM_SERVICE_STATS_FIELDS(X)                                        \
  X(queries, Counter, "Completed queries (ok or failed)")                      \
  X(failed, Counter, "Queries completed with an error")                        \
  X(coalesced_joins, Counter, "Queries that waited on another query's build")  \
  X(single_flight_leads, Counter, "Queries that owned a single-flight build")  \
  X(resume_leads, Counter, "Queries that owned a partial-entry extension")     \
  X(resume_coalesced, Counter,                                                 \
    "Queries that waited on another query's resume")                           \
  X(pending, Gauge, "Queries accepted but not yet finished")                   \
  X(cache_hits, Counter, "Graph cache hits (memory or promoted store load)")   \
  X(cache_misses, Counter, "Graph cache misses")                               \
  X(cache_evictions, Counter, "Memory-tier LRU evictions")                     \
  X(store_loads, Counter, "Graphs deserialized from the disk tier")            \
  X(store_load_failures, Counter,                                              \
    "Store files present but unreadable (fell back to a fresh build)")         \
  X(store_writes, Counter, "Graphs written through to the disk tier")          \
  X(store_save_skips, Counter, "Store saves refused by the progress guard")    \
  X(store_sweeps, Counter, "Disk-tier sweep passes that enforced a cap")       \
  X(store_sweep_files_removed, Counter, "Files removed by disk-tier sweeps")   \
  X(store_sweep_bytes_removed, Counter, "Bytes removed by disk-tier sweeps")   \
  X(members_enumerated, Counter,                                               \
    "Members delivered to the guard sweep, all completed queries")             \
  X(members_generated, Counter,                                                \
    "Members materialized by the backends, all completed queries")             \
  X(connections_open, Gauge, "Currently connected clients")                    \
  X(connections_opened, Counter, "Connections accepted since startup")         \
  X(overload_rejections, Counter,                                              \
    "Query lines refused by per-connection inflight caps, all clients")        \
  X(conn_id, Gauge, "Connection id of the asking client (stats op only)")      \
  X(conn_requests, Counter, "Lines the asking connection has sent")            \
  X(conn_rejected_overload, Counter,                                           \
    "The asking connection's refused query lines")                             \
  X(maintenance_passes, Counter, "Maintenance passes completed")               \
  X(partials_completed, Counter,                                               \
    "Partial store entries driven to completion by maintenance")               \
  X(prewarm_loads, Counter, "Graphs promoted into memory by startup prewarm")  \
  X(spec_memo_hits, Counter,                                                   \
    "Query lines served a prepared query by the spec memo (no parse)")         \
  X(spec_memo_entries, Gauge, "Prepared query lines the spec memo holds")      \
  X(uptime_ms, Gauge, "Milliseconds since the service started")

/// Aggregated per-service counters; see QueryService::Stats().
///
/// The uint64 members are generated from AMALGAM_SERVICE_STATS_FIELDS —
/// cache/store counters are snapshots of the shared GraphCache and
/// GraphStore tiers; connection and maintenance counters are filled in by
/// the session/daemon layer (Session::SnapshotStats) and stay zero when
/// the service is used directly.
struct ServiceStats {
#define AMALGAM_DEFINE_STAT_FIELD(field, kind, help) std::uint64_t field = 0;
  AMALGAM_SERVICE_STATS_FIELDS(AMALGAM_DEFINE_STAT_FIELD)
#undef AMALGAM_DEFINE_STAT_FIELD

  // Latency quantiles derived from the service's histogram (obs/metrics.h)
  // over every completion since startup; 0 when none completed.
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
};

inline constexpr std::size_t kServiceStatsCounterFields = 0
#define AMALGAM_COUNT_STAT_FIELD(field, kind, help) +1
    AMALGAM_SERVICE_STATS_FIELDS(AMALGAM_COUNT_STAT_FIELD)
#undef AMALGAM_COUNT_STAT_FIELD
    ;

// Every uint64 counter must be declared through
// AMALGAM_SERVICE_STATS_FIELDS (all members are 8 bytes, so the struct
// has no padding and its size is exactly the field count): a counter
// added as a bare member changes sizeof without changing the macro count
// and fails here. Route it through the macro instead — that is what
// feeds the stats op and the metrics registry.
static_assert(sizeof(ServiceStats) ==
                  kServiceStatsCounterFields * sizeof(std::uint64_t) +
                      3 * sizeof(double),
              "declare new ServiceStats counters via "
              "AMALGAM_SERVICE_STATS_FIELDS, not as bare members");

}  // namespace amalgam

#endif  // AMALGAM_SERVICE_QUERY_H_
