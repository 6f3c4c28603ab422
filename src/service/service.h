// The concurrent query service: a single-flight, shared-cache broker over
// the exploration engine.
//
// Every caller so far invokes a synchronous front door directly, so N
// concurrent identical cold queries run N redundant graph builds. The
// QueryService multiplexes queries over one shared engine/cache/store
// stack instead:
//
//   * a fixed worker pool executes submitted queries asynchronously
//     (Submit returns a std::future<QueryResult>; SubmitBatch returns one
//     future per request);
//   * a query is prepared once — Prepare derives its keyed GraphSpec into
//     an immutable PreparedQuery — and may then be submitted any number of
//     times; the sessions' spec memo (spec_memo.h) reuses one for every
//     repeat of a request line; the service itself remembers no past
//     request beyond the recent-query ring's summaries, so a caller that
//     wants to run one again keeps its own copy and prepares it anew;
//   * one GraphCache (optionally LRU-capped and disk-backed) is shared by
//     every query, so distinct requests over the same (class, k, guard
//     set) reuse one sub-transition graph;
//   * a single-flight table keyed by the graph's cache key coalesces
//     concurrent cold queries: the first becomes the *leader* and builds
//     (serial or sharded-parallel), the rest *join* — they block on the
//     leader's per-key flight future and then run pure BFS replay over the
//     cached graph. Registration happens at submit time, and SubmitBatch
//     registers the whole batch before any worker starts, so a batch of N
//     identical cold queries deterministically performs exactly one build;
//   * the same table carries *resume* flights: when the cached entry for a
//     key is partial (an earlier on-the-fly query early-exited), at most
//     one query extends it — concurrent queries over the warm-but-partial
//     key wait on the extender's flight and then replay, so a hot partial
//     key performs exactly one suffix build instead of N duplicated ones.
//     Only a *complete* cached entry skips the table entirely (replay
//     needs no build work, so those queries never serialize).
//
// Verdict equivalence with the synchronous front doors is structural: a
// query runs the same acquisition path the front doors use — the GraphSpec
// built at submit time, which also keys the flight table, goes to the
// engine or the branching fixpoint with the shared cache in SolveOptions —
// so the only thing the service changes is *when* the graph gets built and
// by whom. A leader that early-exits leaves a partial graph; a joiner
// whose verdict needs more of the class resumes it through the ordinary
// cache path (correct, just no longer coalesced).
//
// Shutdown is graceful: Drain() blocks until every accepted query has
// completed; Shutdown() (and the destructor) drains, then joins the
// workers. Submissions after Shutdown throw.
#ifndef AMALGAM_SERVICE_SERVICE_H_
#define AMALGAM_SERVICE_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "service/query.h"
#include "service/spec_memo.h"
#include "solver/cache.h"

namespace amalgam {

class QueryService {
 public:
  struct Options {
    /// Worker threads executing queries (clamped to >= 1).
    int num_workers = 4;
    /// Default SubTransitionGraph build threads per query (a request's
    /// num_threads overrides it; > 1 routes complete-graph builds through
    /// BuildFullParallel).
    int build_threads = 1;
    /// GraphCache memory-tier cap (0 = unbounded).
    std::size_t cache_max_entries = 0;
    /// When non-empty, attach the disk tier at this directory.
    std::string store_dir;
    /// Disk-tier caps, enforced by an LRU-by-atime sweep after each query
    /// that wrote to the store (0 = unlimited).
    std::uint64_t store_max_bytes = 0;
    std::uint64_t store_max_files = 0;
    /// Completed queries remembered by the recent-query ring (Recent(),
    /// the {"op":"recent"} admin op). 0 disables the ring.
    std::size_t recent_capacity = 128;
  };

  QueryService() : QueryService(Options{}) {}
  explicit QueryService(Options options);
  ~QueryService();  // Shutdown()

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Derives everything about `request` that does not change between
  /// executions: its keyed GraphSpec (backend, guards, k, key — the
  /// expensive part) or the error that prevents one. The request is kept
  /// untraced; `traced` records whether it carried a recorder. The result
  /// is immutable and may back any number of concurrent Submits.
  static std::shared_ptr<const PreparedQuery> Prepare(
      QueryRequest request, std::string store_dir = "");

  /// Enqueues one execution of `query`, recording into `trace` when
  /// non-null; the future resolves when a worker has finished it (errors
  /// arrive in-band via QueryResult::ok/error — the future itself never
  /// throws). Throws std::runtime_error after Shutdown().
  std::future<QueryResult> Submit(std::shared_ptr<const PreparedQuery> query,
                                  std::shared_ptr<TraceRecorder> trace);

  /// Prepare, then enqueue with the request's own recorder.
  std::future<QueryResult> Submit(QueryRequest request);

  /// Enqueues a batch. All single-flight registrations happen before any
  /// of the batch's tasks can start, so identical cold requests within one
  /// batch coalesce deterministically onto a single build.
  std::vector<std::future<QueryResult>> SubmitBatch(
      std::vector<QueryRequest> requests);

  /// Blocks until every query accepted so far has completed. New
  /// submissions during a drain are allowed and extend it.
  void Drain();

  /// Drains, then stops and joins the workers. Idempotent; implied by the
  /// destructor. Further Submit calls throw.
  void Shutdown();

  /// Aggregated counters + latency percentiles; safe to call concurrently
  /// with running queries (cache counters are atomics, service counters
  /// are snapshotted under the stats lock). Percentiles come from the
  /// latency histogram over every completion since startup.
  ServiceStats Stats() const;

  /// Worker-pickup-to-verdict latency and submit-to-pickup queue wait of
  /// every completion since startup, in milliseconds (the scrape renders
  /// both; Stats() derives its percentiles from the first).
  const MetricHistogram& latency_histogram() const { return latency_hist_; }
  const MetricHistogram& queue_wait_histogram() const {
    return queue_wait_hist_;
  }

  /// The most recent completions, oldest first (bounded by
  /// Options::recent_capacity) — the {"op":"recent"} slow-query log.
  std::vector<RecentQuery> Recent() const;

  /// Queries accepted but not yet finished — a cheap idleness probe
  /// (Stats() copies the latency ring; this doesn't).
  std::uint64_t Pending() const;

  /// The shared cache (for tests and admin paths; thread-safe itself).
  GraphCache& cache() { return cache_; }
  /// The prepared queries of repeated request lines, shared by every
  /// session over this service (thread-safe itself).
  SpecMemo& spec_memo() { return spec_memo_; }
  /// Attaches the disk tier at `dir` if the service has none yet (a
  /// constructor-supplied store_dir counts). Returns "" on success — which
  /// includes re-naming the already-attached directory — and an error
  /// message otherwise: silently swapping the tier under concurrent
  /// queries would strand the trajectory the operator believes is being
  /// extended, so a second, different directory is refused.
  std::string TryAttachStore(const std::string& dir);
  /// Sweeps the attached disk tier (no-op without one); the admin
  /// counterpart of the automatic post-query sweep.
  StoreSweepResult SweepStore(std::uint64_t max_bytes,
                              std::uint64_t max_files);

 private:
  // One in-flight build permit per cache key. Joiners wait on `done`;
  // the leader fulfills it when its query completes (even on error).
  struct Flight {
    std::shared_future<void> done;
  };

  enum class Role {
    // A *complete* graph is cached for the key: run directly, off the
    // flight table — replay needs no build work, so hot complete keys
    // never serialize.
    kDirect,
    // Owns the build for its key: the cold build when nothing is cached,
    // or the suffix extension when the cached entry is partial (Task::
    // resume distinguishes the two for the stats counters).
    kLeader,
    kJoiner,  // waits for the leader, then replays
  };

  struct Task {
    // What to run — shared with every other execution of the same
    // request — and this execution's own recorder (null: untraced).
    std::shared_ptr<const PreparedQuery> query;
    std::shared_ptr<TraceRecorder> trace;
    std::promise<QueryResult> promise;
    Role role = Role::kDirect;
    // The flight extends a cached partial entry rather than building cold
    // (counts toward resume_leads/resume_coalesced instead of the cold
    // single-flight counters).
    bool resume = false;
    std::shared_ptr<std::promise<void>> lead_done;  // kLeader
    std::shared_future<void> join_on;               // kJoiner
    // When the task entered the queue; worker pickup minus this is the
    // queue wait (histogram + retroactive "queue_wait" span).
    std::chrono::steady_clock::time_point submitted_at;
  };

  /// A task for one execution of `query`, stamped with the submit time;
  /// the caller registers and enqueues it.
  Task MakeTask(std::shared_ptr<const PreparedQuery> query,
                std::shared_ptr<TraceRecorder> trace);

  /// Registers the task in the single-flight table and assigns its role.
  /// Caller holds queue_mutex_ (registration must be atomic with the
  /// enqueue so a joiner can never precede its leader in the queue).
  void RegisterFlight(Task& task);

  /// Runs one query end to end on a worker thread: waits on the join
  /// future (joiners), runs the query against the shared cache,
  /// resolves the flight (leaders) and records stats. Returns the result
  /// instead of resolving the promise itself so WorkerLoop can mark the
  /// query no-longer-outstanding *before* the future resolves — Pending()
  /// must never report a query whose response was already observed.
  QueryResult Execute(Task& task);

  /// Runs the task's spec through the front doors' own path (the engine or
  /// the branching fixpoint) with one SolveOptions built from the request;
  /// throws on failure.
  QueryResult RunQuery(const Task& task);

  void WorkerLoop();

  Options options_;
  GraphCache cache_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;    // workers: work available / stop
  std::condition_variable drained_cv_;  // Drain(): outstanding_ == 0
  std::deque<Task> queue_;
  std::uint64_t outstanding_ = 0;  // accepted (queued or running), unfinished
  bool stopping_ = false;

  std::mutex flights_mutex_;
  std::unordered_map<std::string, Flight> flights_;

  SpecMemo spec_memo_;

  // Guards the one-directory-per-service disk-tier attachment.
  std::mutex store_attach_mutex_;
  std::string attached_store_dir_;

  mutable std::mutex stats_mutex_;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t coalesced_joins_ = 0;
  std::uint64_t single_flight_leads_ = 0;
  std::uint64_t resume_leads_ = 0;
  std::uint64_t resume_coalesced_ = 0;
  std::uint64_t members_enumerated_ = 0;
  std::uint64_t members_generated_ = 0;
  // The recent-query ring, oldest first; bounded by
  // options_.recent_capacity.
  std::deque<RecentQuery> recent_;
  std::uint64_t recent_seq_ = 0;

  MetricHistogram latency_hist_{DefaultLatencyBoundsMs()};
  MetricHistogram queue_wait_hist_{DefaultLatencyBoundsMs()};
  const std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();

  std::vector<std::thread> workers_;
};

}  // namespace amalgam

#endif  // AMALGAM_SERVICE_SERVICE_H_
