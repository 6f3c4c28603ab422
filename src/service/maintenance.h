// The daemon's background self-maintenance: the store tier keeps itself
// finished, bounded and warm without waiting for queries to do it.
//
// A MaintenanceLoop owns one background thread (optional — interval 0
// means passes run only on demand, via the {"op":"maintain"} admin op or
// RunOnce() directly) over a QueryService. Each pass does, in order:
//
//   1. *Flush* the access log (below) to the store directory.
//   2. *Complete partials.* Every logged query line is replayed as its
//      recipe: parsed and prepared once per pass with the strategy forced
//      to eager, witness reconstruction off and no trace. A line whose
//      graph is partial — in the memory tier or persisted in the store —
//      is submitted through the ordinary Submit path, so it rides the
//      same resume-flight single-flight table as live traffic: a
//      concurrent query over the key either coalesces with the
//      maintenance build or the maintenance build joins it — never two
//      racing suffix sweeps. Lines naming a key that an earlier line of
//      the pass completed find it complete and are skipped. Partials are
//      only attacked while the worker pool is idle (Pending() == 0); the
//      first sign of live traffic ends the completion phase of the pass.
//   3. *Sweep.* With disk caps configured, GraphStore::Sweep enforces
//      them on a schedule instead of only after writing queries.
//
// The loop owns the *access log*, the only record of past requests: a
// store entry deliberately persists no formulas, so finishing or
// promoting one needs the guards and class only a request line supplies.
// RecordAccess buffers the JSONL query lines clients send, id-less
// (bounded LRU of unique lines, memory only — the transport thread never
// touches disk): lines that differ only in a leading numeric id
// (IdentifyLine, service/protocol.h) ask the same query and share one
// entry. The buffer fills with or without a store directory, so a
// store-less loop still completes memory-tier partials. With a store
// directory, each pass persists the buffer to <store_dir>/access.jsonl
// via WriteFileAtomically (solver/store.h), a failed flush is retried by
// the next pass, and a new loop seeds its buffer from that file — so a
// restarted daemon finishes what its predecessor left. On startup,
// Prewarm() replays the lines the same way and promotes each one's graph
// from the store into the memory tier — a restarted daemon answers its
// first real queries from a warm cache. The log survives daemons that
// crash between passes only up to the last flush; prewarm is an
// optimization, never a correctness dependency.
#ifndef AMALGAM_SERVICE_MAINTENANCE_H_
#define AMALGAM_SERVICE_MAINTENANCE_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/service.h"

namespace amalgam {

struct LineIdentity;  // service/protocol.h, which includes this header

struct MaintenanceOptions {
  /// The store directory (the access log lives beside the graph files).
  /// Empty keeps the access log in memory only and disables prewarm.
  std::string store_dir;
  /// Background pass cadence; 0 = no thread, passes only via RunOnce().
  int interval_ms = 0;
  /// Disk caps for the scheduled sweep (0/0 = no scheduled sweep).
  std::uint64_t store_max_bytes = 0;
  std::uint64_t store_max_files = 0;
  /// Unique request lines the access log retains (LRU by last access).
  std::size_t access_log_capacity = 1024;
};

/// What one maintenance pass did.
struct MaintenancePassResult {
  std::uint64_t partials_completed = 0;
  std::uint64_t sweep_files_removed = 0;
};

/// Cumulative counters since construction (surfaced by the stats op).
struct MaintenanceStats {
  std::uint64_t passes = 0;
  std::uint64_t partials_completed = 0;
  std::uint64_t prewarm_loads = 0;
};

class MaintenanceLoop {
 public:
  /// The service must outlive the loop. The loop does not start running
  /// until Start().
  MaintenanceLoop(QueryService& service, MaintenanceOptions options);
  ~MaintenanceLoop();  // Stop()

  MaintenanceLoop(const MaintenanceLoop&) = delete;
  MaintenanceLoop& operator=(const MaintenanceLoop&) = delete;

  /// Starts the background thread when interval_ms > 0; otherwise a
  /// no-op. Idempotent. Call Prewarm() first if warm startup is wanted.
  void Start();

  /// Stops and joins the background thread and flushes the access log.
  /// Idempotent; implied by the destructor. Call before shutting the
  /// service down (a pass mid-flight may be submitting to it).
  void Stop();

  /// One synchronous maintenance pass (also what the background thread
  /// and the {"op":"maintain"} admin op run). Passes are serialized —
  /// concurrent callers queue on an internal mutex.
  MaintenancePassResult RunOnce();

  /// Replays the persisted access log: every parsable query line's graph
  /// is promoted from the store into the memory tier. Returns the number
  /// of graphs now warm. Counted into stats as prewarm_loads.
  std::uint64_t Prewarm();

  /// Remembers a client's query line, without a leading numeric id, for
  /// the access log. Cheap and nonblocking (memory only); call from
  /// transport threads freely. The second form takes the line already
  /// split by IdentifyLine.
  void RecordAccess(std::string_view line);
  void RecordAccess(const LineIdentity& identity);

  MaintenanceStats GetStats() const;

 private:
  void ThreadLoop();
  /// The access buffer's lines, least-recently-accessed first.
  std::vector<std::string> AccessLines() const;
  /// Persists the access buffer to <store_dir>/access.jsonl (temp+rename;
  /// no-op when unchanged or without a store_dir). A failed write leaves
  /// the buffer dirty, so the next flush retries it.
  void FlushAccessLog();
  std::string AccessLogPath() const;

  QueryService& service_;
  const MaintenanceOptions options_;

  // The access buffer: unique id-less lines, least-recently-accessed
  // first, so capacity eviction drops the coldest request. The index keys
  // view the list's strings, so each line is held once.
  mutable std::mutex access_mutex_;
  std::list<std::string> access_lines_;
  std::unordered_map<std::string_view, std::list<std::string>::iterator>
      access_index_;
  bool access_dirty_ = false;

  std::mutex pass_mutex_;  // serializes RunOnce bodies

  mutable std::mutex stats_mutex_;
  MaintenanceStats stats_;

  std::mutex thread_mutex_;
  std::condition_variable thread_cv_;
  bool stop_ = false;
  bool started_ = false;
  std::thread thread_;
};

}  // namespace amalgam

#endif  // AMALGAM_SERVICE_MAINTENANCE_H_
