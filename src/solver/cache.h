// Cross-query caching of sub-transition graphs, with an optional disk tier.
//
// A SubTransitionGraph depends only on the class of databases, the register
// count and the guard set — not on the control skeleton (states,
// initial/accepting flags, rule endpoints) of the system that asked for it.
// Repeated emptiness queries over the same (class, k, guards) therefore
// reuse the interned shape arena, the edge store and the witness steps
// as-is: a complete cached graph serves any query with
// SolveStats::members_enumerated == 0, and a *partial* one — persisted by
// an early-exited on-the-fly build together with its BuildCursor — lets
// the next query resume the member sweep where it stopped instead of
// rebuilding from scratch. Completeness is not a precondition for caching;
// it is the final cursor state.
//
// Keys are built from SolverBackend::Fingerprint() (a stable serialization
// of the class's identity implemented by every backend), the register
// count, and the printed guard formulas. Entries are immutable graphs held
// by shared_ptr, so lookups can outlive the cache and concurrent readers
// need no coordination beyond the map mutex; resuming a partial entry
// always happens on a private copy.
//
// AttachStore(dir) adds a disk tier (solver/store.h): memory misses fall
// through to a load from `dir`, and accepted inserts are written back, so
// a fresh process — or a different machine sharing the directory — starts
// with the previous trajectory instead of an empty cache. Corrupt or
// truncated files fail soft: the query rebuilds and overwrites them.
// Store loads and saves run *outside* the map mutex (the store handle is
// snapshotted under the lock, the I/O happens unlocked, and the result is
// reconciled with a double-checked promote), so concurrent queries never
// convoy behind disk I/O.
#ifndef AMALGAM_SOLVER_CACHE_H_
#define AMALGAM_SOLVER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>

#include "obs/trace.h"
#include "solver/graph.h"

namespace amalgam {

class GraphStore;
struct StoreSweepResult;

/// A keyed store of sub-transition graphs (complete or partial).
/// Thread-safe; share one cache across all queries that may repeat a
/// (class, k, guard set). Optionally capped: with `max_entries` > 0 the
/// least-recently-hit entry is evicted when an insert would exceed the cap
/// (entries handed out by Lookup stay alive through their shared_ptr
/// regardless). Optionally disk-backed via AttachStore.
class GraphCache {
 public:
  /// `max_entries` == 0 (the default) means unbounded — the historical
  /// behavior; a long-lived service should set a cap.
  explicit GraphCache(std::size_t max_entries = 0);
  ~GraphCache();

  /// The cache key for a graph: backend fingerprint + register count +
  /// each slot's guard printed under the backend schema, in slot order.
  /// GraphSpecFor builds its keys through KeyOfPrinted from the sorted
  /// distinct texts, so Key(backend, k, spec.guards) == spec.key; a list
  /// that is not sorted and duplicate-free names no graph an engine builds.
  static std::string Key(const SolverBackend& backend, int k,
                         std::span<const FormulaRef> guards);
  /// The same key over guard texts already printed under the schema.
  static std::string KeyOfPrinted(const SolverBackend& backend, int k,
                                  std::span<const std::string> printed);

  /// Attaches the disk tier rooted at `dir` (created if absent; throws
  /// std::runtime_error when that fails). Re-attaching the same directory
  /// is a no-op; a different directory replaces the tier (in-flight I/O
  /// against the old tier finishes on the old handle). The disk cap is
  /// the filesystem's — the LRU cap governs memory only, and evicted
  /// entries remain loadable from disk.
  void AttachStore(const std::string& dir);
  bool has_store() const;
  /// The attached disk-tier handle (nullptr without one). The handle is
  /// internally synchronized; callers may run store I/O on it directly
  /// (the maintenance loop peeks progress through it, the stats path reads
  /// its counters).
  std::shared_ptr<const GraphStore> store() const { return StoreSnapshot(); }

  /// The cached graph for `key` from the memory tier only, or nullptr.
  /// Counts a hit/miss; a hit freshens the entry's eviction rank.
  std::shared_ptr<const SubTransitionGraph> Lookup(const std::string& key);

  /// As above, but a memory miss falls through to the attached store (if
  /// any): a successful load — `schema`, `guards` and `k` supply the
  /// deserialization context, which the caller owns because it also built
  /// `key` — is promoted into the memory tier and counts as a hit. The
  /// disk read runs outside the map mutex; if a racing query populated the
  /// key meanwhile, the double-checked promote keeps whichever graph is
  /// further along. A missing, corrupt or truncated file counts as a miss
  /// (plus store_load_failures() when a file was present) and the caller
  /// builds fresh. The returned graph may be partial — check complete()
  /// and resume from cursor() on a copy. A non-null `trace` records the
  /// disk read as a "store_load" span annotated with whether it found the
  /// graph.
  std::shared_ptr<const SubTransitionGraph> Lookup(
      const std::string& key, const SchemaRef& schema,
      std::span<const FormulaRef> guards, int k,
      TraceRecorder* trace = nullptr);

  /// The memory-tier entry for `key` without counting a hit or miss and
  /// without freshening its eviction rank — a pure side-effect-free probe
  /// (used by the query service to decide whether a request needs the
  /// single-flight build path). Never touches the disk tier.
  std::shared_ptr<const SubTransitionGraph> Peek(const std::string& key) const;

  /// Stores a graph under `key`, evicting the least-recently-hit entry if
  /// a cap is set and reached. Partial graphs are first-class entries; an
  /// incumbent is replaced only by a strictly further-along graph
  /// (lexicographically by cursor phase, cursor position, edge count), so
  /// a complete entry is never downgraded and re-inserting equal progress
  /// is a no-op ("first insert wins" for complete graphs, as before).
  /// Accepted inserts are written through to the attached store, outside
  /// the map mutex. Throws std::invalid_argument on a null graph. A
  /// non-null `trace` records the write-through as a "store_save" span
  /// annotated with whether the store accepted it.
  void Insert(const std::string& key,
              std::shared_ptr<const SubTransitionGraph> graph,
              TraceRecorder* trace = nullptr);

  /// Applies GraphStore::Sweep(max_bytes, max_files) to the attached disk
  /// tier (no-op without one), outside the map mutex. Returns what was
  /// removed/kept; see store.h for the LRU-by-atime policy.
  StoreSweepResult SweepStore(std::uint64_t max_bytes,
                              std::uint64_t max_files);

  // Stats are plain atomics: they are written concurrently by queries on
  // other threads, and reading them must never tear or take the map mutex
  // (the query service aggregates them on its stats path).
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Graphs deserialized from the disk tier.
  std::uint64_t store_loads() const {
    return store_loads_.load(std::memory_order_relaxed);
  }
  /// Store files present but unreadable (truncated, corrupt, key or schema
  /// mismatch, version skew); each one fell back to a fresh build.
  std::uint64_t store_load_failures() const {
    return store_load_failures_.load(std::memory_order_relaxed);
  }
  /// Graphs written through to the disk tier.
  std::uint64_t store_writes() const {
    return store_writes_.load(std::memory_order_relaxed);
  }
  std::size_t max_entries() const { return max_entries_; }
  std::size_t size() const;

 private:
  struct Entry {
    std::shared_ptr<const SubTransitionGraph> graph;
    // Position in lru_; kept in sync under mutex_ (list iterators stay
    // valid across splices and other erasures).
    std::list<std::string>::iterator lru_pos;
  };

  /// The shared insert path: map update only, no I/O. Returns the graph
  /// to write through to the store (non-null only when the entry was
  /// accepted and `want_store_write`), so the caller can perform the disk
  /// write after releasing mutex_. Caller holds mutex_.
  std::shared_ptr<const SubTransitionGraph> InsertLocked(
      const std::string& key, std::shared_ptr<const SubTransitionGraph> graph,
      bool want_store_write);

  /// The attached store handle, snapshotted under the lock so I/O can run
  /// without it (AttachStore may swap the tier concurrently).
  std::shared_ptr<const GraphStore> StoreSnapshot() const;

  mutable std::mutex mutex_;
  const std::size_t max_entries_;
  std::unordered_map<std::string, Entry> graphs_;
  // Recency order, most recently hit/inserted first; entries hold their
  // own key so eviction can erase from the map.
  std::list<std::string> lru_;
  std::shared_ptr<const GraphStore> store_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> store_loads_{0};
  std::atomic<std::uint64_t> store_load_failures_{0};
  std::atomic<std::uint64_t> store_writes_{0};
};

}  // namespace amalgam

#endif  // AMALGAM_SOLVER_CACHE_H_
