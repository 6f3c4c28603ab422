// The sub-transition graph shared by every emptiness solver.
//
// Both the linear exploration engine (solver/engine.h) and the branching
// backward fixpoint (solver/branching.h) decide emptiness over the same
// object: the graph whose vertices are interned small-configuration shapes
// and whose edges are sub-transitions — guard hits on the members of the
// class generated by 2k marks, with the old/new k-mark projections interned
// as endpoints. SubTransitionGraph owns that joint-member sweep (guard
// evaluation + projection interning + edge deduplication) in one place:
//
//   * the engine drives it incrementally (one joint member at a time, a
//     callback per fresh edge, stoppable mid-member for the on-the-fly
//     early exit);
//   * the branching solver and the cached path build it eagerly with
//     BuildFull, which sweeps the whole class and marks the graph complete —
//     or with BuildFullParallel, which splits the joint-member sweep across
//     worker threads (each owning one shard of the stream, staging shapes
//     and edges locally) and merges the shards deterministically: shapes are
//     renumbered in serial first-encounter order, edges and witness steps
//     are deduplicated by earliest stream position, so the result is
//     bit-identical to BuildFull whatever the thread count or scheduling.
//
// A graph depends only on (backend, k, guard set) — not on the control
// skeleton that supplied the guards — so it is shareable across queries and
// across solvers; solver/cache.h keys that reuse by backend fingerprint.
// The guard set is a *set*: GraphSpecFor (solver/engine.h) hands the graph
// one slot per distinct guard, sorted by printed form, so rule order and
// repeated guards never change a graph, its edges or its key.
// Parallel-built and serial-built graphs are interchangeable cache values
// for the same reason.
//
// Completeness is not a boolean precondition but a *cursor*: every graph
// carries a BuildCursor recording how far its member sweep has progressed
// (sweep phase + position in that phase's deterministic member stream). An
// early-exited on-the-fly build leaves a partial graph whose cursor marks
// where a later query — in this process or, through solver/store.h, in a
// different one — resumes the sweep instead of rebuilding from scratch;
// BuildFull/BuildFullParallel on a partial graph finish the remaining
// suffix only. A resumed-to-completion graph is bit-identical to a cold
// full build (same shape numbering, edges, witness steps).
#ifndef AMALGAM_SOLVER_GRAPH_H_
#define AMALGAM_SOLVER_GRAPH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "logic/compiled.h"
#include "logic/formula.h"
#include "solver/backend.h"
#include "solver/intern.h"
#include "util/flat_hash.h"

namespace amalgam {

/// One sub-transition along a witness path: the guard that held and the
/// joint member of the class (with its 2k-mark tuple) in which it held.
struct SubTransition {
  int guard = -1;  // the graph's guard slot (GraphSpec::guards index)
  Structure joint;
  std::vector<Elem> marks;  // old valuation ++ new valuation
};

/// Counters for the complexity experiments.
struct SolveStats {
  std::uint64_t members_enumerated = 0;  // candidates from the class
  /// Members the backend had to *materialize* to serve the sweep — the
  /// generation-vs-processing split. Backends with native cursors generate
  /// only the requested slice, so sharded and resumed builds report less
  /// than the full stream here; the default adapters regenerate everything
  /// to filter it, so they report the full stream (per worker).
  std::uint64_t members_generated = 0;
  std::uint64_t guard_evaluations = 0;
  std::uint64_t edges = 0;               // distinct sub-transitions
  std::uint64_t configs = 0;             // distinct small configurations
  std::uint64_t raw_memo_hits = 0;       // canonicalizations skipped
  bool graph_from_cache = false;         // seeded by a GraphCache entry
  bool graph_resumed = false;            // that entry was partial (cursor)
};

/// Progress of a (possibly suspended) graph build, totally ordered by
/// (phase, next_member). `next_member` is the position in the current
/// phase's member stream the build resumes at: members before it are fully
/// processed; the member *at* it may have been partially processed by a
/// mid-member early exit, and re-sweeping it is safe because edge
/// recording deduplicates. The streams are deterministic per backend
/// fingerprint (same structures, same order — the Fingerprint contract),
/// which is what makes a cursor meaningful across processes.
struct BuildCursor {
  /// 0 = in the k-generated initial-member sweep, 1 = in the 2k
  /// joint-member sweep, 2 = complete.
  std::uint32_t phase = 0;
  std::uint64_t next_member = 0;

  friend bool operator==(const BuildCursor&, const BuildCursor&) = default;
  friend bool operator<(const BuildCursor& a, const BuildCursor& b) {
    return a.phase != b.phase ? a.phase < b.phase
                              : a.next_member < b.next_member;
  }
};

inline constexpr std::uint32_t kCursorPhaseInitial = 0;
inline constexpr std::uint32_t kCursorPhaseJoint = 1;
inline constexpr std::uint32_t kCursorPhaseComplete = 2;

/// The labeled graph of sub-transitions between interned shapes. Guards are
/// indexed 0..n-1 by slot; GraphSpec::slot maps each rule of the linear
/// engine, and each flattened branch of the branching solver, to its slot.
class SubTransitionGraph {
 public:
  /// An edge out of an old shape: the guard that held, the interned shape
  /// of the new projection, and the witness step recording the joint.
  struct Edge {
    int guard;
    int new_shape;
    int step;  // index into step()
  };

  /// Invoked once per freshly recorded (deduplicated) edge during a
  /// streaming build; return false to stop processing the current member.
  using EdgeCallback =
      std::function<bool(int guard, int old_shape, int new_shape, int step)>;

  /// `guards` must be quantifier-free formulas over the old/new variable
  /// convention for `k` registers (variable i = old register i, k + i =
  /// new register i).
  SubTransitionGraph(std::vector<FormulaRef> guards, int k);

  /// Reassembles a graph from persisted parts (solver/store.cc): the shape
  /// arena, initial set, witness steps and per-shape edge lists are adopted
  /// verbatim; derived state (the interner's hash-consing map, per-guard
  /// dedup sets, initial-shape flags, edge count) is rebuilt here, so a
  /// restored graph resumes or serves queries exactly like the graph that
  /// was serialized. Returns nullptr when the parts are inconsistent
  /// (corrupt payload): out-of-range shape/step/guard indices, duplicate
  /// shapes, steps not matching the edge count, or an out-of-range cursor.
  static std::shared_ptr<SubTransitionGraph> FromParts(
      std::vector<FormulaRef> guards, int k,
      std::vector<CanonicalForm> shapes, std::vector<int> initial_shapes,
      std::vector<SubTransition> steps,
      std::vector<std::vector<Edge>> edges_by_shape, BuildCursor cursor);

  // ---- Streaming construction (the incremental engine). ----

  /// Interns a k-generated member as an initial shape; returns its id.
  int AddInitialMember(const Structure& d, std::span<const Elem> marks);

  /// Evaluates every guard on a joint 2k-generated member; on the first hit
  /// interns the old/new projections, then records one deduplicated edge
  /// per (guard, old, new) triple, invoking `on_new_edge` for each. Returns
  /// false iff the callback requested a stop.
  bool ProcessJointMember(const Structure& d, std::span<const Elem> marks,
                          SolveStats& stats, const EdgeCallback& on_new_edge);

  // ---- Eager construction (branching fixpoint, cached queries). ----

  /// Sweeps the k- and 2k-generated members of `backend` from the current
  /// cursor to the end of both streams and marks the graph complete. On a
  /// fresh graph this is the historical full build; on a restored partial
  /// graph it processes only the remaining stream suffix (stats count just
  /// that suffix) and the finished graph is bit-identical to a cold full
  /// build. No-op when already complete. Throws std::runtime_error when
  /// the interner grows past `max_shapes` (a guard against mis-specified
  /// classes). `atom_cap` overrides the relational enumerators' candidate
  /// cap (0 = backend default), threaded through as EnumControl::atom_cap.
  void BuildFull(const SolverBackend& backend, SolveStats& stats,
                 std::uint64_t max_shapes = ~std::uint64_t{0},
                 std::uint32_t atom_cap = 0);

  /// BuildFull with the joint-member sweep sharded across `n_threads`
  /// worker threads (backend.EnumerateGeneratedShard; the k-generated
  /// initial sweep is tiny and stays on the calling thread). Workers stage
  /// shapes, edges and steps locally; the merge renumbers shapes in serial
  /// first-encounter order and deduplicates edges by earliest stream
  /// position, so the resulting graph — shapes, initial set, edges, steps —
  /// is bit-identical to a serial BuildFull. Of the stats only
  /// raw_memo_hits may differ (the raw-key memo is per-worker). Like
  /// BuildFull it starts from the current cursor, so it also finishes
  /// restored partial graphs (workers skip the already-processed stream
  /// prefix). n_threads < 1 is clamped to 1 (which still runs the
  /// stage-and-merge path).
  void BuildFullParallel(const SolverBackend& backend, int n_threads,
                         SolveStats& stats,
                         std::uint64_t max_shapes = ~std::uint64_t{0},
                         std::uint32_t atom_cap = 0);

  // ---- Read access. ----

  const ConfigInterner& interner() const { return interner_; }
  int num_shapes() const { return interner_.size(); }
  const std::vector<int>& initial_shapes() const { return initial_shapes_; }
  const std::vector<Edge>& edges_from(int shape) const {
    return edges_by_shape_[shape];
  }
  const SubTransition& step(int i) const { return steps_[i]; }
  /// Witness steps recorded so far; always equal to num_edges() (each
  /// deduplicated edge records exactly one step).
  int num_steps() const { return static_cast<int>(steps_.size()); }
  std::uint64_t num_edges() const { return num_edges_; }
  int k() const { return k_; }
  const std::vector<FormulaRef>& guards() const { return guards_; }
  /// The tuples the guards read on a joint member, handed to every 2k
  /// sweep as EnumControl::reads; nullopt when a guard has a quantifier or
  /// a function term (it reads everything). Derived from the distinct
  /// guards on each call rather than stored, so the many complete graphs a
  /// cache holds carry no copy: take it once per sweep.
  std::optional<ReadSet> reads() const;

  /// How far the member sweep has progressed; persisted alongside the
  /// graph so a later query resumes instead of rebuilding.
  const BuildCursor& cursor() const { return cursor_; }

  /// Records sweep progress from a streaming build (the engine advances
  /// the cursor member by member; phase kCursorPhaseComplete marks the
  /// graph complete). Throws std::logic_error on a non-monotonic move —
  /// cursors only ever advance.
  void AdvanceCursorTo(const BuildCursor& c);

  /// True once the whole class has been swept (cursor phase 2): the graph
  /// holds every shape and edge and serves any query with zero enumeration.
  bool complete() const { return cursor_.phase == kCursorPhaseComplete; }

 private:
  /// The serial k-generated sweep (resuming at the cursor) shared by
  /// BuildFull and the parallel build's phase 0; leaves the cursor at the
  /// start of the joint phase.
  void SweepInitialMembers(const SolverBackend& backend, SolveStats& stats,
                           std::uint64_t max_shapes, std::uint32_t atom_cap);

  std::vector<FormulaRef> guards_;
  // The guards lowered to bytecode once at construction (logic/compiled.h);
  // immutable and shared read-only by the parallel sweep workers, each of
  // which owns its own GuardEvaluator.
  std::vector<CompiledGuard> compiled_guards_;
  // The streaming path's evaluator (ProcessJointMember is driven by one
  // thread; the class was never thread-safe for concurrent mutation).
  GuardEvaluator guard_eval_;
  int k_;

  ConfigInterner interner_;
  std::vector<int> initial_shapes_;
  std::vector<char> is_initial_;  // dedup flag per shape id
  std::vector<SubTransition> steps_;
  std::vector<std::vector<Edge>> edges_by_shape_;
  // Deduplication per guard: packed (old_shape, new_shape) pairs already
  // recorded. Shape ids are 32-bit, so the pair packs exactly into the two
  // halves of a uint64 — no overlap however large the arena grows.
  std::vector<FlatU64Set> seen_;
  std::uint64_t num_edges_ = 0;
  BuildCursor cursor_;
};

}  // namespace amalgam

#endif  // AMALGAM_SOLVER_GRAPH_H_
