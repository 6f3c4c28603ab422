// The layered exploration engine behind the Theorem 5 decision procedure.
//
// Given a database-driven system S with k registers and a backend class C,
// the paper's nondeterministic algorithm walks over *small configurations*
// — members of C generated by the register contents — connected by
// *sub-transitions*: pairs of small configurations that jointly embed into
// a member generated by both valuations in which some rule's guard holds.
//
// The sub-transition graph itself (shape interning, guard sweep, edge
// dedup) lives in solver/graph.h, shared with the branching solver; the
// engine layers reachability on top in one of three ways:
//
//   * kOnTheFly (default): a frontier-driven incremental search. Members of
//     C generated by 2k marks stream in from the backend; each guard hit
//     contributes a sub-transition edge between interned small-configuration
//     shapes, reachability is propagated immediately over the edges known so
//     far, and the enumeration is stopped the moment an accepting
//     configuration is reached. Nonempty instances terminate after exploring
//     a fraction of the sub-transition graph (see
//     SolveStats::members_enumerated).
//
//   * kEager: the original materialize-then-BFS pipeline — one full pass
//     over the 2k-generated members builds the whole sub-transition graph,
//     then BFS decides reachability. Kept as the reference for differential
//     testing.
//
//   * cached (SolveOptions::cache != nullptr and/or a non-empty
//     SolveOptions::store_dir): the graph is fetched from a GraphCache — a
//     complete entry serves the query with zero enumeration; a *partial*
//     entry (persisted by an earlier early-exited on-the-fly run together
//     with its BuildCursor) is replayed and, when the verdict needs more of
//     the class, resumed from its cursor instead of rebuilt. Whatever this
//     query adds is inserted back, so the cache's trajectory only ever
//     advances. With a store directory attached the same holds across
//     processes (solver/store.h).
//
// Which graph a query needs is a GraphSpec; how it is fetched, resumed,
// built and published is GraphAcquisition, the one routine the engine and
// the branching fixpoint (and so every front door and the service) share.
// The graph's edges carry guard slots, one per distinct guard (GraphSpec),
// not rule ids; the engine turns an edge into configuration moves through
// a per-system index from (guard slot, from-state) to to-states.
//
// All strategies share the canonical-form interner (solver/intern.h), the
// predecessor links used for witness-path replay, and the witness
// reconstruction that replays the soundness proof through the backend's
// amalgamation operator.
#ifndef AMALGAM_SOLVER_ENGINE_H_
#define AMALGAM_SOLVER_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "base/canonical.h"
#include "obs/trace.h"
#include "solver/backend.h"
#include "solver/cache.h"
#include "solver/graph.h"
#include "solver/intern.h"
#include "system/concrete.h"
#include "system/dds.h"

namespace amalgam {

class BranchingSystem;

/// A small configuration: control state + canonical (database, valuation).
struct SmallConfig {
  int state = -1;
  CanonicalForm form;
};

/// How the engine explores the sub-transition graph.
enum class SolveStrategy {
  /// Frontier-driven incremental search with early exit (default).
  kOnTheFly,
  /// Materialize the whole sub-transition graph, then BFS.
  kEager,
};

struct SolveOptions {
  /// Reconstruct a concrete witness database + run on success.
  bool build_witness = true;
  /// Abort (throwing std::runtime_error) if more configurations than this
  /// are discovered — a guard against mis-specified classes.
  std::uint64_t max_configs = 1 << 22;
  /// Exploration strategy; kEager preserves the original pipeline for
  /// differential testing.
  SolveStrategy strategy = SolveStrategy::kOnTheFly;
  /// When set, the engine serves the query from the cached graph for
  /// (backend fingerprint, k, guard set) when one exists: a complete entry
  /// answers with members_enumerated == 0; a partial entry is replayed
  /// (BFS over its recorded edges) and resumed from its BuildCursor only
  /// if the verdict needs more of the class. Misses build fresh. With
  /// kOnTheFly the build keeps its early exit — the resulting partial
  /// graph is cached (and persisted, with a store) for the next query to
  /// extend; with kEager the build runs to completion as before.
  GraphCache* cache = nullptr;
  /// When non-empty, attaches the disk tier at this directory to `cache`
  /// (GraphCache::AttachStore) — or, if `cache` is null, to a private
  /// per-query cache — so graphs persist across processes: a query in a
  /// fresh process finds the previous run's complete graph (zero
  /// enumeration) or resumes its partial one from the stored cursor.
  std::string store_dir;
  /// Disk-tier caps, applied (GraphCache::SweepStore — LRU by access time)
  /// after each write-through to an attached store, so long-lived store
  /// directories stop growing without bound. 0 = unlimited. The memory
  /// tier is governed separately by GraphCache(max_entries).
  std::uint64_t store_max_bytes = 0;
  std::uint64_t store_max_files = 0;
  /// Number of worker threads for complete-graph builds (the kEager
  /// strategy, including eager completion of a resumed partial entry):
  /// > 1 routes the joint-member sweep through
  /// SubTransitionGraph::BuildFullParallel, whose deterministic merge makes
  /// the result bit-identical to a serial build — parallel-built and
  /// serial-built graphs are interchangeable, including as GraphCache and
  /// store values. Ignored by the kOnTheFly strategy (the early-exit
  /// stream is inherently sequential).
  int num_threads = 1;
  /// Cap on the relational enumerators' per-partition atom count (the
  /// candidate space is 2^atoms). 0 keeps the backend default
  /// (kDefaultRelationalAtomCap = 28). Exceeding the cap raises
  /// EnumerationCapError — a structured error that amalgamd surfaces to
  /// clients as an in-band JSON error — instead of silently grinding
  /// through an astronomically large grid. The cap does not change the
  /// member stream of a query that succeeds, so it is not part of the
  /// cache key.
  std::uint32_t relational_atom_cap = 0;
  /// When non-null, the engine records its phases into this recorder as a
  /// "solve" span with per-phase children (cache lookup with store-tier
  /// annotations, initial/joint sweeps with member counts, BFS, store
  /// save, witness reconstruction; a resumed partial entry annotates the
  /// cursor it picked up from). Null — the default — costs one branch per
  /// span site (see obs/trace.h). Not part of the cache key.
  TraceRecorder* trace = nullptr;
};

struct SolveResult {
  /// True iff some database in the class drives an accepting run.
  bool nonempty = false;
  /// The path of small configurations (nonempty verdicts only). With
  /// kEager this is a BFS-shortest path; with kOnTheFly the path follows
  /// edge-arrival order and may be longer (witness reconstruction cost
  /// grows with path length — prefer kEager when minimal witnesses
  /// matter more than solve time).
  std::vector<SmallConfig> path;
  /// The sub-transitions along the path (path.size() - 1 entries).
  std::vector<SubTransition> steps;
  /// Concrete witness (requires build_witness and a backend that implements
  /// Amalgamate; nullopt otherwise).
  std::optional<Structure> witness_db;
  std::optional<ConcreteRun> witness_run;
  SolveStats stats;
};

/// Whether these options attach a cache or store, so need a keyed spec.
inline bool UsesGraphCache(const SolveOptions& options) {
  return options.cache != nullptr || !options.store_dir.empty();
}

/// Which sub-transition graph a query needs: in the paper it depends only
/// on the class, k and the *set* of guards. The positional front doors
/// borrow the caller's backend (BorrowBackend); the query service owns the
/// run classes it constructs.
struct GraphSpec {
  std::shared_ptr<const SolverBackend> backend;
  /// The distinct guards, one graph guard slot each, sorted by their
  /// printed form under the backend schema (equal texts are one guard).
  /// No rule order, duplicated guard or re-spaced guard text changes this
  /// list, so systems over one guard set share one graph.
  std::vector<FormulaRef> guards;
  /// The guard slot of each rule, in rule order, or of each branch in
  /// (rule, branch) order: guards[slot[i]] prints like rule/branch i's guard.
  std::vector<int> slot;
  int k = 0;
  /// GraphCache::Key(*backend, k, guards), built from the texts the slots
  /// were sorted by; empty unless keyed.
  std::string key;
};

/// The spec of `system`'s graph over `backend`: prints each distinct guard
/// formula once, sorts and merges the texts into slots, and — when `keyed`
/// (pass UsesGraphCache(options)) — builds the key from those texts. Throws
/// std::invalid_argument unless every guard is quantifier-free (apply
/// EliminateExistentials first) and the system's schema is a prefix of the
/// backend's (Lemma 6: extra symbols are invisible to such guards).
GraphSpec GraphSpecFor(std::shared_ptr<const SolverBackend> backend,
                       const DdsSystem& system, bool keyed);
GraphSpec GraphSpecFor(std::shared_ptr<const SolverBackend> backend,
                       const BranchingSystem& system, bool keyed);

/// A non-owning handle on a backend the caller keeps alive.
inline std::shared_ptr<const SolverBackend> BorrowBackend(
    const SolverBackend& backend) {
  return std::shared_ptr<const SolverBackend>(std::shared_ptr<const void>(),
                                              &backend);
}

/// The one path by which the engine and the branching fixpoint obtain a
/// graph. Construction resolves the cache (options.cache, or a private one
/// fronting options.store_dir) and looks spec.key up under a
/// "cache_lookup" span; a partial hit annotates `solve_span` with its
/// cursor. An insert that writes through to the store is followed by the
/// store-cap sweep. `spec` and `options` must outlive the acquisition.
class GraphAcquisition {
 public:
  GraphAcquisition(const GraphSpec& spec, const SolveOptions& options,
                   SolveStats& stats, ScopedSpan& solve_span);

  /// Whether a cache (the caller's or the store-only one) backs the query.
  bool cached() const { return cache_ != nullptr; }
  /// The cached entry, complete or partial; null on a miss or uncached.
  const std::shared_ptr<const SubTransitionGraph>& hit() const {
    return hit_;
  }

  /// The complete graph: a complete hit as is, else built ("full_build")
  /// from a private copy of a partial hit or fresh — sharded when
  /// options.num_threads > 1, capped by options.max_configs over
  /// `num_states` states and options.relational_atom_cap — and inserted.
  std::shared_ptr<const SubTransitionGraph> Complete(int num_states);

  /// Publishes a graph this query grew (on the fly); no-op uncached.
  void Insert(std::shared_ptr<const SubTransitionGraph> graph);

 private:
  const GraphSpec& spec_;
  const SolveOptions& options_;
  SolveStats& stats_;
  std::optional<GraphCache> store_only_cache_;
  GraphCache* cache_ = nullptr;
  std::shared_ptr<const SubTransitionGraph> hit_;
};

/// One emptiness query over one system and its graph spec. Single-use:
/// build, Run() once, discard.
class ExplorationEngine {
 public:
  /// `spec` must be GraphSpecFor(backend, system, keyed) — keyed when
  /// `options` attach a cache or store — and must outlive the engine.
  ExplorationEngine(const DdsSystem& system, const GraphSpec& spec,
                    const SolveOptions& options = {});
  ExplorationEngine(const DdsSystem&, GraphSpec&&, const SolveOptions& = {}) =
      delete;  // the engine keeps a reference to its spec

  SolveResult Run();

 private:
  int config_id(int state, int shape) const {
    return shape * num_states_ + state;
  }

  /// On-the-fly exploration over owned_graph_, starting from whatever the
  /// graph already holds: replays existing shapes/edges first (a resumed
  /// partial graph may already contain the goal), then continues the
  /// member sweep from the graph's cursor with early exit, advancing the
  /// cursor as it goes. `cached` rules out the frontier sweep.
  void RunOnTheFly(bool cached);
  /// The joint-member half of RunOnTheFly for backends with the
  /// EnumerateExtensions capability: instead of filtering the global 2k
  /// stream, each interned shape is expanded at most once — and only after
  /// some rule could fire out of it (a reached (from-state, shape)
  /// configuration exists) — by generating its extension stream directly.
  /// Per-shape extension streams partition the full 2k stream, so the
  /// member count never exceeds the eager sweep's and equals it when every
  /// shape expands. Only used cache-less: a frontier-built graph omits
  /// unreached shapes' edges, so it is not a resumable stream prefix and
  /// must never be cached or persisted. `reads` is the graph's read set.
  void RunFrontierSweep(const ReadSet* reads);
  /// Seeds the initial shapes and BFSes over graph_'s recorded edges
  /// under a `span_name` span, stopping at an accepting configuration.
  void ReplayGraph(const char* span_name);

  /// Grows the per-config reachability tables (parent_/via_step_) to the
  /// graph's current shape count and enforces the configuration cap.
  void EnsureConfigCapacity();

  /// Marks every (initial state, shape) configuration reached; sets goal_
  /// when one of them is accepting.
  void SeedInitialShape(int shape);

  /// Relaxes one fresh edge against the current reached set: every rule
  /// whose guard sits in slot `guard` may take it.
  void RelaxNewEdge(int guard, int old_shape, int new_shape, int step);

  /// Marks `next` reached from `from` via witness step `step`; sets goal_
  /// if its state is accepting, else queues it. Returns false at the goal.
  bool Reach(int next, int from, int step);

  /// BFS over the recorded edges from the current queue until exhaustion or
  /// an accepting configuration.
  void DrainQueue();

  /// Path reconstruction + optional witness replay into result_.
  void Finish();
  void ReconstructWitness();

  const DdsSystem& system_;
  // The graph's guard indices are the spec's slots, not rule ids.
  const GraphSpec& spec_;
  const SolverBackend& backend_;
  SolveOptions options_;
  int k_;
  int num_states_;

  // The rules as a CSR index from (guard slot, from-state) to their
  // distinct to-states: the moves of cell `slot * num_states_ + from` are
  // moves_[move_begin_[cell] .. move_begin_[cell + 1]), sorted by to-state.
  // A slot's cells are contiguous, so RelaxNewEdge scans one range too.
  struct Move {
    int from;
    int to;
  };
  std::vector<int> move_begin_;
  std::vector<Move> moves_;

  // The active graph: `owned_graph_` when this query grows it on the fly
  // (resumption always copies the shared cache entry first), a cached or
  // completed graph otherwise.
  std::shared_ptr<SubTransitionGraph> owned_graph_;
  std::shared_ptr<const SubTransitionGraph> graph_;

  // parent_[c] = config id of predecessor (kUnvisited / kRoot sentinels);
  // via_step_[c] = step index used to reach c.
  std::vector<int> parent_;
  std::vector<int> via_step_;
  std::queue<int> queue_;
  int goal_ = -1;
  // Deterministic BFS work, annotated on the bfs/bfs_replay spans: graph
  // edges read out of dequeued shapes, and configurations marked reached.
  std::uint64_t edges_scanned_ = 0;
  std::uint64_t configs_reached_ = 0;

  SolveResult result_;
};

}  // namespace amalgam

#endif  // AMALGAM_SOLVER_ENGINE_H_
