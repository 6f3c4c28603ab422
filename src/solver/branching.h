// The branching extension of database-driven systems (paper §4.5, second
// bullet): a transition may spawn several successor configurations, all
// driven by the same database; a run is a finite tree of configurations
// whose leaves are accepting. Emptiness remains decidable over Fraïssé
// classes: per-branch sub-transitions amalgamate over the shared parent
// configuration, so a backward least fixpoint over small configurations
// ("alive" = accepting or some rule with all branches leading to alive
// configurations) decides the problem on the same sub-transition relation
// the linear solver builds — and since the port onto SubTransitionGraph it
// literally is the same relation: one shared interner, one edge store,
// labeled by guard slot (GraphSpec::slot maps each flattened branch to
// its distinct guard), so a linear and a branching query over one guard
// set share one graph through the same GraphCache, fetched, resumed, built
// and published by the same GraphAcquisition routine (solver/engine.h).
#ifndef AMALGAM_SOLVER_BRANCHING_H_
#define AMALGAM_SOLVER_BRANCHING_H_

#include <string>
#include <vector>

#include "fraisse/fraisse_class.h"
#include "solver/cache.h"
#include "solver/emptiness.h"
#include "system/dds.h"

namespace amalgam {

/// One branch of a branching rule: a guard (quantifier-free, over the
/// usual old/new variable convention) and the successor control state.
struct Branch {
  FormulaRef guard;
  int to = -1;
};

/// A branching rule: from `from`, spawn one successor per branch (all
/// branches fire together; each choice of new register values must satisfy
/// its branch's guard).
struct BranchingRule {
  int from = -1;
  std::vector<Branch> branches;
};

/// A branching database-driven system: a DdsSystem-style control skeleton
/// (reuses DdsSystem for states/registers/parsing) plus branching rules.
class BranchingSystem {
 public:
  explicit BranchingSystem(SchemaRef schema) : skeleton_(std::move(schema)) {}

  int AddState(std::string name, bool initial = false, bool accepting = false) {
    return skeleton_.AddState(std::move(name), initial, accepting);
  }
  int AddRegister(std::string name) {
    return skeleton_.AddRegister(std::move(name));
  }
  /// Adds a branching rule; guards in parser syntax.
  void AddRule(int from, const std::vector<std::pair<std::string, int>>&
                             guarded_targets);
  /// Adds a branching rule with already-built guards (used to mirror an
  /// ordinary DdsSystem rule-for-rule, e.g. by the differential tests).
  void AddRule(int from, std::vector<Branch> branches);

  const DdsSystem& skeleton() const { return skeleton_; }
  const std::vector<BranchingRule>& rules() const { return rules_; }

 private:
  DdsSystem skeleton_;
  std::vector<BranchingRule> rules_;
};

struct BranchingSolveResult {
  bool nonempty = false;
  SolveStats stats;
};

/// Decides: is there a database in `cls` driving a finite accepting run
/// tree of `system`? Routes through the shared SubTransitionGraph (the
/// same interner and edge store as the linear engine) and obtains it
/// through GraphAcquisition, the engine's own acquisition routine: when
/// `cache` is given, the complete graph for (class fingerprint, k, guard
/// set) is reused or stored, so a repeated query reports
/// stats.members_enumerated == 0 — and a *partial* entry left by an
/// early-exited linear query over the same guard set is resumed from its
/// cursor to completion (the backward fixpoint needs the whole relation)
/// rather than rebuilt. A non-empty `store_dir` attaches the disk tier
/// (GraphCache::AttachStore; with a null `cache`, a private per-query
/// cache fronts it), so the graph persists across processes.
/// `num_threads` > 1 shards the joint-member sweep of a fresh or resumed
/// build across worker threads (BuildFullParallel); the deterministic
/// merge keeps the graph — and hence the fixpoint and the verdict —
/// identical to a serial build. A non-null `trace` records a "solve" span
/// with cache_lookup / full_build / fixpoint children (and the resume
/// annotations when a partial entry was picked up).
BranchingSolveResult SolveBranchingEmptiness(
    const BranchingSystem& system, const FraisseClass& cls,
    GraphCache* cache = nullptr, int num_threads = 1,
    const std::string& store_dir = "", TraceRecorder* trace = nullptr);

/// The same query over `spec` = GraphSpecFor(cls, system, keyed), keyed
/// when `options` attach a cache or store. The build honours the cache,
/// store, thread, max_configs and atom-cap fields of `options`.
BranchingSolveResult SolveBranchingEmptiness(const BranchingSystem& system,
                                             const GraphSpec& spec,
                                             const SolveOptions& options);

}  // namespace amalgam

#endif  // AMALGAM_SOLVER_BRANCHING_H_
