// Theorem 3 front door: emptiness of database-driven systems over the
// trees of a regular tree language, plus the brute-force reference and
// witness search used by tests and examples.
#ifndef AMALGAM_TREES_SOLVE_H_
#define AMALGAM_TREES_SOLVE_H_

#include <memory>
#include <optional>
#include <string>

#include "solver/emptiness.h"
#include "trees/run_class.h"

namespace amalgam {

/// A concrete Theorem 3 witness: a tree of the language, a run on it, and
/// an accepting system run driven by Treedb(tree).
struct TreeWitness {
  Tree tree;
  std::vector<int> automaton_run;
  ConcreteRun system_run;
};

struct TreeSolveResult {
  bool nonempty = false;
  /// Produced by a bounded concrete search after a nonempty verdict (the
  /// tree class does not implement generic amalgamation); may be nullopt
  /// for nonempty instances whose smallest witness exceeds the search cap.
  std::optional<TreeWitness> witness;
  SolveStats stats;
};

/// The backend a tree query runs over: the run-pattern class of
/// `automaton` (which it retains by pointer) with `extra_pattern_cap`.
/// Throws std::invalid_argument when `system` has no register.
std::shared_ptr<const TreeRunClass> TreeRunClassFor(
    const DdsSystem& system, const TreeAutomaton& automaton,
    int extra_pattern_cap);

/// Decides: is there a tree t accepted by `automaton` such that `system`
/// (over the automaton's TreeSchema) has an accepting run driven by
/// Treedb(t)? `witness_size_cap` bounds the post-hoc concrete witness
/// search (0 disables it). Routes through the shared exploration engine;
/// `strategy` selects on-the-fly (default) or the eager reference pipeline.
/// `cache`, when given, reuses/stores the sub-transition graph keyed by
/// (automaton fingerprint + pattern cap, k, guard set); complete entries
/// serve queries with zero enumeration, partial ones resume from their
/// cursor. A non-empty `store_dir` persists graphs to disk
/// (SolveOptions::store_dir) for cross-process reuse. `num_threads` > 1
/// shards complete-graph builds (the eager strategy) across worker threads
/// behind the deterministic merge; verdicts and graphs match the serial
/// build bit for bit. A non-null `trace` is passed through as
/// SolveOptions::trace — the engine records its "solve" span tree into it.
TreeSolveResult SolveTreeEmptiness(
    const DdsSystem& system, const TreeAutomaton& automaton,
    int witness_size_cap = 6, int extra_pattern_cap = 4,
    SolveStrategy strategy = SolveStrategy::kOnTheFly,
    GraphCache* cache = nullptr, int num_threads = 1,
    const std::string& store_dir = "", TraceRecorder* trace = nullptr);

/// Brute force: tries every tree with up to `max_size` nodes.
std::optional<TreeWitness> BruteForceTreeSearch(const DdsSystem& system,
                                                const TreeAutomaton& automaton,
                                                int max_size);

}  // namespace amalgam

#endif  // AMALGAM_TREES_SOLVE_H_
