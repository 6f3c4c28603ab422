#include "trees/solve.h"

#include <memory>
#include <stdexcept>

namespace amalgam {

std::shared_ptr<const TreeRunClass> TreeRunClassFor(
    const DdsSystem& system, const TreeAutomaton& automaton,
    int extra_pattern_cap) {
  if (system.num_registers() < 1) {
    throw std::invalid_argument(
        "tree emptiness requires at least one register");
  }
  return std::make_shared<TreeRunClass>(&automaton, extra_pattern_cap);
}

TreeSolveResult SolveTreeEmptiness(const DdsSystem& system,
                                   const TreeAutomaton& automaton,
                                   int witness_size_cap,
                                   int extra_pattern_cap,
                                   SolveStrategy strategy,
                                   GraphCache* cache, int num_threads,
                                   const std::string& store_dir,
                                   TraceRecorder* trace) {
  const std::shared_ptr<const TreeRunClass> cls =
      TreeRunClassFor(system, automaton, extra_pattern_cap);
  SolveOptions options;
  options.build_witness = false;  // no generic amalgamation for trees
  options.strategy = strategy;
  options.cache = cache;
  options.num_threads = num_threads;
  options.store_dir = store_dir;
  options.trace = trace;
  SolveResult generic = SolveEmptiness(system, *cls, options);
  TreeSolveResult result;
  result.nonempty = generic.nonempty;
  result.stats = generic.stats;
  if (result.nonempty && witness_size_cap > 0) {
    result.witness = BruteForceTreeSearch(system, automaton, witness_size_cap);
  }
  return result;
}

std::optional<TreeWitness> BruteForceTreeSearch(const DdsSystem& system,
                                                const TreeAutomaton& automaton,
                                                int max_size) {
  std::optional<TreeWitness> found;
  for (int size = 1; size <= max_size && !found.has_value(); ++size) {
    ForEachTree(size, automaton.num_labels(), [&](const Tree& t) {
      if (found.has_value()) return;
      auto run = automaton.FindRun(t);
      if (!run.has_value()) return;
      Structure db = TreedbOf(t, system.schema_ref());
      auto system_run = FindAcceptingRun(system, db);
      if (!system_run.has_value()) return;
      found = TreeWitness{t, std::move(*run), std::move(*system_run)};
    });
  }
  return found;
}

}  // namespace amalgam
