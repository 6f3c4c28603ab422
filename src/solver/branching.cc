#include "solver/branching.h"

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <unordered_map>

namespace amalgam {

void BranchingSystem::AddRule(
    int from,
    const std::vector<std::pair<std::string, int>>& guarded_targets) {
  BranchingRule rule;
  rule.from = from;
  for (const auto& [guard_text, to] : guarded_targets) {
    rule.branches.push_back(Branch{skeleton_.ParseGuard(guard_text), to});
  }
  rules_.push_back(std::move(rule));
}

void BranchingSystem::AddRule(int from, std::vector<Branch> branches) {
  rules_.push_back(BranchingRule{from, std::move(branches)});
}

BranchingSolveResult SolveBranchingEmptiness(const BranchingSystem& system,
                                             const FraisseClass& cls,
                                             GraphCache* cache,
                                             int num_threads,
                                             const std::string& store_dir,
                                             TraceRecorder* trace) {
  SolveOptions options;
  options.cache = cache;
  options.num_threads = num_threads;
  options.store_dir = store_dir;
  options.trace = trace;
  return SolveBranchingEmptiness(
      system,
      GraphSpecFor(BorrowBackend(cls), system, UsesGraphCache(options)),
      options);
}

BranchingSolveResult SolveBranchingEmptiness(const BranchingSystem& system,
                                             const GraphSpec& spec,
                                             const SolveOptions& options) {
  std::size_t num_branches = 0;
  for (const BranchingRule& rule : system.rules()) {
    num_branches += rule.branches.size();
  }
  if (spec.slot.size() != num_branches) {
    throw std::invalid_argument("the GraphSpec was derived for another system");
  }
  ScopedSpan solve_span(options.trace, "solve");
  const DdsSystem& skel = system.skeleton();
  BranchingSolveResult result;
  // Backward fixpoints need the complete graph: served from the cache, or
  // built eagerly (finishing a partial entry that an early-exited linear
  // query over the same guard set left, possibly in another process) and
  // stored for the next query.
  const std::shared_ptr<const SubTransitionGraph> graph =
      GraphAcquisition(spec, options, result.stats, solve_span)
          .Complete(skel.num_states());
  ScopedSpan fixpoint_span(options.trace, "fixpoint");

  const int num_shapes = graph->num_shapes();
  const int num_states = skel.num_states();
  result.stats.edges = graph->num_edges();
  result.stats.configs =
      static_cast<std::uint64_t>(num_shapes) * num_states;

  // Per-guard adjacency view: old_shape -> new shapes. Branches with one
  // guard text share a slot (spec.slot maps flattened branch ids to slots).
  std::vector<std::unordered_map<int, std::vector<int>>> edges(
      spec.guards.size());
  for (int s = 0; s < num_shapes; ++s) {
    for (const SubTransitionGraph::Edge& e : graph->edges_from(s)) {
      edges[e.guard][s].push_back(e.new_shape);
    }
  }

  // Backward least fixpoint: alive(state, shape).
  std::vector<char> alive(static_cast<std::size_t>(num_shapes) * num_states,
                          0);
  auto idx = [&](int state, int shape) { return shape * num_states + state; };
  for (int q = 0; q < num_states; ++q) {
    if (!skel.is_accepting(q)) continue;
    for (int s = 0; s < num_shapes; ++s) alive[idx(q, s)] = 1;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    std::size_t branch_base = 0;
    for (const BranchingRule& rule : system.rules()) {
      for (int s = 0; s < num_shapes; ++s) {
        if (alive[idx(rule.from, s)]) continue;
        bool all_branches = true;
        for (std::size_t b = 0; b < rule.branches.size() && all_branches;
             ++b) {
          const auto& branch_edges = edges[spec.slot[branch_base + b]];
          auto it = branch_edges.find(s);
          bool some_alive = false;
          if (it != branch_edges.end()) {
            for (int t : it->second) {
              if (alive[idx(rule.branches[b].to, t)]) {
                some_alive = true;
                break;
              }
            }
          }
          all_branches &= some_alive;
        }
        if (all_branches && !rule.branches.empty()) {
          alive[idx(rule.from, s)] = 1;
          changed = true;
        }
      }
      branch_base += rule.branches.size();
    }
  }

  for (int q = 0; q < num_states && !result.nonempty; ++q) {
    if (!skel.is_initial(q)) continue;
    for (int s : graph->initial_shapes()) {
      if (alive[idx(q, s)]) {
        result.nonempty = true;
        break;
      }
    }
  }
  return result;
}

}  // namespace amalgam
