#include "solver/engine.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <span>
#include <stdexcept>
#include <unordered_map>

#include "solver/branching.h"
#include "solver/store.h"

namespace amalgam {

namespace {
constexpr int kUnvisited = -1;
constexpr int kRoot = -2;

// The tail both GraphSpecFor overloads share: the Lemma 6 schema check, k,
// and the guard set. `listed` holds one guard per rule (or per flattened
// branch). Each distinct formula object is printed once under the backend
// schema; equal texts merge into one slot and slots are numbered in text
// order, and the key — the only place a query's key is built — is made of
// those same texts.
GraphSpec FinishSpec(std::shared_ptr<const SolverBackend> backend,
                     const DdsSystem& skeleton,
                     std::span<const FormulaRef> listed, bool keyed) {
  const Schema& schema = *backend->schema();
  if (!IsPrefixSchema(skeleton.schema(), schema)) {
    throw std::invalid_argument(
        "the system's schema must be a prefix of the class's schema");
  }
  GraphSpec spec;
  spec.backend = std::move(backend);
  spec.k = skeleton.num_registers();

  std::unordered_map<const Formula*, std::size_t> text_of;
  std::vector<std::string> texts;
  for (const FormulaRef& g : listed) {
    if (text_of.try_emplace(g.get(), texts.size()).second) {
      texts.push_back(g->ToString(schema));
    }
  }
  std::vector<std::string> sorted = texts;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  spec.guards.resize(sorted.size());
  spec.slot.reserve(listed.size());
  for (const FormulaRef& g : listed) {
    const std::string& text = texts[text_of[g.get()]];
    const int slot = static_cast<int>(
        std::lower_bound(sorted.begin(), sorted.end(), text) - sorted.begin());
    if (spec.guards[slot] == nullptr) spec.guards[slot] = g;
    spec.slot.push_back(slot);
  }
  if (keyed) {
    spec.key = GraphCache::KeyOfPrinted(*spec.backend, spec.k, sorted);
  }
  return spec;
}
}  // namespace

GraphSpec GraphSpecFor(std::shared_ptr<const SolverBackend> backend,
                       const DdsSystem& system, bool keyed) {
  if (!system.AllGuardsQuantifierFree()) {
    throw std::invalid_argument(
        "guards must be quantifier-free; run EliminateExistentials first");
  }
  std::vector<FormulaRef> listed;
  listed.reserve(system.rules().size());
  for (const TransitionRule& rule : system.rules()) {
    listed.push_back(rule.guard);
  }
  return FinishSpec(std::move(backend), system, listed, keyed);
}

GraphSpec GraphSpecFor(std::shared_ptr<const SolverBackend> backend,
                       const BranchingSystem& system, bool keyed) {
  std::vector<FormulaRef> listed;
  for (const BranchingRule& rule : system.rules()) {
    for (const Branch& branch : rule.branches) {
      if (!branch.guard->IsQuantifierFree()) {
        throw std::invalid_argument("branching guards must be QF");
      }
      listed.push_back(branch.guard);
    }
  }
  return FinishSpec(std::move(backend), system.skeleton(), listed, keyed);
}

GraphAcquisition::GraphAcquisition(const GraphSpec& spec,
                                   const SolveOptions& options,
                                   SolveStats& stats, ScopedSpan& solve_span)
    : spec_(spec), options_(options), stats_(stats), cache_(options.cache) {
  // A store directory without a caller-owned cache still gets the disk
  // tier: a private cache scoped to this query front-ends the store, which
  // is where the persistence actually lives.
  if (!options_.store_dir.empty()) {
    if (cache_ == nullptr) cache_ = &store_only_cache_.emplace();
    cache_->AttachStore(options_.store_dir);
  }
  if (cache_ == nullptr) return;
  if (spec_.key.empty()) {
    throw std::invalid_argument("a cached query needs a keyed GraphSpec");
  }
  {
    ScopedSpan lookup_span(options_.trace, "cache_lookup");
    hit_ = cache_->Lookup(spec_.key, spec_.backend->schema(), spec_.guards,
                          spec_.k, options_.trace);
    lookup_span.Annotate("hit", std::uint64_t{hit_ != nullptr});
    lookup_span.Annotate("complete", std::uint64_t{hit_ && hit_->complete()});
  }
  stats_.graph_from_cache = hit_ != nullptr;
  if (hit_ && !hit_->complete()) {
    // Where the stored trajectory left off, straight off the entry's
    // cursor.
    solve_span.Annotate("resumed_from_phase",
                        static_cast<std::uint64_t>(hit_->cursor().phase));
    solve_span.Annotate("resumed_from_member", hit_->cursor().next_member);
    stats_.graph_resumed = true;
  }
}

std::shared_ptr<const SubTransitionGraph> GraphAcquisition::Complete(
    int num_states) {
  if (hit_ && hit_->complete()) return hit_;
  auto built = hit_ ? std::make_shared<SubTransitionGraph>(*hit_)
                    : std::make_shared<SubTransitionGraph>(spec_.guards,
                                                           spec_.k);
  {
    ScopedSpan build_span(options_.trace, "full_build");
    const std::uint64_t max_shapes =
        num_states == 0 ? ~std::uint64_t{0}
                        : options_.max_configs / num_states;
    if (options_.num_threads > 1) {
      built->BuildFullParallel(*spec_.backend, options_.num_threads, stats_,
                               max_shapes, options_.relational_atom_cap);
    } else {
      built->BuildFull(*spec_.backend, stats_, max_shapes,
                       options_.relational_atom_cap);
    }
    build_span.Annotate(
        "threads",
        static_cast<std::uint64_t>(std::max(1, options_.num_threads)));
    build_span.Annotate("members_generated", stats_.members_generated);
    build_span.Annotate("edges", built->num_edges());
  }
  Insert(built);
  return built;
}

void GraphAcquisition::Insert(
    std::shared_ptr<const SubTransitionGraph> graph) {
  if (cache_ == nullptr) return;
  const std::uint64_t store_writes_before = cache_->store_writes();
  cache_->Insert(spec_.key, std::move(graph), options_.trace);
  // Apply the disk-tier caps after a write-through — and only then: a
  // cache-hit replay must not pay an O(files) directory scan.
  if ((options_.store_max_bytes > 0 || options_.store_max_files > 0) &&
      cache_->store_writes() != store_writes_before) {
    cache_->SweepStore(options_.store_max_bytes, options_.store_max_files);
  }
}

ExplorationEngine::ExplorationEngine(const DdsSystem& system,
                                     const GraphSpec& spec,
                                     const SolveOptions& options)
    : system_(system),
      spec_(spec),
      backend_(*spec.backend),
      options_(options),
      k_(spec.k),
      num_states_(system.num_states()) {
  const std::vector<TransitionRule>& rules = system.rules();
  if (spec.slot.size() != rules.size()) {
    throw std::invalid_argument("the GraphSpec was derived for another system");
  }
  // Sort the (cell, to) pairs and drop repeats: duplicated rules are one
  // move, and the index does not depend on rule order.
  std::vector<std::pair<int, int>> cells;
  cells.reserve(rules.size());
  for (std::size_t r = 0; r < rules.size(); ++r) {
    cells.emplace_back(spec.slot[r] * num_states_ + rules[r].from,
                       rules[r].to);
  }
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  move_begin_.assign(spec.guards.size() * num_states_ + 1, 0);
  moves_.reserve(cells.size());
  for (const auto& [cell, to] : cells) {
    ++move_begin_[cell + 1];
    moves_.push_back(Move{cell % num_states_, to});
  }
  std::partial_sum(move_begin_.begin(), move_begin_.end(),
                   move_begin_.begin());
}

void ExplorationEngine::EnsureConfigCapacity() {
  const std::size_t num_shapes =
      static_cast<std::size_t>(graph_->num_shapes());
  if (static_cast<std::uint64_t>(num_shapes) * num_states_ >
      options_.max_configs) {
    throw std::runtime_error(
        "emptiness solver exceeded the configuration cap");
  }
  if (parent_.size() < num_shapes * num_states_) {
    parent_.resize(num_shapes * num_states_, kUnvisited);
    via_step_.resize(num_shapes * num_states_, -1);
  }
}

void ExplorationEngine::SeedInitialShape(int shape) {
  for (int q = 0; q < num_states_ && goal_ < 0; ++q) {
    if (!system_.is_initial(q)) continue;
    const int c = config_id(q, shape);
    if (parent_[c] != kUnvisited) continue;
    Reach(c, kRoot, -1);
  }
}

bool ExplorationEngine::Reach(int next, int from, int step) {
  parent_[next] = from;
  via_step_[next] = step;
  ++configs_reached_;
  if (system_.is_accepting(next % num_states_)) {
    goal_ = next;
    return false;
  }
  queue_.push(next);
  return true;
}

void ExplorationEngine::RelaxNewEdge(int guard, int old_shape, int new_shape,
                                     int step) {
  const int first = move_begin_[guard * num_states_];
  const int last = move_begin_[(guard + 1) * num_states_];
  for (int m = first; m < last; ++m) {
    const int from = config_id(moves_[m].from, old_shape);
    if (parent_[from] == kUnvisited) continue;
    const int next = config_id(moves_[m].to, new_shape);
    if (parent_[next] != kUnvisited) continue;
    if (!Reach(next, from, step)) return;
  }
  DrainQueue();
}

void ExplorationEngine::DrainQueue() {
  while (goal_ < 0 && !queue_.empty()) {
    const int c = queue_.front();
    queue_.pop();
    const int state = c % num_states_;
    const int shape = c / num_states_;
    const std::vector<SubTransitionGraph::Edge>& edges =
        graph_->edges_from(shape);
    edges_scanned_ += edges.size();
    for (const SubTransitionGraph::Edge& e : edges) {
      const int cell = e.guard * num_states_ + state;
      const int last = move_begin_[cell + 1];
      for (int m = move_begin_[cell]; m < last; ++m) {
        const int next = config_id(moves_[m].to, e.new_shape);
        if (parent_[next] != kUnvisited) continue;
        if (!Reach(next, c, e.step)) return;
      }
    }
  }
}

void ExplorationEngine::RunOnTheFly(bool cached) {
  // Replay: a partial cache entry already holds shapes and edges — BFS
  // over them before touching the backend, so a goal inside the explored
  // region is found with zero enumeration and zero copying (the steady
  // state for repeated nonempty queries). On a fresh graph this is a
  // no-op.
  ReplayGraph("bfs_replay");
  if (goal_ >= 0) return;

  // The sweep must continue: from here on the graph is mutated, so a
  // shared partial entry is copied first — the cached object stays
  // immutable for concurrent readers.
  if (!owned_graph_) {
    owned_graph_ = std::make_shared<SubTransitionGraph>(*graph_);
    graph_ = owned_graph_;
  }
  const std::uint64_t raw_hits_before = owned_graph_->interner().raw_hits();

  // Initial frontier: members generated by the k registers, seeded as they
  // stream in (resuming mid-phase when the graph's cursor says so); an
  // accepting initial state exits before the 2k sweep starts.
  if (owned_graph_->cursor().phase == kCursorPhaseInitial) {
    ScopedSpan sweep_span(options_.trace, "sweep_initial");
    const std::uint64_t enumerated_before = result_.stats.members_enumerated;
    const std::uint64_t generated_before = result_.stats.members_generated;
    backend_.EnumerateGeneratedFrom(
        k_, owned_graph_->cursor().next_member,
        [&](const Structure& d, std::span<const Elem> marks,
            std::uint64_t stream_index) {
          ++result_.stats.members_enumerated;
          const int shape = owned_graph_->AddInitialMember(d, marks);
          owned_graph_->AdvanceCursorTo(
              BuildCursor{kCursorPhaseInitial, stream_index + 1});
          EnsureConfigCapacity();
          SeedInitialShape(shape);
          return goal_ < 0;
        },
        EnumControl{&result_.stats.members_generated,
                    options_.relational_atom_cap});
    sweep_span.Annotate("members_enumerated",
                        result_.stats.members_enumerated - enumerated_before);
    sweep_span.Annotate("members_generated",
                        result_.stats.members_generated - generated_before);
    if (goal_ < 0) {
      owned_graph_->AdvanceCursorTo(BuildCursor{kCursorPhaseJoint, 0});
    }
  }

  // Joint sweep. Backends with the EnumerateExtensions capability get the
  // frontier-directed form when nothing is cached or persisted (see
  // RunFrontierSweep — its graph is not a resumable stream prefix); the
  // positioned stream sweep below otherwise.
  if (goal_ < 0 && !cached && k_ >= 1 &&
      backend_.cursor_support().extensions &&
      owned_graph_->cursor() == BuildCursor{kCursorPhaseJoint, 0}) {
    RunFrontierSweep();
    result_.stats.raw_memo_hits =
        owned_graph_->interner().raw_hits() - raw_hits_before;
    return;
  }

  // Sub-transition stream: reachability is relaxed against every edge the
  // moment it is recorded, and the enumeration stops at the first accepting
  // configuration instead of sweeping the rest of the class. The cursor
  // advances past fully swept members only — a member interrupted
  // mid-sweep stays in front of it and is re-swept (deduplicated) on
  // resume.
  if (goal_ < 0) {
    ScopedSpan sweep_span(options_.trace, "sweep_joint");
    const std::uint64_t enumerated_before = result_.stats.members_enumerated;
    const std::uint64_t edges_before = owned_graph_->num_edges();
    backend_.EnumerateGeneratedFrom(
        2 * k_, owned_graph_->cursor().next_member,
        [&](const Structure& d, std::span<const Elem> marks,
            std::uint64_t stream_index) {
          ++result_.stats.members_enumerated;
          const bool swept = owned_graph_->ProcessJointMember(
              d, marks, result_.stats,
              [&](int guard, int old_shape, int new_shape, int step) {
                EnsureConfigCapacity();
                RelaxNewEdge(guard, old_shape, new_shape, step);
                return goal_ < 0;
              });
          if (swept) {
            owned_graph_->AdvanceCursorTo(
                BuildCursor{kCursorPhaseJoint, stream_index + 1});
          }
          return swept && goal_ < 0;
        },
        EnumControl{&result_.stats.members_generated,
                    options_.relational_atom_cap});
    sweep_span.Annotate("members_enumerated",
                        result_.stats.members_enumerated - enumerated_before);
    sweep_span.Annotate("edges", owned_graph_->num_edges() - edges_before);
    if (goal_ < 0) {
      owned_graph_->AdvanceCursorTo(BuildCursor{kCursorPhaseComplete, 0});
    }
  }
  // Only this query's own canonicalization work: a copied in-process
  // partial entry carries its builder's counter, which is not ours.
  result_.stats.raw_memo_hits =
      owned_graph_->interner().raw_hits() - raw_hits_before;
}

void ExplorationEngine::RunFrontierSweep() {
  // Worklist over shapes: expand every shape some rule could currently
  // fire out of, relax the fresh edges (which may reach new shapes'
  // configurations), rescan until closed or the goal appears. Each shape
  // expands at most once with all guards, so no joint member is generated
  // twice. The k-phase interned every k-generated member, and a joint's
  // projections are k-generated members, so expansion never adds shapes —
  // the scan is over a fixed arena.
  ScopedSpan sweep_span(options_.trace, "frontier_sweep");
  const std::uint64_t enumerated_before = result_.stats.members_enumerated;
  const std::uint64_t edges_before = owned_graph_->num_edges();
  EnsureConfigCapacity();
  const int num_shapes = graph_->num_shapes();
  std::vector<char> expanded(num_shapes, 0);
  bool progress = true;
  while (goal_ < 0 && progress) {
    progress = false;
    for (int shape = 0; shape < num_shapes && goal_ < 0; ++shape) {
      if (expanded[shape]) continue;
      bool relevant = false;
      for (const TransitionRule& rule : system_.rules()) {
        if (parent_[config_id(rule.from, shape)] != kUnvisited) {
          relevant = true;
          break;
        }
      }
      if (!relevant) continue;
      expanded[shape] = 1;
      progress = true;
      // Copy: ProcessJointMember interns projections, and even though they
      // dedupe to existing shapes, holding a reference into the arena
      // across it would be fragile.
      const CanonicalForm form = owned_graph_->interner().shape(shape);
      backend_.EnumerateExtensions(
          form.structure, form.marks, k_,
          [&](const Structure& d, std::span<const Elem> marks) {
            ++result_.stats.members_enumerated;
            const bool swept = owned_graph_->ProcessJointMember(
                d, marks, result_.stats,
                [&](int guard, int old_shape, int new_shape, int step) {
                  EnsureConfigCapacity();
                  RelaxNewEdge(guard, old_shape, new_shape, step);
                  return goal_ < 0;
                });
            return swept && goal_ < 0;
          },
          EnumControl{&result_.stats.members_generated,
                      options_.relational_atom_cap});
    }
  }
  sweep_span.Annotate("members_enumerated",
                      result_.stats.members_enumerated - enumerated_before);
  sweep_span.Annotate("edges", owned_graph_->num_edges() - edges_before);
}

void ExplorationEngine::ReplayGraph(const char* span_name) {
  ScopedSpan span(options_.trace, span_name);
  const std::uint64_t edges_before = edges_scanned_;
  const std::uint64_t configs_before = configs_reached_;
  EnsureConfigCapacity();
  for (int shape : graph_->initial_shapes()) {
    if (goal_ >= 0) break;
    SeedInitialShape(shape);
  }
  DrainQueue();
  span.Annotate("goal_found", std::uint64_t{goal_ >= 0});
  span.Annotate("edges_scanned", edges_scanned_ - edges_before);
  span.Annotate("configs_reached", configs_reached_ - configs_before);
}

SolveResult ExplorationEngine::Run() {
  ScopedSpan solve_span(options_.trace, "solve");
  GraphAcquisition graphs(spec_, options_, result_.stats, solve_span);
  const std::shared_ptr<const SubTransitionGraph>& hit = graphs.hit();
  if (options_.strategy == SolveStrategy::kEager || (hit && hit->complete())) {
    // A complete entry is pure BFS over interned ids, zero enumeration;
    // eager builds (or finishes a partial entry) first.
    graph_ = graphs.Complete(num_states_);
    ReplayGraph("bfs");
  } else {
    if (hit) {
      // Partial entry: replay it in place; RunOnTheFly copies it only if
      // the sweep actually has to continue.
      graph_ = hit;
    } else {
      owned_graph_ = std::make_shared<SubTransitionGraph>(spec_.guards, k_);
      graph_ = owned_graph_;
    }
    RunOnTheFly(graphs.cached());
    // Whatever this run added — or the whole graph on a miss — feeds the
    // next query; a replay-served query added nothing (and owns nothing),
    // and equal progress is a no-op inside Insert anyway.
    if (owned_graph_) graphs.Insert(owned_graph_);
  }
  Finish();
  return std::move(result_);
}

void ExplorationEngine::Finish() {
  result_.stats.configs =
      static_cast<std::uint64_t>(graph_->num_shapes()) * num_states_;
  // On a cache hit no edges were recorded this query, but the counters
  // describe the graph the verdict was decided over — report it either way.
  // raw_memo_hits is owned by whichever path built the graph (BuildFull,
  // BuildFullParallel — whose memos are partly per-worker and invisible to
  // the merged interner — or the on-the-fly stream) and stays 0 on a cache
  // hit: no canonicalization ran at all.
  result_.stats.edges = graph_->num_edges();
  if (goal_ < 0) {
    result_.nonempty = false;
    return;
  }
  result_.nonempty = true;

  // ---- Reconstruct the path of small configurations. ----
  std::vector<int> config_path;
  std::vector<int> step_path;
  for (int c = goal_; c != kRoot; c = parent_[c]) {
    config_path.push_back(c);
    if (parent_[c] != kRoot) step_path.push_back(via_step_[c]);
  }
  std::reverse(config_path.begin(), config_path.end());
  std::reverse(step_path.begin(), step_path.end());
  for (int c : config_path) {
    result_.path.push_back(SmallConfig{
        c % num_states_, graph_->interner().shape(c / num_states_)});
  }
  for (int s : step_path) result_.steps.push_back(graph_->step(s));

  if (options_.build_witness) {
    ScopedSpan witness_span(options_.trace, "witness");
    ReconstructWitness();
  }
}

void ExplorationEngine::ReconstructWitness() {
  // Replay the soundness proof. Invariants: `big` is a member of C;
  // `cur[c]` maps the canonical elements of the current configuration's
  // shape into `big`; `valuations[i]` are the register contents of step i
  // in `big`'s coordinates.
  Structure big = result_.path.front().form.structure;
  std::vector<Elem> cur(big.size());
  for (Elem e = 0; e < big.size(); ++e) cur[e] = e;
  std::vector<std::vector<Elem>> valuations;
  valuations.push_back(result_.path.front().form.marks);

  for (std::size_t i = 0; i < result_.steps.size(); ++i) {
    const SubTransition& st = result_.steps[i];
    const Structure& joint = st.joint;
    std::span<const Elem> old_marks(st.marks.data(), k_);
    std::span<const Elem> new_marks(st.marks.data() + k_, k_);
    SubstructureResult old_sub = GeneratedSubstructure(joint, old_marks);
    std::vector<Elem> old_sub_marks(k_);
    for (int j = 0; j < k_; ++j) {
      old_sub_marks[j] = old_sub.old_to_new[old_marks[j]];
    }
    CanonicalForm old_canon = Canonicalize(old_sub.structure, old_sub_marks);
    assert(old_canon.key == result_.path[i].form.key);
    // Map joint -> big over the common part (the old configuration).
    std::vector<Elem> joint_to_big(joint.size(), kNoElem);
    for (Elem sub_e = 0; sub_e < old_sub.structure.size(); ++sub_e) {
      Elem joint_e = old_sub.new_to_old[sub_e];
      joint_to_big[joint_e] = cur[old_canon.perm[sub_e]];
    }
    auto am = backend_.Amalgamate(big, joint, joint_to_big);
    if (!am.has_value()) return;  // backend without witness reconstruction
    big = std::move(am->structure);
    // Remap all previous valuations through the (usually identity)
    // embedding of the old big structure.
    for (auto& v : valuations) {
      for (Elem& e : v) e = am->embed_a[e];
    }
    // New current embedding: canonical elements of the new configuration's
    // shape -> big.
    SubstructureResult new_sub = GeneratedSubstructure(joint, new_marks);
    std::vector<Elem> new_sub_marks(k_);
    for (int j = 0; j < k_; ++j) {
      new_sub_marks[j] = new_sub.old_to_new[new_marks[j]];
    }
    CanonicalForm new_canon = Canonicalize(new_sub.structure, new_sub_marks);
    assert(new_canon.key == result_.path[i + 1].form.key);
    cur.assign(new_sub.structure.size(), kNoElem);
    for (Elem sub_e = 0; sub_e < new_sub.structure.size(); ++sub_e) {
      cur[new_canon.perm[sub_e]] = am->embed_b[new_sub.new_to_old[sub_e]];
    }
    std::vector<Elem> val(k_);
    for (int j = 0; j < k_; ++j) val[j] = cur[new_canon.marks[j]];
    valuations.push_back(std::move(val));
  }

  ConcreteRun run;
  for (std::size_t i = 0; i < result_.path.size(); ++i) {
    run.push_back(ConcreteConfig{result_.path[i].state, valuations[i]});
  }
  result_.witness_db = std::move(big);
  result_.witness_run = std::move(run);
}

}  // namespace amalgam
