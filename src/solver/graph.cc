#include "solver/graph.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

namespace amalgam {

namespace {

// Packs two 32-bit shape ids into the disjoint halves of a uint64.
std::uint64_t PackShapePair(int old_shape, int new_shape) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(old_shape))
          << 32) |
         static_cast<std::uint32_t>(new_shape);
}

// One joint member through the guard sweep — the single definition of the
// per-member semantics the bit-identical-to-serial guarantee rests on,
// shared by the streaming/eager path (ProcessJointMember) and the parallel
// workers. Evaluates every compiled guard in order (through `eval`, the
// calling thread's VM state); on the first hit `intern` maps the old/new
// k-mark projections to shape ids (in that order — the merge keys on it);
// for each hit whose (guard, old, new) triple `dedup` reports fresh,
// `record` logs the edge with its recording rank within the member.
// Returns false iff `record` requested a stop.
template <typename Intern, typename Dedup, typename Record>
bool SweepJointMember(std::span<const CompiledGuard> guards,
                      GuardEvaluator& eval, int k, const Structure& d,
                      std::span<const Elem> marks, SolveStats& stats,
                      Intern&& intern, Dedup&& dedup, Record&& record) {
  int old_shape = -1;
  int new_shape = -1;
  std::uint32_t rank = 0;
  for (std::size_t g = 0; g < guards.size(); ++g) {
    ++stats.guard_evaluations;
    if (!eval.Eval(guards[g], d, marks)) continue;
    if (old_shape < 0) {
      std::tie(old_shape, new_shape) =
          intern(std::span<const Elem>(marks.data(), k),
                 std::span<const Elem>(marks.data() + k, k));
    }
    if (!dedup(static_cast<int>(g), old_shape, new_shape)) continue;
    if (!record(static_cast<int>(g), old_shape, new_shape, rank++)) {
      return false;
    }
  }
  return true;
}

// Adds the atoms `f` names to `reads` as (relation, mark positions), each
// once; false when `f` reads tuples no mark position names (a quantifier,
// a function term, a variable beyond the 2k marks).
bool CollectReads(const Formula& f, int num_marks, ReadSet& reads) {
  if (f.kind() == Formula::Kind::kExists) return false;
  std::vector<int> positions;
  for (const Term& t : f.terms()) {
    if (t.kind != Term::Kind::kVar || t.var >= num_marks) return false;
    positions.push_back(t.var);
  }
  ReadSet::Atom atom{f.rel(), std::move(positions)};
  if (f.kind() == Formula::Kind::kRel &&
      std::find(reads.atoms.begin(), reads.atoms.end(), atom) ==
          reads.atoms.end()) {
    reads.atoms.push_back(std::move(atom));
  }
  for (const FormulaRef& child : f.children()) {
    if (!CollectReads(*child, num_marks, reads)) return false;
  }
  return true;
}

}  // namespace

SubTransitionGraph::SubTransitionGraph(std::vector<FormulaRef> guards, int k)
    : guards_(std::move(guards)), k_(k), seen_(guards_.size()) {
  compiled_guards_.reserve(guards_.size());
  for (const FormulaRef& g : guards_) {
    compiled_guards_.push_back(CompiledGuard::Compile(*g));
  }
}

std::shared_ptr<SubTransitionGraph> SubTransitionGraph::FromParts(
    std::vector<FormulaRef> guards, int k, std::vector<CanonicalForm> shapes,
    std::vector<int> initial_shapes, std::vector<SubTransition> steps,
    std::vector<std::vector<Edge>> edges_by_shape, BuildCursor cursor) {
  const int num_shapes = static_cast<int>(shapes.size());
  const int num_steps = static_cast<int>(steps.size());
  const int num_guards = static_cast<int>(guards.size());
  if (cursor.phase > kCursorPhaseComplete) return nullptr;
  if (edges_by_shape.size() != shapes.size()) return nullptr;

  auto graph = std::make_shared<SubTransitionGraph>(std::move(guards), k);
  if (!graph->interner_.RestoreShapes(std::move(shapes))) return nullptr;

  graph->is_initial_.assign(num_shapes, 0);
  for (int shape : initial_shapes) {
    if (shape < 0 || shape >= num_shapes) return nullptr;
    if (graph->is_initial_[shape]) return nullptr;  // duplicates are corrupt
    graph->is_initial_[shape] = 1;
  }
  graph->initial_shapes_ = std::move(initial_shapes);

  std::uint64_t num_edges = 0;
  for (int s = 0; s < num_shapes; ++s) {
    for (const Edge& e : edges_by_shape[s]) {
      if (e.guard < 0 || e.guard >= num_guards) return nullptr;
      if (e.new_shape < 0 || e.new_shape >= num_shapes) return nullptr;
      if (e.step < 0 || e.step >= num_steps) return nullptr;
      // Rebuild the per-guard dedup sets; a repeated (guard, old, new)
      // triple can only come from a corrupt payload.
      if (!graph->seen_[e.guard].Insert(PackShapePair(s, e.new_shape))) {
        return nullptr;
      }
      ++num_edges;
    }
  }
  if (num_edges != static_cast<std::uint64_t>(num_steps)) return nullptr;
  for (const SubTransition& st : steps) {
    if (st.guard < 0 || st.guard >= num_guards) return nullptr;
    if (st.marks.size() != static_cast<std::size_t>(2 * k)) return nullptr;
  }
  graph->edges_by_shape_ = std::move(edges_by_shape);
  graph->steps_ = std::move(steps);
  graph->num_edges_ = num_edges;
  graph->cursor_ = cursor;
  return graph;
}

std::optional<ReadSet> SubTransitionGraph::reads() const {
  ReadSet reads;
  reads.old_marks = k_;
  for (const FormulaRef& g : guards_) {
    if (!CollectReads(*g, 2 * k_, reads)) return std::nullopt;
  }
  return reads;
}

void SubTransitionGraph::AdvanceCursorTo(const BuildCursor& c) {
  if (c < cursor_) {
    throw std::logic_error("SubTransitionGraph cursor moved backwards");
  }
  cursor_ = c;
}

int SubTransitionGraph::AddInitialMember(const Structure& d,
                                         std::span<const Elem> marks) {
  const int shape = interner_.Intern(d, marks);
  if (static_cast<std::size_t>(interner_.size()) > edges_by_shape_.size()) {
    edges_by_shape_.resize(interner_.size());
  }
  // Deduplicated: cached graphs live long, and the initial-shape scan of
  // every reusing query should be proportional to distinct shapes, not to
  // however many members a backend happened to emit per shape.
  if (is_initial_.size() < static_cast<std::size_t>(interner_.size())) {
    is_initial_.resize(interner_.size(), 0);
  }
  if (!is_initial_[shape]) {
    is_initial_[shape] = 1;
    initial_shapes_.push_back(shape);
  }
  return shape;
}

bool SubTransitionGraph::ProcessJointMember(const Structure& d,
                                            std::span<const Elem> marks,
                                            SolveStats& stats,
                                            const EdgeCallback& on_new_edge) {
  return SweepJointMember(
      compiled_guards_, guard_eval_, k_, d, marks, stats,
      [&](std::span<const Elem> old_marks, std::span<const Elem> new_marks) {
        const int old_shape = interner_.InternProjection(d, old_marks);
        const int new_shape = interner_.InternProjection(d, new_marks);
        if (static_cast<std::size_t>(interner_.size()) >
            edges_by_shape_.size()) {
          edges_by_shape_.resize(interner_.size());
        }
        return std::pair<int, int>(old_shape, new_shape);
      },
      [&](int g, int old_shape, int new_shape) {
        return seen_[g].Insert(PackShapePair(old_shape, new_shape));
      },
      [&](int g, int old_shape, int new_shape, std::uint32_t /*rank*/) {
        const int step = static_cast<int>(steps_.size());
        steps_.push_back(SubTransition{
            g, d, std::vector<Elem>(marks.begin(), marks.end())});
        edges_by_shape_[old_shape].push_back(Edge{g, new_shape, step});
        ++num_edges_;
        ++stats.edges;
        return !on_new_edge || on_new_edge(g, old_shape, new_shape, step);
      });
}

void SubTransitionGraph::SweepInitialMembers(const SolverBackend& backend,
                                             SolveStats& stats,
                                             std::uint64_t max_shapes,
                                             std::uint32_t atom_cap) {
  backend.EnumerateGeneratedFrom(
      k_, cursor_.next_member,
      [&](const Structure& d, std::span<const Elem> marks,
          std::uint64_t stream_index) {
        ++stats.members_enumerated;
        AddInitialMember(d, marks);
        cursor_.next_member = stream_index + 1;
        if (static_cast<std::uint64_t>(interner_.size()) > max_shapes) {
          throw std::runtime_error(
              "emptiness solver exceeded the configuration cap");
        }
        return true;
      },
      EnumControl{&stats.members_generated, atom_cap});
  cursor_ = BuildCursor{kCursorPhaseJoint, 0};
}

void SubTransitionGraph::BuildFull(const SolverBackend& backend,
                                   SolveStats& stats,
                                   std::uint64_t max_shapes,
                                   std::uint32_t atom_cap) {
  if (complete()) return;
  // Report only this build's canonicalization savings: a graph resumed
  // from an in-process partial entry arrives with its suspended builder's
  // counter.
  const std::uint64_t raw_hits_before = interner_.raw_hits();
  if (cursor_.phase == kCursorPhaseInitial) {
    SweepInitialMembers(backend, stats, max_shapes, atom_cap);
  }
  const std::optional<ReadSet> joint_reads = reads();
  backend.EnumerateGeneratedFrom(
      2 * k_, cursor_.next_member,
      [&](const Structure& d, std::span<const Elem> marks,
          std::uint64_t stream_index) {
        ++stats.members_enumerated;
        ProcessJointMember(d, marks, stats, nullptr);
        cursor_.next_member = stream_index + 1;
        if (static_cast<std::uint64_t>(interner_.size()) > max_shapes) {
          throw std::runtime_error(
              "emptiness solver exceeded the configuration cap");
        }
        return true;
      },
      EnumControl{&stats.members_generated, atom_cap,
                  joint_reads ? &*joint_reads : nullptr});
  stats.raw_memo_hits = interner_.raw_hits() - raw_hits_before;
  cursor_ = BuildCursor{kCursorPhaseComplete, 0};
}

void SubTransitionGraph::BuildFullParallel(const SolverBackend& backend,
                                           int n_threads, SolveStats& stats,
                                           std::uint64_t max_shapes,
                                           std::uint32_t atom_cap) {
  if (complete()) return;
  const std::uint64_t raw_hits_before = interner_.raw_hits();
  const int num_workers = std::max(1, n_threads);

  // Phase 0 — initial members. The k-generated stream is a small fraction
  // of the 2k joint stream, so it stays on the calling thread and interns
  // straight into the shared graph (identical to BuildFull).
  if (cursor_.phase == kCursorPhaseInitial) {
    SweepInitialMembers(backend, stats, max_shapes, atom_cap);
  }
  // Members before this position were already processed by the suspended
  // build this graph resumes; their shapes and edges are present and the
  // workers must skip them (the member at the position itself may have
  // been half-swept and is re-processed — the merge dedups).
  const std::uint64_t joint_start = cursor_.next_member;
  const std::optional<ReadSet> joint_reads = reads();

  // Phase 1 — the joint-member sweep, sharded. Each worker owns a disjoint
  // slice of the 2k stream and touches only its own buffers: a staging
  // interner for the old/new projections, per-guard local dedup sets, and
  // an edge/step log keyed by position in the full stream.
  struct StagedEdge {
    std::uint64_t member;  // stream position of the joint member
    std::uint32_t rank;    // recording order within the member
    int guard;
    int local_old;
    int local_new;
    int local_step;  // index into the worker's steps
  };
  struct Worker {
    StagingInterner staging;
    std::vector<FlatU64Set> seen;
    // Per-worker VM state: the compiled guards are shared read-only.
    GuardEvaluator eval;
    std::vector<StagedEdge> edges;
    std::vector<SubTransition> steps;
    SolveStats stats;
    std::exception_ptr error;
  };
  std::vector<Worker> workers(num_workers);

  auto run_worker = [&](int w) {
    Worker& wk = workers[w];
    wk.seen.resize(guards_.size());
    try {
      backend.EnumerateGeneratedShard(
          2 * k_, num_workers, w,
          [&](const Structure& d, std::span<const Elem> marks,
              std::uint64_t stream_index) {
            if (stream_index < joint_start) return true;
            ++wk.stats.members_enumerated;
            SweepJointMember(
                compiled_guards_, wk.eval, k_, d, marks, wk.stats,
                [&](std::span<const Elem> old_marks,
                    std::span<const Elem> new_marks) {
                  const int local_old = wk.staging.InternProjection(
                      d, old_marks, ShapeOrigin{1, stream_index, 0});
                  const int local_new = wk.staging.InternProjection(
                      d, new_marks, ShapeOrigin{1, stream_index, 1});
                  // Approximate cap check (local count only); the merge
                  // enforces the authoritative one.
                  if (static_cast<std::uint64_t>(wk.staging.size()) >
                      max_shapes) {
                    throw std::runtime_error(
                        "emptiness solver exceeded the configuration cap");
                  }
                  return std::pair<int, int>(local_old, local_new);
                },
                [&](int g, int local_old, int local_new) {
                  return wk.seen[g].Insert(PackShapePair(local_old, local_new));
                },
                [&](int g, int local_old, int local_new,
                    std::uint32_t rank) {
                  wk.steps.push_back(SubTransition{
                      g, d, std::vector<Elem>(marks.begin(), marks.end())});
                  wk.edges.push_back(StagedEdge{
                      stream_index, rank, g, local_old, local_new,
                      static_cast<int>(wk.steps.size()) - 1});
                  return true;
                });
            return true;
          },
          EnumControl{&wk.stats.members_generated, atom_cap,
                      joint_reads ? &*joint_reads : nullptr});
    } catch (...) {
      wk.error = std::current_exception();
    }
  };

  {
    std::vector<std::thread> threads;
    threads.reserve(num_workers);
    for (int w = 0; w < num_workers; ++w) {
      threads.emplace_back(run_worker, w);
    }
    for (std::thread& t : threads) t.join();
  }
  for (Worker& wk : workers) {
    if (wk.error) std::rethrow_exception(wk.error);
  }
  for (const Worker& wk : workers) {
    stats.members_enumerated += wk.stats.members_enumerated;
    stats.members_generated += wk.stats.members_generated;
    stats.guard_evaluations += wk.stats.guard_evaluations;
  }

  // Merge: renumber the staged shapes in serial first-encounter order...
  std::vector<StagingInterner> stagings;
  stagings.reserve(num_workers);
  for (Worker& wk : workers) stagings.push_back(std::move(wk.staging));
  std::vector<std::vector<int>> remap =
      MergeStagedShapes(stagings, interner_);
  if (static_cast<std::uint64_t>(interner_.size()) > max_shapes) {
    throw std::runtime_error(
        "emptiness solver exceeded the configuration cap");
  }
  if (static_cast<std::size_t>(interner_.size()) > edges_by_shape_.size()) {
    edges_by_shape_.resize(interner_.size());
  }

  // ...then replay the staged edges in stream order. Stream positions are
  // unique across workers (shards are disjoint), so this is the order a
  // serial sweep would have recorded them in, and the per-guard dedup set
  // keeps the earliest step of each (guard, old, new) triple — exactly the
  // one BuildFull keeps.
  struct MergedEdge {
    std::uint64_t member;
    std::uint32_t rank;
    int worker;
    const StagedEdge* staged;
  };
  std::vector<MergedEdge> merged;
  std::size_t total_edges = 0;
  for (const Worker& wk : workers) total_edges += wk.edges.size();
  merged.reserve(total_edges);
  for (std::size_t w = 0; w < workers.size(); ++w) {
    for (const StagedEdge& e : workers[w].edges) {
      merged.push_back(MergedEdge{e.member, e.rank, static_cast<int>(w), &e});
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const MergedEdge& a, const MergedEdge& b) {
              return a.member != b.member ? a.member < b.member
                                          : a.rank < b.rank;
            });
  for (const MergedEdge& m : merged) {
    const StagedEdge& e = *m.staged;
    const int old_shape = remap[m.worker][e.local_old];
    const int new_shape = remap[m.worker][e.local_new];
    if (!seen_[e.guard].Insert(PackShapePair(old_shape, new_shape))) {
      continue;
    }
    const int step = static_cast<int>(steps_.size());
    steps_.push_back(std::move(workers[m.worker].steps[e.local_step]));
    edges_by_shape_[old_shape].push_back(Edge{e.guard, new_shape, step});
    ++num_edges_;
    ++stats.edges;
  }

  stats.raw_memo_hits = interner_.raw_hits() - raw_hits_before;
  for (const StagingInterner& s : stagings) {
    stats.raw_memo_hits += s.raw_hits();
  }
  cursor_ = BuildCursor{kCursorPhaseComplete, 0};
}

}  // namespace amalgam
