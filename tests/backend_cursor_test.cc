// Conformance tests for the positioned enumeration cursors.
//
// The SolverBackend contract says the positioned entry points
// (EnumerateGeneratedShard / EnumerateGeneratedFrom) must reproduce the
// EnumerateGeneratedUntil stream exactly — same structures, same marks,
// same positions — whether a backend uses the filtering default adapters
// or overrides them with native cursors into its member space. These
// tests pin that contract for every backend in the zoo, so a native
// cursor that drifts from the reference stream (wrong unranking, wrong
// successor step, wrong shard ranges) fails here rather than as a
// miscached graph three layers up.
//
// Also covered: the EnumerateExtensions partition law (per-shape
// extension streams reproduce the joint stream exactly), the structured
// EnumerationCapError surfaced through engine options and the query
// service, and the members_generated acceptance property — a
// store-resumed relational build materializes only the stream suffix.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "base/canonical.h"
#include "fraisse/hom_class.h"
#include "fraisse/relational.h"
#include "service/protocol.h"
#include "service/service.h"
#include "solver/emptiness.h"
#include "solver/graph.h"
#include "solver/store.h"
#include "system/zoo.h"
#include "trees/run_class.h"
#include "trees/zoo.h"
#include "words/run_class.h"
#include "words/zoo.h"

namespace amalgam {
namespace {

struct Member {
  Structure s;
  std::vector<Elem> marks;
};

std::vector<Member> ReferenceStream(const SolverBackend& backend, int m) {
  std::vector<Member> out;
  backend.EnumerateGeneratedUntil(
      m, [&](const Structure& s, std::span<const Elem> marks) {
        out.push_back({s, std::vector<Elem>(marks.begin(), marks.end())});
        return true;
      });
  return out;
}

// The length of the positioned stream `reads` prunes (null: the full one).
std::uint64_t PositionedStreamSize(const SolverBackend& backend, int m,
                                   const ReadSet* reads) {
  std::uint64_t size = 0;
  backend.EnumerateGeneratedFrom(
      m, 0,
      [&](const Structure&, std::span<const Elem>, std::uint64_t) {
        ++size;
        return true;
      },
      EnumControl{nullptr, 0, reads});
  return size;
}

bool SameMember(const Member& a, const Structure& s,
                std::span<const Elem> marks) {
  return a.s == s &&
         a.marks == std::vector<Elem>(marks.begin(), marks.end());
}

struct NamedBackend {
  std::string name;
  std::shared_ptr<const SolverBackend> backend;
  std::vector<int> ms;
};

const TreeAutomaton* TwoLevelAutomaton() {
  static const TreeAutomaton automaton = TaTwoLevel();
  return &automaton;
}

// One backend per cursor implementation: the three relational native
// cursors (grid, factorial, Bell), the word/tree positioned walks, and a
// default-adapter backend (LiftedHomClass) to pin the adapters too.
std::vector<NamedBackend> AllBackends() {
  std::vector<NamedBackend> out;
  out.push_back({"all_graph",
                 std::make_shared<AllStructuresClass>(GraphZooSchema()),
                 {0, 1, 2}});
  Schema unary;
  unary.AddRelation("p", 1);
  out.push_back({"all_unary",
                 std::make_shared<AllStructuresClass>(
                     MakeSchema(std::move(unary))),
                 {1, 2, 3}});
  out.push_back({"orders", std::make_shared<LinearOrderClass>(), {1, 2, 3}});
  out.push_back({"equiv", std::make_shared<EquivalenceClass>(), {1, 2, 3}});
  out.push_back({"word_runs",
                 std::make_shared<WordRunClass>(NfaAPlusBPlus()),
                 {1, 2}});
  out.push_back({"tree_runs",
                 std::make_shared<TreeRunClass>(TwoLevelAutomaton(), 3),
                 {1, 2}});
  out.push_back({"hom_lift",
                 std::make_shared<LiftedHomClass>(Example2Template()),
                 {1, 2}});
  return out;
}

std::vector<FormulaRef> GuardsOf(const DdsSystem& system) {
  std::vector<FormulaRef> guards;
  for (const TransitionRule& rule : system.rules()) {
    guards.push_back(rule.guard);
  }
  return guards;
}

TEST(CursorConformanceTest, FromReproducesEveryReferenceSuffix) {
  for (const NamedBackend& nb : AllBackends()) {
    const bool native = nb.backend->cursor_support().native_from;
    for (int m : nb.ms) {
      const std::vector<Member> ref = ReferenceStream(*nb.backend, m);
      const std::uint64_t total = ref.size();
      std::set<std::uint64_t> starts = {0, 1, total / 2, total, total + 5};
      if (total > 0) starts.insert(total - 1);
      for (std::uint64_t start : starts) {
        std::uint64_t generated = 0;
        std::uint64_t expect_next = start;
        nb.backend->EnumerateGeneratedFrom(
            m, start,
            [&](const Structure& s, std::span<const Elem> marks,
                std::uint64_t pos) {
              EXPECT_EQ(pos, expect_next) << nb.name << " m=" << m;
              ++expect_next;
              EXPECT_LT(pos, total);
              EXPECT_TRUE(SameMember(ref[pos], s, marks))
                  << nb.name << " m=" << m << " diverges at position " << pos;
              return true;
            },
            EnumControl{&generated, 0});
        const std::uint64_t suffix = total - std::min(start, total);
        EXPECT_EQ(expect_next - start, suffix) << nb.name << " m=" << m;
        // Native cursors materialize only the suffix; the adapters
        // regenerate the whole stream to skip the prefix.
        EXPECT_EQ(generated, native ? suffix : total)
            << nb.name << " m=" << m << " start=" << start;
      }
    }
  }
}

TEST(CursorConformanceTest, ShardsPartitionTheReferenceStream) {
  for (const NamedBackend& nb : AllBackends()) {
    const bool native = nb.backend->cursor_support().native_shard;
    for (int m : nb.ms) {
      const std::vector<Member> ref = ReferenceStream(*nb.backend, m);
      const std::uint64_t total = ref.size();
      for (int n_shards : {1, 2, 3, 8}) {
        std::set<std::uint64_t> seen;
        std::uint64_t generated = 0;
        for (int shard = 0; shard < n_shards; ++shard) {
          std::int64_t prev = -1;
          nb.backend->EnumerateGeneratedShard(
              m, n_shards, shard,
              [&](const Structure& s, std::span<const Elem> marks,
                  std::uint64_t pos) {
                EXPECT_LT(pos, total);
                EXPECT_GT(static_cast<std::int64_t>(pos), prev)
                    << nb.name << ": positions must increase within a shard";
                prev = static_cast<std::int64_t>(pos);
                EXPECT_TRUE(seen.insert(pos).second)
                    << nb.name << ": position " << pos
                    << " delivered by two shards";
                EXPECT_TRUE(SameMember(ref[pos], s, marks))
                    << nb.name << " m=" << m << " diverges at position "
                    << pos;
                return true;
              },
              EnumControl{&generated, 0});
        }
        EXPECT_EQ(seen.size(), total)
            << nb.name << " m=" << m << ": shards must cover the stream";
        // Native shards materialize disjoint slices summing to the
        // stream; each adapter shard regenerates the full stream.
        EXPECT_EQ(generated, native ? total : total * n_shards)
            << nb.name << " m=" << m << " n_shards=" << n_shards;
      }
    }
  }
}

TEST(CursorConformanceTest, ExtensionStreamsPartitionTheJointStream) {
  for (const NamedBackend& nb : AllBackends()) {
    if (!nb.backend->cursor_support().extensions) continue;
    for (int k : {1, 2}) {
      if (nb.name == "all_graph" && k > 1) continue;  // 2k=4 is ~1M members
      // The joint stream, one canonical key per isomorphism class.
      std::vector<std::string> full;
      nb.backend->EnumerateGeneratedUntil(
          2 * k, [&](const Structure& s, std::span<const Elem> marks) {
            full.push_back(Canonicalize(s, marks).key);
            return true;
          });
      std::sort(full.begin(), full.end());
      // Every k-generated shape, canonicalized the way the engine interns
      // them, expanded exactly once.
      std::map<std::string, CanonicalForm> shapes;
      nb.backend->EnumerateGeneratedUntil(
          k, [&](const Structure& s, std::span<const Elem> marks) {
            CanonicalForm form = Canonicalize(s, marks);
            shapes.emplace(form.key, std::move(form));
            return true;
          });
      std::vector<std::string> joint;
      std::uint64_t generated = 0;
      for (const auto& [key, form] : shapes) {
        nb.backend->EnumerateExtensions(
            form.structure, form.marks, k,
            [&](const Structure& s, std::span<const Elem> marks) {
              joint.push_back(Canonicalize(s, marks).key);
              return true;
            },
            EnumControl{&generated, 0});
      }
      std::sort(joint.begin(), joint.end());
      // Partition law: same isomorphism classes, each exactly once across
      // all shapes — duplicates or gaps both break the multiset equality.
      EXPECT_EQ(joint, full) << nb.name << " k=" << k;
      EXPECT_EQ(generated, full.size()) << nb.name << " k=" << k;
    }
  }
}

// Stream positions, shard ranges and cursors are taken over the grid's
// row counts, so each row's count must be exactly the members the
// enumerator emits for it — with and without a read set.
TEST(CursorConformanceTest, PrunedRowCountsMatchTheEmittedRows) {
  Schema unary;
  unary.AddRelation("p", 1);
  const SchemaRef unary_schema = MakeSchema(std::move(unary));
  auto var = [](int v) { return Term::Var(v); };
  struct Case {
    SchemaRef schema;
    int k;
    std::vector<FormulaRef> guards;  // empty: no read set
  };
  const std::vector<Case> cases = {
      {GraphZooSchema(), 1, {}},
      {GraphZooSchema(), 1, {Formula::Rel(0, {var(0), var(1)})}},
      {GraphZooSchema(), 2,
       {Formula::Rel(0, {var(0), var(3)}),
        Formula::And(Formula::Rel(0, {var(2), var(1)}),
                     Formula::Rel(1, {var(3)}))}},
      {GraphZooSchema(), 2, {Formula::Eq(var(0), var(2))}},
      {unary_schema, 2, {}},
      {unary_schema, 2, {Formula::Rel(0, {var(3)})}},
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const Case& tc = cases[c];
    AllStructuresClass cls(tc.schema);
    std::optional<ReadSet> reads;
    if (!tc.guards.empty()) {
      reads = SubTransitionGraph(tc.guards, tc.k).reads();
    }
    const EnumControl ctl{nullptr, 0, reads ? &*reads : nullptr};
    const int m = 2 * tc.k;
    const auto rows = cls.RowCounts(m, ctl);
    // The emitted stream, cut into runs of equal marks: one run per row.
    std::vector<std::pair<std::vector<Elem>, std::uint64_t>> emitted;
    cls.EnumerateGeneratedFrom(
        m, 0,
        [&](const Structure&, std::span<const Elem> marks, std::uint64_t) {
          std::vector<Elem> row(marks.begin(), marks.end());
          if (emitted.empty() || emitted.back().first != row) {
            emitted.emplace_back(std::move(row), 0);
          }
          ++emitted.back().second;
          return true;
        },
        ctl);
    EXPECT_EQ(emitted, rows) << "case " << c;
  }
}

TEST(CursorConformanceTest, AtomCapThrowsStructuredError) {
  AllStructuresClass cls(GraphZooSchema());
  // m=2, d=2: 4 E-bits + 2 red-bits = 6 atoms > cap 3.
  try {
    cls.EnumerateGeneratedFrom(
        2, 0,
        [](const Structure&, std::span<const Elem>, std::uint64_t) {
          return true;
        },
        EnumControl{nullptr, 3});
    FAIL() << "expected EnumerationCapError";
  } catch (const EnumerationCapError& e) {
    EXPECT_EQ(e.atoms(), 6u);
    EXPECT_EQ(e.cap(), 3u);
    EXPECT_STREQ(EnumerationCapError::kCode, "enumeration_cap");
    EXPECT_NE(std::string(e.what()).find("raise atom_cap"),
              std::string::npos);
  }
}

TEST(CursorConformanceTest, EngineSurfacesTheCapThroughSolveOptions) {
  DdsSystem system = ReachRedSystem();
  AllStructuresClass cls(GraphZooSchema());
  SolveOptions capped;
  capped.build_witness = false;
  capped.relational_atom_cap = 1;
  EXPECT_THROW(SolveEmptiness(system, cls, capped), EnumerationCapError);
  // The cap truncates nothing when respected: a raised cap reaches the
  // same verdict as the default.
  SolveOptions raised;
  raised.build_witness = false;
  raised.relational_atom_cap = 32;
  EXPECT_TRUE(SolveEmptiness(system, cls, raised).nonempty);
}

TEST(CursorConformanceTest, ServiceDeliversTheCapErrorInBand) {
  QueryService::Options options;
  options.num_workers = 1;
  QueryService service(options);
  QueryRequest request;
  request.kind = QueryKind::kSystem;
  request.system = std::make_shared<DdsSystem>(ReachRedSystem());
  request.cls = std::make_shared<AllStructuresClass>(GraphZooSchema());
  request.atom_cap = 1;
  const QueryResult result = service.Submit(std::move(request)).get();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error_code, EnumerationCapError::kCode);
  EXPECT_NE(result.error.find("exceeds the cap"), std::string::npos);
  // ... and amalgamd's JSONL rendering keeps it machine-readable.
  ProtocolRequest protocol_request;
  protocol_request.id_json = "7";
  const std::string line = FormatQueryResponse(protocol_request, result);
  EXPECT_NE(line.find("\"error_code\":\"enumeration_cap\""),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"ok\":false"), std::string::npos) << line;
}

// The acceptance property: resuming a persisted partial graph whose
// cursor sits at >= 50% of the joint stream materializes strictly fewer
// members than the full stream (the native EnumerateGeneratedFrom seeks
// into the grid instead of regenerating the prefix), and the finished
// graph stays bit-identical to a cold full build.
TEST(CursorConformanceTest, StoreResumedBuildGeneratesOnlyTheSuffix) {
  DdsSystem system = ReachRedSystem();
  AllStructuresClass cls(GraphZooSchema());
  std::vector<FormulaRef> guards = GuardsOf(system);
  const int k = system.num_registers();
  ASSERT_EQ(k, 1);
  SubTransitionGraph cold(guards, k);
  // The joint sweep runs over the stream pruned by the graph's read set.
  const std::optional<ReadSet> reads = cold.reads();
  ASSERT_TRUE(reads.has_value());
  const std::uint64_t initial_total = ReferenceStream(cls, k).size();
  const std::uint64_t joint_total = PositionedStreamSize(cls, 2 * k, &*reads);

  SolveStats cold_stats;
  cold.BuildFull(cls, cold_stats);
  EXPECT_EQ(cold_stats.members_generated, initial_total + joint_total);

  // A streaming build suspended halfway through the joint sweep — the
  // state an early-exited on-the-fly query persists.
  SubTransitionGraph partial(guards, k);
  SolveStats partial_stats;
  cls.EnumerateGeneratedFrom(
      k, 0,
      [&](const Structure& s, std::span<const Elem> marks, std::uint64_t pos) {
        partial.AddInitialMember(s, marks);
        partial.AdvanceCursorTo({kCursorPhaseInitial, pos + 1});
        return true;
      },
      EnumControl{&partial_stats.members_generated, 0});
  partial.AdvanceCursorTo({kCursorPhaseJoint, 0});
  const std::uint64_t cutoff = joint_total / 2;  // cursor at 50%
  cls.EnumerateGeneratedFrom(
      2 * k, 0,
      [&](const Structure& s, std::span<const Elem> marks, std::uint64_t pos) {
        if (pos >= cutoff) return false;
        partial.ProcessJointMember(s, marks, partial_stats,
                                   [](int, int, int, int) { return true; });
        partial.AdvanceCursorTo({kCursorPhaseJoint, pos + 1});
        return true;
      },
      EnumControl{&partial_stats.members_generated, 0, &*reads});

  const std::string key = "cursor-acceptance";
  const std::string bytes = SerializeGraph(partial, key);
  std::shared_ptr<SubTransitionGraph> restored =
      DeserializeGraph(bytes, key, cls.schema(), guards, k);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->cursor(), (BuildCursor{kCursorPhaseJoint, cutoff}));

  SolveStats resumed_stats;
  restored->BuildFull(cls, resumed_stats);
  // The resumed build materializes exactly the unswept suffix — strictly
  // less than the full stream, which is the whole point of the cursors.
  EXPECT_EQ(resumed_stats.members_generated, joint_total - cutoff);
  EXPECT_LT(resumed_stats.members_generated, initial_total + joint_total);
  EXPECT_EQ(SerializeGraph(*restored, key), SerializeGraph(cold, key));
}

TEST(CursorConformanceTest, NativeShardedBuildsAreBitIdenticalAcrossThreads) {
  DdsSystem system = ReachRedSystem();
  AllStructuresClass cls(GraphZooSchema());
  ASSERT_TRUE(cls.cursor_support().native_shard);
  std::vector<FormulaRef> guards = GuardsOf(system);
  const int k = system.num_registers();
  SubTransitionGraph cold(guards, k);
  SolveStats cold_stats;
  cold.BuildFull(cls, cold_stats);
  const std::string key = "cursor-parallel";
  const std::string reference = SerializeGraph(cold, key);
  for (int threads : {1, 2, 4, 8}) {
    SubTransitionGraph sharded(guards, k);
    SolveStats stats;
    sharded.BuildFullParallel(cls, threads, stats);
    EXPECT_EQ(SerializeGraph(sharded, key), reference)
        << threads << " threads";
    // Contiguous native shard ranges are disjoint, so the workers'
    // combined generation cost is exactly one pass over the stream —
    // independent of the thread count.
    EXPECT_EQ(stats.members_generated, cold_stats.members_generated)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace amalgam
