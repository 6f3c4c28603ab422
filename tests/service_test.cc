// Tests for the concurrent query service: single-flight coalescing of
// concurrent identical cold queries (exactly one graph build — one cache
// miss, the rest joins), verdict parity with the synchronous front doors
// across the system/words/trees zoos under mixed-key stress, graceful
// drain-during-inflight shutdown, in-band error delivery, the shared
// store tier, and the JSONL protocol layer behind amalgamd. Runs under
// the TSan CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fraisse/relational.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/service.h"
#include "service/session.h"
#include "solver/emptiness.h"
#include "system/zoo.h"
#include "trees/run_class.h"
#include "trees/solve.h"
#include "trees/zoo.h"
#include "words/solve.h"
#include "words/worddb.h"
#include "words/zoo.h"

namespace amalgam {
namespace {

namespace fs = std::filesystem;

std::string ServiceStoreDir(const std::string& name) {
  const char* env = std::getenv("AMALGAM_STORE_TEST_DIR");
  const fs::path base =
      (env && *env) ? fs::path(env) : fs::path(::testing::TempDir());
  const fs::path dir = base / ("service_store_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

QueryRequest ReachRedRequest() {
  QueryRequest request;
  request.kind = QueryKind::kSystem;
  request.system = std::make_shared<DdsSystem>(ReachRedSystem());
  request.cls = std::make_shared<AllStructuresClass>(GraphZooSchema());
  return request;
}

TEST(ServiceTest, SingleFlightColdBatchBuildsExactlyOnce) {
  // Eight concurrent identical cold queries: SubmitBatch registers the
  // whole batch in the single-flight table before any worker starts, so
  // exactly one query (the leader) builds the graph — the cache records
  // one miss — and the other seven join: they wait for the leader, replay
  // the cached graph as a pure BFS (zero enumeration) and count as hits.
  QueryService::Options options;
  options.num_workers = 8;
  QueryService service(options);

  const bool expected =
      SolveEmptiness(*ReachRedRequest().system, *ReachRedRequest().cls,
                     SolveOptions{.build_witness = false})
          .nonempty;

  std::vector<QueryRequest> batch(8, ReachRedRequest());
  std::vector<std::future<QueryResult>> futures =
      service.SubmitBatch(std::move(batch));

  int builders = 0;
  int coalesced = 0;
  for (auto& future : futures) {
    QueryResult result = future.get();
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.nonempty, expected);
    if (result.stats.members_enumerated > 0) ++builders;
    if (result.coalesced) ++coalesced;
  }
  EXPECT_EQ(builders, 1) << "exactly one query may touch the backend";
  EXPECT_EQ(coalesced, 7);

  service.Drain();
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.queries, 8u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.single_flight_leads, 1u);
  EXPECT_EQ(stats.coalesced_joins, 7u);
  EXPECT_EQ(stats.cache_misses, 1u) << "one cold build, not eight";
  EXPECT_EQ(stats.cache_hits, 7u);
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_GE(stats.p95_latency_ms, stats.p50_latency_ms);
}

// Two systems that share a graph cache key — same schema, register count
// and guard set ("red(x_new)") — but differ in whether the target state
// accepts. The accepting variant early-exits its on-the-fly sweep the
// moment a red member appears, leaving a *partial* graph in the cache;
// the non-accepting variant can only answer "empty" after the full sweep,
// so running it against the warm-but-partial key forces a resume.
DdsSystem RedProbeSystem(bool accepting) {
  DdsSystem system(GraphZooSchema());
  system.AddRegister("x");
  const int s = system.AddState("s", /*initial=*/true);
  const int t = system.AddState("t", /*initial=*/false, accepting);
  system.AddRule(s, t, "red(x_new)");
  return system;
}

QueryRequest RedProbeRequest(bool accepting,
                             const std::shared_ptr<AllStructuresClass>& cls) {
  QueryRequest request;
  request.kind = QueryKind::kSystem;
  request.system = std::make_shared<DdsSystem>(RedProbeSystem(accepting));
  request.cls = cls;
  return request;
}

TEST(ServiceTest, PartialEntryResumeCoalescesOntoOneSuffixBuild) {
  // The resume-flight regression (the gap PR-5 documented): N concurrent
  // queries over one warm-but-partial cache entry must perform exactly
  // one suffix build — a resume leader extends the entry, the rest wait
  // on its flight and replay — instead of N duplicated extension sweeps.
  QueryService::Options options;
  options.num_workers = 8;
  QueryService service(options);
  auto cls = std::make_shared<AllStructuresClass>(GraphZooSchema());

  // Seed: the accepting probe early-exits, caching a partial graph.
  QueryResult seeded = service.Submit(RedProbeRequest(true, cls)).get();
  ASSERT_TRUE(seeded.ok) << seeded.error;
  ASSERT_TRUE(seeded.nonempty);

  const DdsSystem probe = RedProbeSystem(false);
  std::vector<FormulaRef> guards;
  for (const TransitionRule& rule : probe.rules()) guards.push_back(rule.guard);
  const std::string key = GraphCache::Key(*cls, 1, guards);
  std::shared_ptr<const SubTransitionGraph> cached = service.cache().Peek(key);
  ASSERT_NE(cached, nullptr);
  ASSERT_FALSE(cached->complete())
      << "the accepting seed must leave a partial entry for the key";

  // Eight concurrent queries whose verdict needs the rest of the class.
  std::vector<std::future<QueryResult>> futures = service.SubmitBatch(
      std::vector<QueryRequest>(8, RedProbeRequest(false, cls)));
  int extenders = 0;
  for (auto& future : futures) {
    QueryResult result = future.get();
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_FALSE(result.nonempty) << "no accepting state is reachable";
    if (result.stats.members_enumerated > 0) ++extenders;
  }
  EXPECT_EQ(extenders, 1) << "exactly one query may run the suffix sweep";

  service.Drain();
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.resume_leads, 1u);
  EXPECT_EQ(stats.resume_coalesced, 7u);
  EXPECT_EQ(stats.single_flight_leads, 1u) << "only the cold seed build";
  EXPECT_EQ(stats.coalesced_joins, 0u);

  // The flight completed the graph: later queries run direct, off the
  // flight table, and enumerate nothing.
  cached = service.cache().Peek(key);
  ASSERT_NE(cached, nullptr);
  EXPECT_TRUE(cached->complete());
  QueryResult direct = service.Submit(RedProbeRequest(false, cls)).get();
  ASSERT_TRUE(direct.ok) << direct.error;
  EXPECT_EQ(direct.stats.members_enumerated, 0u);
  service.Drain();
  EXPECT_EQ(service.Stats().resume_leads, 1u)
      << "a complete entry must skip the flight table";
}

TEST(ServiceTest, TryAttachStoreRefusesASecondDirectory) {
  const std::string first = ServiceStoreDir("attach_first");
  const std::string second = ServiceStoreDir("attach_second");
  {
    QueryService service;
    EXPECT_EQ(service.TryAttachStore(first), "");
    EXPECT_EQ(service.TryAttachStore(first), "") << "re-naming the attached "
                                                    "directory is fine";
    const std::string error = service.TryAttachStore(second);
    EXPECT_NE(error.find("store_dir mismatch"), std::string::npos) << error;
  }
  {
    // A constructor-supplied store_dir counts as the attached tier.
    QueryService::Options options;
    options.store_dir = first;
    QueryService service(options);
    EXPECT_EQ(service.TryAttachStore(first), "");
    EXPECT_FALSE(service.TryAttachStore(second).empty());
  }
}

// ---- The Session layer (the per-client half of amalgamd). ----

TEST(ServiceTest, SessionEmitsResponsesInRequestOrder) {
  QueryService::Options options;
  options.num_workers = 4;
  QueryService service(options);

  std::mutex lines_mutex;
  std::vector<std::string> lines;
  {
    Session::Options sopts;
    sopts.id = 42;
    Session session(service, sopts, [&](const std::string& line) {
      std::lock_guard<std::mutex> lock(lines_mutex);
      lines.push_back(line);
    });
    session.HandleLine(
        R"({"id":1,"kind":"system","class":"all","system":"reach_red"})");
    session.HandleLine(R"({"id":2,"kind":"nope"})");  // in-band error
    session.HandleLine(
        R"({"id":3,"kind":"words","nfa":"aplus_bplus","system":"zigzag"})");
    session.HandleLine(R"({"id":4,"op":"stats"})");
    session.Flush();
    EXPECT_TRUE(session.FlushedAll());
    EXPECT_EQ(session.requests(), 4u);
  }  // destructor re-flushes and joins the writer

  ASSERT_EQ(lines.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(lines[i].find("\"id\":" + std::to_string(i + 1)),
              std::string::npos)
        << "response " << i << " out of order: " << lines[i];
  }
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(lines[1].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[3].find("\"conn_id\":42"), std::string::npos);
  EXPECT_NE(lines[3].find("\"conn_requests\":4"), std::string::npos);
}

TEST(ServiceTest, SessionInflightCapRejectsInBandAndInOrder) {
  QueryService::Options options;
  options.num_workers = 2;
  QueryService service(options);

  // The emit hook holds the first response hostage: the query's slot in
  // the inflight window frees only when its response is *emitted*, so
  // while the gate is closed every further query line must be refused —
  // deterministically, however fast the workers are.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::mutex lines_mutex;
  std::vector<std::string> lines;
  Session::Options sopts;
  sopts.id = 7;
  sopts.max_inflight = 1;
  {
    Session session(service, sopts, [&](const std::string& line) {
      bool first;
      {
        std::lock_guard<std::mutex> lock(lines_mutex);
        lines.push_back(line);
        first = lines.size() == 1;
      }
      if (first) gate.wait();
    });
    const std::string query =
        R"({"id":%,"kind":"system","class":"all","system":"reach_red"})";
    auto line_with_id = [&](int id) {
      std::string line = query;
      return line.replace(line.find('%'), 1, std::to_string(id));
    };
    session.HandleLine(line_with_id(1));  // accepted: fills the window
    session.HandleLine(line_with_id(2));  // rejected
    session.HandleLine(line_with_id(3));  // rejected
    EXPECT_EQ(session.rejected_overload(), 2u);
    EXPECT_EQ(session.inflight(), 1);
    release.set_value();
    session.Flush();
  }

  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
  for (int i = 1; i <= 2; ++i) {
    EXPECT_NE(lines[i].find("\"error_code\":\"overloaded\""),
              std::string::npos)
        << lines[i];
    EXPECT_NE(lines[i].find("\"id\":" + std::to_string(i + 1)),
              std::string::npos)
        << "rejections must keep their place in the order: " << lines[i];
  }

  // The service itself was never touched by the rejections.
  service.Drain();
  EXPECT_EQ(service.Stats().queries, 1u);
}

TEST(ServiceTest, VerdictsMatchEverySynchronousFrontDoor) {
  QueryService::Options options;
  options.num_workers = 4;
  QueryService service(options);

  // kSystem.
  auto sys = ReachRedRequest();
  const bool sys_expected =
      SolveEmptiness(*sys.system, *sys.cls, SolveOptions{.build_witness = false})
          .nonempty;

  // kWord.
  QueryRequest word;
  word.kind = QueryKind::kWord;
  word.system = std::make_shared<DdsSystem>(ZigZagSystem(1));
  word.nfa = std::make_shared<Nfa>(NfaAPlusBPlus());
  const bool word_expected =
      SolveWordEmptiness(*word.system, *word.nfa, /*build_witness=*/false)
          .nonempty;

  // kTree.
  QueryRequest tree;
  tree.kind = QueryKind::kTree;
  tree.automaton = std::make_shared<TreeAutomaton>(TaTwoLevel());
  tree.system = std::make_shared<DdsSystem>(DescendSystem(*tree.automaton, 1));
  tree.extra_pattern_cap = 3;
  const bool tree_expected =
      SolveTreeEmptiness(*tree.system, *tree.automaton, /*witness_size_cap=*/0,
                         /*extra_pattern_cap=*/3)
          .nonempty;

  // kBranching: two branches that must both be satisfiable from the same
  // parent database.
  QueryRequest branching;
  branching.kind = QueryKind::kBranching;
  auto bsys = std::make_shared<BranchingSystem>(GraphZooSchema());
  bsys->AddRegister("x");
  int a = bsys->AddState("a", /*initial=*/true);
  int b = bsys->AddState("b", /*initial=*/false, /*accepting=*/true);
  bsys->AddRule(a, {{"E(x_old, x_new)", b}, {"red(x_new)", b}});
  branching.branching = bsys;
  branching.cls = std::make_shared<AllStructuresClass>(GraphZooSchema());
  const bool branching_expected =
      SolveBranchingEmptiness(*branching.branching, *branching.cls).nonempty;

  std::vector<std::future<QueryResult>> futures = service.SubmitBatch(
      {sys, word, tree, branching});
  ASSERT_EQ(futures.size(), 4u);
  QueryResult sys_result = futures[0].get();
  QueryResult word_result = futures[1].get();
  QueryResult tree_result = futures[2].get();
  QueryResult branching_result = futures[3].get();
  ASSERT_TRUE(sys_result.ok) << sys_result.error;
  ASSERT_TRUE(word_result.ok) << word_result.error;
  ASSERT_TRUE(tree_result.ok) << tree_result.error;
  ASSERT_TRUE(branching_result.ok) << branching_result.error;
  EXPECT_EQ(sys_result.nonempty, sys_expected);
  EXPECT_EQ(word_result.nonempty, word_expected);
  EXPECT_EQ(tree_result.nonempty, tree_expected);
  EXPECT_EQ(branching_result.nonempty, branching_expected);
}

TEST(ServiceTest, SingleFlightKeysAgreeWithEngineKeys) {
  // The service mirrors each front door's cache-key derivation for its
  // flight table (service.cc's ComputeGraphKey). If the two ever diverge
  // for some kind, the leader's build lands under a key the engine never
  // looks up (or vice versa), and a cold identical pair stops coalescing
  // onto one build — so: one cache miss per unique request, one coalesced
  // join per duplicate, across every front-door kind.
  QueryRequest word;
  word.kind = QueryKind::kWord;
  word.system = std::make_shared<DdsSystem>(ZigZagSystem(1));
  word.nfa = std::make_shared<Nfa>(NfaAPlusBPlus());

  QueryRequest tree;
  tree.kind = QueryKind::kTree;
  tree.automaton = std::make_shared<TreeAutomaton>(TaTwoLevel());
  tree.system = std::make_shared<DdsSystem>(DescendSystem(*tree.automaton, 1));
  tree.extra_pattern_cap = 3;

  QueryRequest branching;
  branching.kind = QueryKind::kBranching;
  auto bsys = std::make_shared<BranchingSystem>(GraphZooSchema());
  bsys->AddRegister("x");
  int a = bsys->AddState("a", /*initial=*/true);
  int b = bsys->AddState("b", /*initial=*/false, /*accepting=*/true);
  bsys->AddRule(a, {{"E(x_old, x_new)", b}});
  branching.branching = bsys;
  branching.cls = std::make_shared<AllStructuresClass>(GraphZooSchema());

  QueryService::Options options;
  options.num_workers = 4;
  QueryService service(options);
  std::vector<std::future<QueryResult>> futures = service.SubmitBatch(
      {ReachRedRequest(), ReachRedRequest(), word, word, tree, tree,
       branching, branching});
  for (auto& future : futures) {
    QueryResult result = future.get();
    ASSERT_TRUE(result.ok) << result.error;
  }
  service.Drain();
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_misses, 4u) << "one cold build per unique key";
  EXPECT_EQ(stats.single_flight_leads, 4u);
  EXPECT_EQ(stats.coalesced_joins, 4u) << "every duplicate joined its leader";
}

// One random 1-register system spec, as the protocol's rule triples.
struct RuleSpec {
  int from;
  int to;
  std::string guard;
};

std::string SpecQueryLine(const std::string& cls, const std::string& schema,
                          int num_states, bool eager,
                          const std::vector<RuleSpec>& rules) {
  std::string line = "{\"kind\":\"system\",\"class\":\"" + cls +
                     "\",\"schema\":" + schema + ",\"strategy\":\"" +
                     (eager ? "eager" : "onthefly") +
                     "\",\"system\":{\"registers\":[\"x0\"],\"states\":[";
  for (int q = 0; q < num_states; ++q) {
    if (q > 0) line += ",";
    line += "{\"name\":\"q" + std::to_string(q) + "\"";
    if (q == 0) line += ",\"initial\":true";
    if (q == num_states - 1) line += ",\"accepting\":true";
    line += "}";
  }
  line += "],\"rules\":[";
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (i > 0) line += ",";
    line += "{\"from\":\"q" + std::to_string(rules[i].from) + "\",\"to\":\"q" +
            std::to_string(rules[i].to) + "\",\"guard\":\"" + rules[i].guard +
            "\"}";
  }
  return line + "]}}";
}

// The same guard with different spacing: no spaces around tokens but one
// inside each parenthesis, then `pad` trailing spaces so every rule's
// text is unique and nothing can be shared.
std::string Respace(const std::string& guard, int pad) {
  std::string out;
  for (char c : guard) {
    if (c == ' ') continue;
    if (c == ')') out += ' ';
    out += c;
    if (c == '(') out += ' ';
  }
  return out + std::string(pad, ' ');
}

// Runs one spec line on a fresh service, so every query builds its own
// graph; `key`, when given, receives the line's graph key.
QueryResult RunSpec(const std::string& line, std::string* key = nullptr) {
  ProtocolRequest request = ParseRequestLine(line);
  EXPECT_TRUE(request.error.empty()) << request.error << "\n" << line;
  QueryService service;
  if (key != nullptr) *key = QueryService::Prepare(request.query)->spec.key;
  QueryResult result = service.Submit(std::move(request.query)).get();
  EXPECT_TRUE(result.ok) << result.error;
  return result;
}

bool SharesAGuard(const DdsSystem& system) {
  const std::vector<TransitionRule>& rules = system.rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    for (std::size_t j = i + 1; j < rules.size(); ++j) {
      if (rules[i].guard == rules[j].guard) return true;
    }
  }
  return false;
}

TEST(ServiceTest, MetamorphicParityUnderRespacedAndPermutedGuards) {
  // Two relations that must never change an answer: respacing every guard
  // text (which defeats guard sharing at parse time) must leave the graph
  // key, the verdict and the work counts alone, and permuting the rules
  // must leave the verdict alone. Seeded random 1-register systems with
  // duplicated guards over three classes.
  struct ClassCase {
    std::string cls;
    std::string schema;
    std::vector<std::string> atoms;
  };
  const std::vector<ClassCase> cases = {
      {"all", R"({"relations":[["E",2],["red",1]]})",
       {"E(x0_old, x0_new)", "E(x0_new, x0_old)", "E(x0_old, x0_old)",
        "red(x0_old)", "red(x0_new)", "x0_old = x0_new"}},
      {"orders", R"({"relations":[["lt",2]]})",
       {"lt(x0_old, x0_new)", "lt(x0_new, x0_old)", "x0_old = x0_new"}},
      {"equiv", R"({"relations":[["eqv",2]]})",
       {"eqv(x0_old, x0_new)", "eqv(x0_new, x0_old)", "x0_old = x0_new"}},
  };
  std::mt19937 rng(20131);
  const auto pick = [&rng](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  int nonempty = 0;
  int empty = 0;
  for (const ClassCase& c : cases) {
    for (int trial = 0; trial < 8; ++trial) {
      SCOPED_TRACE(c.cls + " trial " + std::to_string(trial));
      // Two or three distinct guards of one or two literals each.
      std::vector<std::string> distinct;
      const int num_distinct = 2 + pick(2);
      while (static_cast<int>(distinct.size()) < num_distinct) {
        std::string guard;
        const int lits = 1 + pick(2);
        for (int l = 0; l < lits; ++l) {
          std::string atom = c.atoms[pick(static_cast<int>(c.atoms.size()))];
          if (pick(3) == 0) {
            const std::size_t eq = atom.find(" = ");
            atom = eq == std::string::npos
                       ? "!" + atom
                       : atom.substr(0, eq) + " != " + atom.substr(eq + 3);
          }
          guard += (l > 0 ? " & " : "") + atom;
        }
        if (std::find(distinct.begin(), distinct.end(), guard) ==
            distinct.end()) {
          distinct.push_back(guard);
        }
      }
      const int num_states = 3 + pick(2);
      std::vector<RuleSpec> rules;
      const int num_rules = 5 + pick(4);
      for (int i = 0; i < num_rules; ++i) {
        rules.push_back({pick(num_states), pick(num_states),
                         distinct[i % distinct.size()]});
      }
      std::vector<RuleSpec> respaced = rules;
      for (std::size_t i = 0; i < respaced.size(); ++i) {
        respaced[i].guard = Respace(rules[i].guard, static_cast<int>(i));
      }
      std::vector<RuleSpec> permuted = rules;
      std::shuffle(permuted.begin(), permuted.end(), rng);
      const bool eager = trial % 2 == 1;

      const std::string line =
          SpecQueryLine(c.cls, c.schema, num_states, eager, rules);
      const std::string respaced_line =
          SpecQueryLine(c.cls, c.schema, num_states, eager, respaced);
      // The relation is only worth checking if sharing actually differs.
      ASSERT_TRUE(SharesAGuard(*ParseRequestLine(line).query.system));
      ASSERT_FALSE(
          SharesAGuard(*ParseRequestLine(respaced_line).query.system));

      std::string key;
      std::string respaced_key;
      const QueryResult base = RunSpec(line, &key);
      const QueryResult same = RunSpec(respaced_line, &respaced_key);
      const QueryResult shuffled = RunSpec(
          SpecQueryLine(c.cls, c.schema, num_states, eager, permuted));
      ASSERT_FALSE(key.empty());
      EXPECT_EQ(respaced_key, key);
      EXPECT_EQ(same.nonempty, base.nonempty);
      EXPECT_EQ(same.stats.edges, base.stats.edges);
      EXPECT_EQ(same.stats.configs, base.stats.configs);
      EXPECT_EQ(same.stats.members_enumerated,
                base.stats.members_enumerated);
      EXPECT_EQ(shuffled.nonempty, base.nonempty);
      ++(base.nonempty ? nonempty : empty);
    }
  }
  // Both verdicts occur, so neither relation holds vacuously.
  EXPECT_GT(nonempty, 0);
  EXPECT_GT(empty, 0);
}

TEST(ServiceTest, MixedKeyStressAcrossTheZoos) {
  // A shuffled pile of repeated queries across all zoos: every verdict
  // must match the synchronous answer, whatever interleaving the worker
  // pool picks and however the single-flight table carves up the builds.
  std::vector<QueryRequest> unique_requests;
  std::vector<bool> expected;

  auto cls = std::make_shared<AllStructuresClass>(GraphZooSchema());
  for (DdsSystem zoo_system :
       {OddRedCycleSystem(), ReachRedSystem(), ContradictionSystem()}) {
    QueryRequest request;
    request.kind = QueryKind::kSystem;
    request.system = std::make_shared<DdsSystem>(std::move(zoo_system));
    request.cls = cls;
    expected.push_back(
        SolveEmptiness(*request.system, *cls,
                       SolveOptions{.build_witness = false})
            .nonempty);
    unique_requests.push_back(std::move(request));
  }
  {
    QueryRequest request;
    request.kind = QueryKind::kWord;
    request.system = std::make_shared<DdsSystem>(TwoMarkersSystem());
    request.nfa = std::make_shared<Nfa>(NfaAllAB());
    expected.push_back(
        SolveWordEmptiness(*request.system, *request.nfa, false).nonempty);
    unique_requests.push_back(std::move(request));
  }
  {
    QueryRequest request;
    request.kind = QueryKind::kTree;
    request.automaton = std::make_shared<TreeAutomaton>(TaComb());
    request.system =
        std::make_shared<DdsSystem>(FindBBelowSystem(*request.automaton));
    request.extra_pattern_cap = 3;
    expected.push_back(SolveTreeEmptiness(*request.system, *request.automaton,
                                          0, 3)
                           .nonempty);
    unique_requests.push_back(std::move(request));
  }

  QueryService::Options options;
  options.num_workers = 4;
  QueryService service(options);

  // Interleave 4 rounds of every request.
  std::vector<QueryRequest> batch;
  std::vector<bool> batch_expected;
  for (int round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < unique_requests.size(); ++i) {
      batch.push_back(unique_requests[i]);
      batch_expected.push_back(expected[i]);
    }
  }
  std::vector<std::future<QueryResult>> futures =
      service.SubmitBatch(std::move(batch));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    QueryResult result = futures[i].get();
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.nonempty, batch_expected[i]) << "request " << i;
  }
  service.Drain();
  EXPECT_EQ(service.Stats().queries, futures.size());
  EXPECT_EQ(service.Stats().failed, 0u);
}

// One seeded random 1-register request of `kind`: 2–4 states (the first
// initial, the last accepting) and 1–4 rules — 1–2 branches each for
// kBranching — whose guards conjoin one or two atoms over the kind's
// schema.
QueryRequest RandomRequest(QueryKind kind, std::mt19937& rng) {
  static const std::vector<std::string> kGraphAtoms = {
      "E(x_old, x_new)", "red(x_new)",      "!red(x_new)",
      "x_old != x_new",  "E(x_new, x_old)", "red(x_old)"};
  static const std::vector<std::string> kWordAtoms = {
      "lt(x_old, x_new)", "a(x_new)", "b(x_new)",
      "x_old = x_new",    "a(x_old)", "b(x_old)"};
  static const std::vector<std::string> kTreeAtoms = {
      "desc(x_old, x_new)", "x_old != x_new", "b(x_new)", "a(x_new)",
      "a(x_old)"};
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  QueryRequest request;
  request.kind = kind;
  const std::vector<std::string>* atoms = &kGraphAtoms;
  SchemaRef schema = GraphZooSchema();
  if (kind == QueryKind::kWord) {
    atoms = &kWordAtoms;
    schema = MakeWordSchema({"a", "b"});
    request.nfa = std::make_shared<Nfa>(pick(0, 1) ? NfaAllAB()
                                                   : NfaAPlusBPlus());
  } else if (kind == QueryKind::kTree) {
    atoms = &kTreeAtoms;
    request.automaton = std::make_shared<TreeAutomaton>(TaComb());
    schema = TreeRunClass(request.automaton.get()).tree_schema();
    request.extra_pattern_cap = 3;
  } else {
    request.cls = std::make_shared<AllStructuresClass>(GraphZooSchema());
  }
  auto guard = [&] {
    std::string g = (*atoms)[pick(0, static_cast<int>(atoms->size()) - 1)];
    if (pick(0, 1)) {
      g += " & " + (*atoms)[pick(0, static_cast<int>(atoms->size()) - 1)];
    }
    return g;
  };
  const int num_states = pick(2, 4);
  const int num_rules = pick(1, 4);
  if (kind == QueryKind::kBranching) {
    auto system = std::make_shared<BranchingSystem>(schema);
    system->AddRegister("x");
    for (int q = 0; q < num_states; ++q) {
      system->AddState("q" + std::to_string(q), q == 0, q == num_states - 1);
    }
    for (int r = 0; r < num_rules; ++r) {
      std::vector<std::pair<std::string, int>> branches;
      for (int b = pick(1, 2); b > 0; --b) {
        branches.emplace_back(guard(), pick(0, num_states - 1));
      }
      system->AddRule(pick(0, num_states - 1), branches);
    }
    request.branching = system;
    return request;
  }
  auto system = std::make_shared<DdsSystem>(schema);
  system->AddRegister("x");
  for (int q = 0; q < num_states; ++q) {
    system->AddState("q" + std::to_string(q), q == 0, q == num_states - 1);
  }
  for (int r = 0; r < num_rules; ++r) {
    system->AddRule(pick(0, num_states - 1), pick(0, num_states - 1),
                    guard());
  }
  request.system = system;
  return request;
}

// The same request through its positional front door, with a fresh
// GraphCache (and `store_dir`, when given).
QueryResult RunThroughFrontDoor(const QueryRequest& request,
                                const std::string& store_dir) {
  GraphCache cache;
  QueryResult result;
  switch (request.kind) {
    case QueryKind::kSystem: {
      SolveOptions options;
      options.build_witness = request.build_witness;
      options.strategy = request.strategy;
      options.cache = &cache;
      options.store_dir = store_dir;
      const SolveResult solved =
          SolveEmptiness(*request.system, *request.cls, options);
      result.nonempty = solved.nonempty;
      result.stats = solved.stats;
      break;
    }
    case QueryKind::kWord: {
      const WordSolveResult solved = SolveWordEmptiness(
          *request.system, *request.nfa, request.build_witness,
          request.strategy, &cache, 1, store_dir);
      result.nonempty = solved.nonempty;
      result.stats = solved.stats;
      break;
    }
    case QueryKind::kTree: {
      const TreeSolveResult solved = SolveTreeEmptiness(
          *request.system, *request.automaton, /*witness_size_cap=*/0,
          request.extra_pattern_cap, request.strategy, &cache, 1, store_dir);
      result.nonempty = solved.nonempty;
      result.stats = solved.stats;
      break;
    }
    case QueryKind::kBranching: {
      const BranchingSolveResult solved = SolveBranchingEmptiness(
          *request.branching, *request.cls, &cache, 1, store_dir);
      result.nonempty = solved.nonempty;
      result.stats = solved.stats;
      break;
    }
  }
  result.ok = true;
  return result;
}

TEST(ServiceTest, SeededParityWithThePositionalFrontDoors) {
  // The service runs each kind through the front doors' own path with the
  // spec it built at submit time. Over seeded random requests of every
  // kind × strategy × {memory only, store_dir}, a fresh service and the
  // positional front door over a fresh cache must report the same verdict
  // and the same work, and the service's cache must hold the graph under
  // the key Prepare computes — the key that keyed the flight table is
  // the key the engine stored under.
  std::mt19937 rng(20261017);
  int case_id = 0;
  int nonempty_cases = 0;
  for (QueryKind kind : {QueryKind::kSystem, QueryKind::kWord,
                         QueryKind::kTree, QueryKind::kBranching}) {
    for (SolveStrategy strategy :
         {SolveStrategy::kOnTheFly, SolveStrategy::kEager}) {
      for (bool with_store : {false, true}) {
        for (int rep = 0; rep < 3; ++rep, ++case_id) {
          QueryRequest request = RandomRequest(kind, rng);
          request.strategy = strategy;
          request.build_witness = rep == 1;
          const std::string tag = std::to_string(case_id);
          QueryService::Options options;
          options.num_workers = 1;
          if (with_store) options.store_dir = ServiceStoreDir("parity_" + tag);
          QueryService service(options);
          const QueryResult served = service.Submit(request).get();
          ASSERT_TRUE(served.ok) << "case " << tag << ": " << served.error;
          const std::string key = QueryService::Prepare(request)->spec.key;
          ASSERT_FALSE(key.empty()) << "case " << tag;
          EXPECT_NE(service.cache().Peek(key), nullptr)
              << "case " << tag << ": no graph under the submit-time key";

          const QueryResult direct = RunThroughFrontDoor(
              request,
              with_store ? ServiceStoreDir("parity_direct_" + tag) : "");
          EXPECT_EQ(served.nonempty, direct.nonempty) << "case " << tag;
          nonempty_cases += served.nonempty;
          EXPECT_EQ(served.stats.edges, direct.stats.edges) << "case " << tag;
          EXPECT_EQ(served.stats.configs, direct.stats.configs)
              << "case " << tag;
          EXPECT_EQ(served.stats.members_enumerated,
                    direct.stats.members_enumerated)
              << "case " << tag;
          EXPECT_EQ(served.stats.members_generated,
                    direct.stats.members_generated)
              << "case " << tag;
        }
      }
    }
  }
  // Both verdicts occur, so the parity covers early exits and full sweeps.
  EXPECT_GT(nonempty_cases, 0);
  EXPECT_LT(nonempty_cases, case_id);
}

TEST(ServiceTest, BranchingLineHonoursTheAtomCap) {
  // The OPERATIONS.md branching example with "atom_cap":1 must fail the
  // way a capped `system` line does: in-band, with the structured code.
  ProtocolRequest request = ParseRequestLine(
      R"json({"id":4,"kind":"branching","class":"all","atom_cap":1,)json"
      R"json("system":{"registers":["x"],"states":[{"name":"a",)json"
      R"json("initial":true},{"name":"b","accepting":true}],"rules":)json"
      R"json([{"from":"a","branches":[{"guard":"E(x_old, x_new)",)json"
      R"json("to":"b"},{"guard":"red(x_new)","to":"b"}]}]}})json");
  ASSERT_TRUE(request.error.empty()) << request.error;
  QueryService service;
  const QueryResult result = service.Submit(request.query).get();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error_code, EnumerationCapError::kCode);
  const std::string line = FormatQueryResponse(request, result);
  EXPECT_NE(line.find("\"error_code\":\"enumeration_cap\""),
            std::string::npos)
      << line;
}

TEST(ServiceTest, ShutdownDrainsInflightQueriesGracefully) {
  auto request = ReachRedRequest();
  std::vector<std::future<QueryResult>> futures;
  {
    QueryService::Options options;
    options.num_workers = 2;
    QueryService service(options);
    futures = service.SubmitBatch(std::vector<QueryRequest>(6, request));
    service.Shutdown();  // must wait for all six, not abandon them
    EXPECT_THROW(service.Submit(request), std::runtime_error);
    EXPECT_EQ(service.Stats().queries, 6u);
    EXPECT_EQ(service.Stats().pending, 0u);
  }
  // The service is gone; every future must already hold a result.
  for (auto& future : futures) {
    QueryResult result = future.get();
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_TRUE(result.nonempty);
  }
}

TEST(ServiceTest, ErrorsArriveInBandNotAsBrokenFutures) {
  QueryService service;

  // Missing inputs are caught at submit time.
  QueryRequest incomplete;
  incomplete.kind = QueryKind::kSystem;
  QueryResult r1 = service.Submit(incomplete).get();
  EXPECT_FALSE(r1.ok);
  EXPECT_FALSE(r1.error.empty());

  // A zero-register word query passes key setup of the run class but the
  // front door rejects it — still an in-band error.
  QueryRequest zero_reg;
  zero_reg.kind = QueryKind::kWord;
  auto system = std::make_shared<DdsSystem>(MakeWordSchema({"a", "b"}));
  system->AddState("only", /*initial=*/true, /*accepting=*/true);
  zero_reg.system = system;
  zero_reg.nfa = std::make_shared<Nfa>(NfaAllAB());
  QueryResult r2 = service.Submit(zero_reg).get();
  EXPECT_FALSE(r2.ok);
  EXPECT_FALSE(r2.error.empty());

  service.Drain();
  EXPECT_EQ(service.Stats().failed, 2u);

  // Healthy queries still run on the same service afterwards.
  QueryResult r3 = service.Submit(ReachRedRequest()).get();
  ASSERT_TRUE(r3.ok) << r3.error;
  EXPECT_TRUE(r3.nonempty);
}

TEST(ServiceTest, StoreTierSharedAcrossServiceRestarts) {
  const std::string dir = ServiceStoreDir("restart");

  QueryService::Options options;
  options.num_workers = 2;
  options.store_dir = dir;
  bool first_verdict;
  {
    QueryService service(options);
    QueryRequest request = ReachRedRequest();
    request.strategy = SolveStrategy::kEager;  // complete graph on disk
    QueryResult result = service.Submit(request).get();
    ASSERT_TRUE(result.ok) << result.error;
    first_verdict = result.nonempty;
    EXPECT_GE(service.Stats().store_writes, 1u);
  }
  {
    QueryService service(options);  // fresh process, same directory
    QueryResult result = service.Submit(ReachRedRequest()).get();
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.nonempty, first_verdict);
    EXPECT_EQ(result.stats.members_enumerated, 0u)
        << "the persisted complete graph must serve the fresh service";
    EXPECT_EQ(service.Stats().store_loads, 1u);
  }
}

TEST(ServiceTest, StoreSweepCapsTheDiskTier) {
  const std::string dir = ServiceStoreDir("sweep");
  QueryService::Options options;
  options.num_workers = 2;
  options.store_dir = dir;
  QueryService service(options);

  // Three different guard sets -> three store files.
  auto cls = std::make_shared<AllStructuresClass>(GraphZooSchema());
  for (DdsSystem zoo_system :
       {OddRedCycleSystem(), ReachRedSystem(), ContradictionSystem()}) {
    QueryRequest request;
    request.kind = QueryKind::kSystem;
    request.system = std::make_shared<DdsSystem>(std::move(zoo_system));
    request.cls = cls;
    request.strategy = SolveStrategy::kEager;
    ASSERT_TRUE(service.Submit(request).get().ok);
  }
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files += entry.path().extension() == ".amg";
  }
  ASSERT_EQ(files, 3u);

  StoreSweepResult swept = service.SweepStore(/*max_bytes=*/0, /*max_files=*/1);
  EXPECT_EQ(swept.files_removed, 2u);
  EXPECT_EQ(swept.files_kept, 1u);
  EXPECT_GT(swept.bytes_removed, 0u);

  // Swept keys simply rebuild; the survivor still loads.
  QueryResult rebuilt = service.Submit(ReachRedRequest()).get();
  ASSERT_TRUE(rebuilt.ok) << rebuilt.error;
}

// ---- The JSONL protocol layer. ----

TEST(ServiceTest, ProtocolParsesZooQueryLines) {
  ProtocolRequest request = ParseRequestLine(
      R"({"id":7,"kind":"words","nfa":"aplus_bplus","system":"zigzag"})");
  ASSERT_TRUE(request.error.empty()) << request.error;
  EXPECT_EQ(request.op, ProtocolRequest::Op::kQuery);
  EXPECT_EQ(request.id_json, "7");
  EXPECT_EQ(request.query.kind, QueryKind::kWord);
  ASSERT_NE(request.query.system, nullptr);
  ASSERT_NE(request.query.nfa, nullptr);
}

TEST(ServiceTest, ProtocolParsesSpecDescribedSystems) {
  ProtocolRequest request = ParseRequestLine(R"json({
    "id":"q1","kind":"system","class":"all",
    "schema":{"relations":[["E",2],["red",1]]},
    "system":{"registers":["x"],
              "states":[{"name":"a","initial":true},
                        {"name":"b","accepting":true}],
              "rules":[{"from":"a","to":"b","guard":"red(x_new)"}]}})json");
  ASSERT_TRUE(request.error.empty()) << request.error;
  ASSERT_NE(request.query.system, nullptr);
  EXPECT_EQ(request.query.system->num_registers(), 1);
  EXPECT_EQ(request.query.system->num_states(), 2);
  EXPECT_EQ(request.id_json, "\"q1\"");

  // The spec round-trips through a real solve.
  QueryService service;
  QueryResult result = service.Submit(std::move(request.query)).get();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.nonempty);
}

TEST(ServiceTest, ProtocolRejectsBadLinesWithoutDying) {
  EXPECT_FALSE(ParseRequestLine("not json at all").error.empty());
  EXPECT_FALSE(ParseRequestLine("[1,2,3]").error.empty());
  EXPECT_FALSE(
      ParseRequestLine(R"({"kind":"nope","system":"reach_red"})").error.empty());
  EXPECT_FALSE(
      ParseRequestLine(R"({"kind":"system"})").error.empty());
  EXPECT_FALSE(ParseRequestLine(
                   R"({"kind":"branching","class":"all","system":"x"})")
                   .error.empty());
  // A guard that does not parse is reported, not thrown.
  ProtocolRequest bad_guard = ParseRequestLine(R"json({
    "kind":"system",
    "system":{"registers":["x"],
              "states":[{"name":"a","initial":true}],
              "rules":[{"from":"a","to":"a","guard":"E(x_old"}]}})json");
  EXPECT_FALSE(bad_guard.error.empty());
}

TEST(ServiceTest, JsonRoundTripsProtocolPayloads) {
  auto parsed = ParseJson(
      R"({"a":[1,2.5,-3],"b":"q\"uote","c":{"d":true,"e":null}})");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Get("a")->array.size(), 3u);
  EXPECT_EQ(parsed->Get("b")->string, "q\"uote");
  EXPECT_TRUE(parsed->Get("c")->Get("d")->boolean);
  EXPECT_TRUE(parsed->Get("c")->Get("e")->is_null());
  // Serialize -> parse -> serialize is a fixpoint.
  const std::string once = JsonToString(*parsed);
  auto reparsed = ParseJson(once);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(JsonToString(*reparsed), once);

  EXPECT_FALSE(ParseJson("{\"a\":}").has_value());
  EXPECT_FALSE(ParseJson("{} trailing").has_value());
  EXPECT_FALSE(ParseJson("\"unterminated").has_value());
}

TEST(ServiceTest, JsonRejectsHostileNestingDepthWithoutCrashing) {
  // One line of brackets must come back as a parse error, not blow the
  // stack and kill the daemon (the parser recurses per nesting level).
  const std::string bomb(100000, '[');
  EXPECT_FALSE(ParseJson(bomb).has_value());
  EXPECT_FALSE(ParseJson(std::string(200, '[') + std::string(200, ']'))
                   .has_value())
      << "past the documented 128-level cap";
  // Reasonable nesting still parses.
  std::string deep = std::string(50, '[') + "1" + std::string(50, ']');
  EXPECT_TRUE(ParseJson(deep).has_value());
}

// ---- The spec memo (repeated query lines are prepared once). ----

// Feeds `lines` to one Session over `service`, one at a time (each
// response is emitted before the next line goes in, so the cache state a
// line meets does not depend on worker timing), and returns the responses.
std::vector<std::string> SessionResponses(
    QueryService& service, const std::vector<std::string>& lines) {
  std::mutex mutex;
  std::vector<std::string> out;
  Session session(service, Session::Options{}, [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex);
    out.push_back(line);
  });
  for (const std::string& line : lines) {
    session.HandleLine(line);
    session.Flush();
  }
  return out;
}

// The same lines through the parse-and-submit path alone — what a session
// did for every query line before the memo: parse, attach the store,
// submit the request, format.
std::vector<std::string> UnmemoizedResponses(
    QueryService& service, const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  for (const std::string& line : lines) {
    const ProtocolRequest request = ParseRequestLine(line);
    if (!request.error.empty()) {
      out.push_back(FormatErrorResponse(request, request.error));
      continue;
    }
    if (!request.store_dir.empty()) {
      const std::string error = service.TryAttachStore(request.store_dir);
      if (!error.empty()) {
        out.push_back(FormatErrorResponse(request, error));
        continue;
      }
    }
    out.push_back(
        FormatQueryResponse(request, service.Submit(request.query).get()));
  }
  return out;
}

// A response with its wall-clock fields (latency_ms, and each span's
// start_us/dur_us) removed, re-serialized.
std::string WithoutTimings(const std::string& response) {
  std::optional<JsonValue> json = ParseJson(response);
  EXPECT_TRUE(json.has_value()) << response;
  if (!json.has_value()) return response;
  std::function<void(JsonValue&)> strip = [&](JsonValue& value) {
    auto& members = value.object;
    std::erase_if(members, [](const auto& member) {
      return member.first == "latency_ms" || member.first == "start_us" ||
             member.first == "dur_us";
    });
    for (auto& member : members) strip(member.second);
    for (JsonValue& element : value.array) strip(element);
  };
  strip(*json);
  return JsonToString(*json);
}

// Each line three times in a row: a first sighting, the second (which
// admits the prepared query) and a memo hit.
std::vector<std::string> Thrice(const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  for (const std::string& line : lines) out.insert(out.end(), 3, line);
  return out;
}

// Sends `lines` through a Session on a fresh service, and through the
// unmemoized path on another fresh service, and expects the same
// responses apart from timings. `store_dir` (when set) is the service's
// constructor store and `wipe` a directory emptied before each service
// starts, so neither run sees the other's persisted graphs.
void ExpectMemoParity(const std::vector<std::string>& lines,
                      const std::string& store_dir, const std::string& wipe,
                      std::uint64_t expected_hits) {
  QueryService::Options options;
  options.num_workers = 2;
  options.store_dir = store_dir;
  auto fresh = [&] {
    if (!wipe.empty()) {
      fs::remove_all(wipe);
      fs::create_directories(wipe);
    }
    return std::make_unique<QueryService>(options);
  };
  std::vector<std::string> expected;
  {
    auto service = fresh();
    expected = UnmemoizedResponses(*service, lines);
  }
  std::vector<std::string> actual;
  {
    auto service = fresh();
    actual = SessionResponses(*service, lines);
    service->Drain();
    EXPECT_EQ(service->Stats().spec_memo_hits, expected_hits);
  }
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(WithoutTimings(actual[i]), WithoutTimings(expected[i]))
        << "line " << i << ": " << lines[i];
  }
}

TEST(ServiceTest, SpecMemoKeepsEveryLinesOwnIdAndTrace) {
  const std::string base =
      R"("kind":"system","class":"all","system":"reach_red"})";
  const std::vector<std::string> lines = Thrice({
      // Numeric leading ids share one entry, and each line echoes its own
      // id the way the parser prints it.
      "{\"id\":1," + base,
      "{\"id\":-7," + base,
      "{\"id\":1e2," + base,
      "{\"id\":1.0," + base,
      // Whole-line keys: a string id, no id, an id that is not first.
      "{\"id\":\"abc\"," + base,
      "{" + base,
      R"({"kind":"system","class":"all","system":"reach_red","id":5})",
      // A duplicated id: the first member wins.
      "{\"id\":1,\"id\":2," + base,
      // Traced: every response carries only its own spans.
      R"({"id":3,"kind":"words","nfa":"aplus_bplus","system":"zigzag",)"
      R"("trace":true})",
      // A setup error (the class's schema lacks the system's symbols) is
      // memoized like any prepared query.
      "{\"id\":4,\"kind\":\"system\",\"class\":\"orders\","
      "\"system\":\"reach_red\"}",
      // Parse errors are never memoized, however the line opens.
      R"({"id":1,"kind":)",
      R"({"id":1,"kind":"nope","system":"reach_red"})",
      R"({"id":1,})",
  });
  // Per numeric-id group the first line admits on its second sighting and
  // every later one hits: 1 + 3 + 3 + 3, then one hit each for the string
  // id, no id, id last, the duplicate, the traced and the setup error.
  ExpectMemoParity(lines, "", "", 10 + 6);

  QueryService service;
  const std::vector<std::string> responses = SessionResponses(service, lines);
  ASSERT_EQ(responses.size(), lines.size());
  auto id_of = [](const std::string& response) {
    const std::optional<JsonValue> json = ParseJson(response);
    const JsonValue* id = json->Get("id");
    return id == nullptr ? std::string("<none>") : JsonToString(*id);
  };
  const std::vector<std::string> ids = {"1",       "-7",    "100", "1",
                                        "\"abc\"", "<none>", "5",  "1",
                                        "3",       "4",     "<none>", "1",
                                        "<none>"};
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(id_of(responses[i]), ids[i / 3]) << responses[i];
  }
  for (std::size_t i = 24; i < 27; ++i) {
    const JsonValue response = *ParseJson(responses[i]);
    const JsonValue* trace = response.Get("trace");
    ASSERT_NE(trace, nullptr) << responses[i];
    ASSERT_EQ(trace->array.size(), 1u) << responses[i];
    EXPECT_EQ(trace->array[0].GetString("name"), "query");
  }
}

TEST(ServiceTest, SpecMemoKeepsThePerLineStoreAttach) {
  const std::string dir = ServiceStoreDir("memo_attach");
  const std::string other = ServiceStoreDir("memo_attach_other");
  const std::string base =
      R"("kind":"system","class":"all","system":"reach_red","store_dir":")";
  // The service has no store: the first line attaches `dir`.
  ExpectMemoParity(Thrice({"{\"id\":1," + base + dir + "\"}",
                           "{\"id\":2," + base + dir + "\"}"}),
                   "", dir, 4);
  // The service persists to `dir`: every line naming another directory
  // fails with the mismatch, hit or not.
  ExpectMemoParity(Thrice({"{\"id\":1," + base + other + "\"}",
                           "{\"id\":2," + base + other + "\"}"}),
                   dir, dir, 4);
}

TEST(ServiceTest, SpecMemoHitStillMeetsTheInflightCap) {
  QueryService service;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::mutex lines_mutex;
  std::vector<std::string> lines;
  Session::Options sopts;
  sopts.max_inflight = 1;
  const std::string base =
      R"("kind":"system","class":"all","system":"reach_red"})";
  const std::vector<std::string> sent = {
      "{\"id\":1," + base, "{\"id\":2," + base, "{\"id\":3e0," + base};
  {
    Session session(service, sopts, [&](const std::string& line) {
      bool first;
      {
        std::lock_guard<std::mutex> lock(lines_mutex);
        lines.push_back(line);
        first = lines.size() == 1;
      }
      if (first) gate.wait();
    });
    for (const std::string& line : sent) session.HandleLine(line);
    EXPECT_EQ(session.rejected_overload(), 2u);
    release.set_value();
    session.Flush();
  }
  EXPECT_EQ(service.Stats().spec_memo_hits, 1u)
      << "the third line is a memo hit, and still refused";
  ASSERT_EQ(lines.size(), 3u);
  for (std::size_t i = 1; i < 3; ++i) {
    const std::string expected = FormatErrorResponse(
        ParseRequestLine(sent[i]),
        "per-connection inflight cap (1) reached; read pending responses "
        "before sending more",
        "overloaded");
    EXPECT_EQ(lines[i], expected);
  }
}

TEST(ServiceTest, SpecMemoAdmitsOnlyRepeatedLines) {
  QueryService service;
  std::vector<std::string> lines;
  for (int i = 0; i < 200; ++i) {
    lines.push_back("{\"id\":" + std::to_string(i) +
                    R"(,"kind":"system","class":"all","system":"reach_red",)"
                    R"("probe":)" +
                    std::to_string(i) + "}");
  }
  lines.push_back(R"({"id":200,"op":"stats"})");
  std::vector<std::string> responses = SessionResponses(service, lines);
  EXPECT_NE(responses.back().find("\"spec_memo_entries\":0"),
            std::string::npos)
      << "200 one-off lines must not fill the memo: " << responses.back();
  EXPECT_NE(responses.back().find("\"spec_memo_hits\":0"), std::string::npos);

  // One line seen again: its second sighting admits it, its third hits.
  responses = SessionResponses(service, {lines[7], R"({"op":"stats"})",
                                         lines[7], R"({"op":"stats"})"});
  EXPECT_NE(responses[1].find("\"spec_memo_entries\":1"), std::string::npos)
      << responses[1];
  EXPECT_NE(responses[1].find("\"spec_memo_hits\":0"), std::string::npos)
      << responses[1];
  EXPECT_NE(responses[3].find("\"spec_memo_hits\":1"), std::string::npos)
      << responses[3];
  service.Drain();
  EXPECT_GT(service.Stats().spec_memo_entries, 0u);
}

TEST(ServiceTest, SpecMemoStaysWithinItsBounds) {
  SpecMemo memo;
  const auto query = std::make_shared<const PreparedQuery>();
  auto admit = [&](const std::string& bytes) {
    const SpecMemo::Key key{bytes, /*id_stripped=*/true};
    memo.Find(key);
    ASSERT_TRUE(memo.Find(key).admit) << "second sighting admits";
    memo.Admit(key, query, "");
  };
  // Huge repeated lines: 4 MiB of key bytes hold four 1-MiB keys, and a
  // key past the bound is never kept.
  for (int i = 0; i < 10; ++i) {
    admit(std::string(std::size_t{1} << 20, static_cast<char>('a' + i)));
  }
  EXPECT_EQ(memo.entries(), 4u);
  admit(std::string(SpecMemo::kMaxKeyBytes + 1, 'z'));
  EXPECT_EQ(memo.entries(), 4u);
  // Many small lines: the entry bound holds, least recently used out.
  for (int i = 0; i < 2000; ++i) admit("\"k\":" + std::to_string(i) + "}");
  EXPECT_EQ(memo.entries(), SpecMemo::kMaxEntries);
  EXPECT_EQ(memo.Find({"\"k\":0}", true}).query, nullptr);
  EXPECT_NE(memo.Find({"\"k\":1999}", true}).query, nullptr);
  // The same bytes keyed whole are another entry.
  EXPECT_EQ(memo.Find({"\"k\":1999}", false}).query, nullptr);
}

TEST(ServiceTest, ConcurrentSessionsShareOneMemoEntryPerLine) {
  // Four sessions, each on its own thread, send the same four lines (one
  // per front door) with their own ids: every repeat after the first two
  // sightings runs the one shared prepared query, concurrently.
  const std::vector<std::string> bodies = {
      R"("kind":"system","class":"all","system":"reach_red"})",
      R"("kind":"words","nfa":"aplus_bplus","system":"zigzag"})",
      R"("kind":"trees","automaton":"two_level","system":"descend"})",
      R"json("kind":"branching","class":"all","system":{"registers":)json"
      R"json(["x"],"states":[{"name":"a","initial":true},{"name":"b",)json"
      R"json("accepting":true}],"rules":[{"from":"a","branches":[)json"
      R"json({"guard":"E(x_old, x_new)","to":"b"},{"guard":"red(x_new)",)json"
      R"json("to":"b"}]}]}})json",
  };
  constexpr int kSessions = 4;
  constexpr int kRounds = 5;
  QueryService::Options options;
  options.num_workers = 4;
  QueryService service(options);
  std::vector<std::vector<std::string>> responses(kSessions);
  std::vector<std::thread> clients;
  for (int c = 0; c < kSessions; ++c) {
    clients.emplace_back([&, c] {
      std::mutex mutex;
      Session::Options sopts;
      sopts.id = static_cast<std::uint64_t>(c);
      Session session(service, sopts, [&](const std::string& line) {
        std::lock_guard<std::mutex> lock(mutex);
        responses[c].push_back(line);
      });
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t b = 0; b < bodies.size(); ++b) {
          const int id = (c * kRounds + round) * 10 + static_cast<int>(b);
          session.HandleLine("{\"id\":" + std::to_string(id) + "," +
                             bodies[b]);
        }
      }
      session.Flush();
    });
  }
  for (std::thread& client : clients) client.join();
  service.Drain();

  for (int c = 0; c < kSessions; ++c) {
    ASSERT_EQ(responses[c].size(), bodies.size() * kRounds);
    for (std::size_t i = 0; i < responses[c].size(); ++i) {
      const int id = (c * kRounds + static_cast<int>(i / bodies.size())) * 10 +
                     static_cast<int>(i % bodies.size());
      EXPECT_EQ(responses[c][i].rfind("{\"id\":" + std::to_string(id) +
                                          ",\"ok\":true,\"nonempty\":true",
                                      0),
                0u)
          << responses[c][i];
    }
  }
  // How many sightings miss before a key's entry is published depends on
  // the interleaving; that the rest ran on one shared entry does not.
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.spec_memo_entries, bodies.size());
  EXPECT_GT(stats.spec_memo_hits, 0u);
}

}  // namespace
}  // namespace amalgam
