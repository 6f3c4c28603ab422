// perfbench_layers — the in-process half of the repo benchmark (run.py).
//
// Three modes, each reading JSONL query lines in the amalgamd protocol:
//
//   perfbench_layers reference LINES OUT
//       Solves every line with the reference configuration — eager
//       strategy, a fresh GraphCache, build_witness = true — and validates
//       every nonempty witness with ValidateAcceptingRun. One JSON object
//       per input line: {"i","ok","nonempty","witness":"valid"|"invalid"|
//       "none"} (or {"i","ok":false,"error"}).
//
//   perfbench_layers layers --setup F --lines F --store DIR|- --probe-store DIR
//                           --cache-max N --spans OUT --summary OUT
//       Replays the set-up lines untimed, then times each measured line
//       through the public functions of every layer, as its own spans:
//       ParseRequestLine, GraphCache::Key, GraphStore::Load (a probe on the
//       same directory; "-" runs the cache without a store), GraphCache::Lookup,
//       the front door (shared GraphCache, the line's own strategy and
//       witness flag),
//       GraphStore::Save (into a probe directory) and FormatQueryResponse.
//       Every line whose query built graph work is then decomposed once per
//       key: SubTransitionGraph::BuildFull, the backend's EnumerateGenerated
//       over 2k marks, and a batched replay of that stream through
//       GuardEvaluator::Eval and ConfigInterner::InternProjection. Spans
//       stay in memory and are written out (TSV) when the replay ends;
//       per-line work counts go to the summary (JSONL).
//
//   perfbench_layers calibrate
//       A pure-ALU loop on 1 and on 4 threads: the host's effective
//       parallelism, printed as one JSON object.
//
//   perfbench_layers probe
//       The host-speed probe: milliseconds for a fixed ping-pong of small
//       messages over a Unix socketpair between two threads. Run on the
//       benchmark's pinned CPU, it slows down with the host the way the
//       daemon's socket, wake-up and allocation work does, where a pure-ALU
//       loop does not.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "logic/compiled.h"
#include "service/json.h"
#include "service/protocol.h"
#include "solver/branching.h"
#include "solver/cache.h"
#include "solver/emptiness.h"
#include "solver/graph.h"
#include "solver/intern.h"
#include "solver/store.h"
#include "system/concrete.h"
#include "trees/run_class.h"
#include "trees/solve.h"
#include "trees/tree.h"
#include "words/run_class.h"
#include "words/solve.h"
#include "words/worddb.h"

namespace amalgam {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// ---- Spans: (request, name, start, end, parent), kept in memory. ----

struct Span {
  int request;
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  int parent;
};

class SpanLog {
 public:
  int request = -1;

  int Open(const char* name) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(
        Span{request, name, NowNs(), 0, open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    return id;
  }
  void Close() {
    spans_[open_.back()].end_ns = NowNs();
    open_.pop_back();
  }
  void Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    for (const Span& s : spans_) {
      std::fprintf(f, "%d\t%s\t%llu\t%llu\t%d\n", s.request, s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns), s.parent);
    }
    std::fclose(f);
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class Scoped {
 public:
  Scoped(SpanLog& log, const char* name) : log_(log) { log_.Open(name); }
  ~Scoped() { log_.Close(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
};

// ---- The graph context a query line resolves to. ----

// The backend, guard list and register count a front door queries under,
// derived the way the front doors derive them (one guard per rule, or per
// flattened branch), so GraphCache::Key here names the same graph.
struct GraphContext {
  std::shared_ptr<const SolverBackend> backend;
  std::vector<FormulaRef> guards;
  int k = 0;
  // The backend family that generates the members, and the span name of
  // its EnumerateGenerated call.
  const char* family = "fraisse";
  const char* generate_span = "fraisse.generate";
};

GraphContext ContextOf(const QueryRequest& q) {
  GraphContext ctx;
  auto rule_guards = [&](const DdsSystem& system) {
    for (const TransitionRule& rule : system.rules()) {
      ctx.guards.push_back(rule.guard);
    }
    ctx.k = system.num_registers();
  };
  switch (q.kind) {
    case QueryKind::kSystem:
      ctx.backend = q.cls;
      rule_guards(*q.system);
      break;
    case QueryKind::kWord:
      ctx.backend = std::make_shared<WordRunClass>(*q.nfa);
      ctx.family = "words";
      ctx.generate_span = "words.generate";
      rule_guards(*q.system);
      break;
    case QueryKind::kTree:
      ctx.backend =
          std::make_shared<TreeRunClass>(q.automaton.get(), q.extra_pattern_cap);
      ctx.family = "trees";
      ctx.generate_span = "trees.generate";
      rule_guards(*q.system);
      break;
    case QueryKind::kBranching:
      ctx.backend = q.cls;
      for (const BranchingRule& rule : q.branching->rules()) {
        for (const Branch& branch : rule.branches) {
          ctx.guards.push_back(branch.guard);
        }
      }
      ctx.k = q.branching->skeleton().num_registers();
      break;
  }
  return ctx;
}

// The four front doors, called the way QueryService::RunQuery calls them.
QueryResult RunFrontDoor(const QueryRequest& q, GraphCache& cache) {
  QueryResult result;
  switch (q.kind) {
    case QueryKind::kSystem: {
      SolveOptions options;
      options.build_witness = q.build_witness;
      options.strategy = q.strategy;
      options.cache = &cache;
      options.relational_atom_cap = q.atom_cap;
      const SolveResult solved = SolveEmptiness(*q.system, *q.cls, options);
      result.nonempty = solved.nonempty;
      result.stats = solved.stats;
      break;
    }
    case QueryKind::kWord: {
      const WordSolveResult solved = SolveWordEmptiness(
          *q.system, *q.nfa, q.build_witness, q.strategy, &cache);
      result.nonempty = solved.nonempty;
      result.stats = solved.stats;
      break;
    }
    case QueryKind::kTree: {
      const TreeSolveResult solved = SolveTreeEmptiness(
          *q.system, *q.automaton, q.build_witness ? 6 : 0,
          q.extra_pattern_cap, q.strategy, &cache);
      result.nonempty = solved.nonempty;
      result.stats = solved.stats;
      break;
    }
    case QueryKind::kBranching: {
      const BranchingSolveResult solved =
          SolveBranchingEmptiness(*q.branching, *q.cls, &cache);
      result.nonempty = solved.nonempty;
      result.stats = solved.stats;
      break;
    }
  }
  result.ok = true;
  return result;
}

const char* FrontDoorSpan(QueryKind kind) {
  switch (kind) {
    case QueryKind::kSystem:
      return "frontdoor.system";
    case QueryKind::kWord:
      return "frontdoor.words";
    case QueryKind::kTree:
      return "frontdoor.trees";
    case QueryKind::kBranching:
      return "frontdoor.branching";
  }
  return "frontdoor";
}

// ---- reference ----

// Reference verdict plus witness validation for one query line.
std::string ReferenceSolve(const std::string& line) {
  const ProtocolRequest req = ParseRequestLine(line);
  if (!req.error.empty()) {
    return "\"ok\":false,\"error\":\"" + JsonEscape(req.error) + "\"";
  }
  const QueryRequest& q = req.query;
  GraphCache fresh;
  bool nonempty = false;
  const char* witness = "none";
  auto check = [&](bool valid) { witness = valid ? "valid" : "invalid"; };
  switch (q.kind) {
    case QueryKind::kSystem: {
      SolveOptions options;
      options.strategy = SolveStrategy::kEager;
      options.build_witness = true;
      options.cache = &fresh;
      options.relational_atom_cap = q.atom_cap;
      const SolveResult r = SolveEmptiness(*q.system, *q.cls, options);
      nonempty = r.nonempty;
      if (nonempty && r.witness_db && r.witness_run) {
        check(ValidateAcceptingRun(*q.system, *r.witness_db, *r.witness_run));
      }
      break;
    }
    case QueryKind::kWord: {
      const WordSolveResult r = SolveWordEmptiness(
          *q.system, *q.nfa, true, SolveStrategy::kEager, &fresh);
      nonempty = r.nonempty;
      if (nonempty && r.witness) {
        check(ValidateAcceptingRun(
            *q.system, WorddbOf(r.witness->letters, q.system->schema_ref()),
            r.witness->system_run));
      }
      break;
    }
    case QueryKind::kTree: {
      const TreeSolveResult r =
          SolveTreeEmptiness(*q.system, *q.automaton, 6, q.extra_pattern_cap,
                             SolveStrategy::kEager, &fresh);
      nonempty = r.nonempty;
      if (nonempty && r.witness) {
        check(ValidateAcceptingRun(
            *q.system, TreedbOf(r.witness->tree, q.system->schema_ref()),
            r.witness->system_run));
      }
      break;
    }
    case QueryKind::kBranching: {
      nonempty = SolveBranchingEmptiness(*q.branching, *q.cls, &fresh).nonempty;
      break;
    }
  }
  return std::string("\"ok\":true,\"nonempty\":") +
         (nonempty ? "true" : "false") + ",\"witness\":\"" + witness + "\"";
}

int Reference(const std::string& in_path, const std::string& out_path) {
  const std::vector<std::string> lines = ReadLines(in_path);
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + out_path);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string body;
    try {
      body = ReferenceSolve(lines[i]);
    } catch (const std::exception& e) {
      body = "\"ok\":false,\"error\":\"" + JsonEscape(e.what()) + "\"";
    }
    std::fprintf(out, "{\"i\":%zu,%s}\n", i, body.c_str());
  }
  std::fclose(out);
  return 0;
}

// ---- layers ----

struct Decomposition {
  std::uint64_t shapes = 0;
  std::uint64_t evals = 0;
  std::uint64_t projections = 0;
  std::uint64_t raw_hits = 0;
};

// The sweep kernels one at a time over the key's 2k-generated stream. The
// stream is buffered in batches so the clock is read per batch, not per
// call; the replay mirrors SubTransitionGraph's joint sweep (every guard
// evaluated, both projections interned on a member's first hit) over at
// most the stream's first kMaxReplayed members.
Decomposition Decompose(const GraphContext& ctx, std::uint32_t atom_cap,
                        SpanLog& spans) {
  Decomposition d;
  {
    Scoped s(spans, "graph.build_full");
    SubTransitionGraph graph(ctx.guards, ctx.k);
    SolveStats stats;
    graph.BuildFull(*ctx.backend, stats, ~std::uint64_t{0}, atom_cap);
    d.shapes = static_cast<std::uint64_t>(graph.num_shapes());
  }
  const int m = 2 * ctx.k;
  {
    Scoped s(spans, ctx.generate_span);
    ctx.backend->EnumerateGenerated(m,
                                    [](const Structure&, std::span<const Elem>) {});
  }
  std::vector<CompiledGuard> compiled;
  for (const FormulaRef& g : ctx.guards) {
    compiled.push_back(CompiledGuard::Compile(*g));
  }
  GuardEvaluator evaluator;
  ConfigInterner interner;
  constexpr std::size_t kBatch = 2048;
  // The per-call kernel costs settle long before a million-member stream
  // ends; replaying a prefix keeps the traced run short.
  constexpr std::uint64_t kMaxReplayed = 1 << 16;
  std::vector<std::pair<Structure, std::vector<Elem>>> batch;
  std::vector<char> hit;
  batch.reserve(kBatch);
  auto flush = [&] {
    hit.assign(batch.size(), 0);
    {
      Scoped s(spans, "logic.guard_eval");
      for (std::size_t b = 0; b < batch.size(); ++b) {
        for (const CompiledGuard& g : compiled) {
          if (evaluator.Eval(g, batch[b].first, batch[b].second)) hit[b] = 1;
        }
      }
    }
    d.evals += batch.size() * compiled.size();
    {
      Scoped s(spans, "intern.project");
      for (std::size_t b = 0; b < batch.size(); ++b) {
        if (!hit[b]) continue;
        const std::span<const Elem> marks(batch[b].second);
        interner.InternProjection(batch[b].first, marks.first(ctx.k));
        interner.InternProjection(batch[b].first, marks.subspan(ctx.k));
        d.projections += 2;
      }
    }
    batch.clear();
  };
  std::uint64_t replayed = 0;
  ctx.backend->EnumerateGeneratedUntil(
      m, [&](const Structure& s, std::span<const Elem> marks) {
        batch.emplace_back(s, std::vector<Elem>(marks.begin(), marks.end()));
        if (batch.size() == kBatch) flush();
        return ++replayed < kMaxReplayed;
      });
  if (!batch.empty()) flush();
  d.raw_hits = interner.raw_hits();
  return d;
}

struct LayersArgs {
  std::string setup, lines, store, probe_store, spans, summary;
  std::size_t cache_max = 0;
};

void AppendStat(std::string& out, const char* name, std::uint64_t v) {
  out += ",\"";
  out += name;
  out += "\":" + std::to_string(v);
}

int Layers(const LayersArgs& args) {
  GraphCache cache(args.cache_max);
  std::unique_ptr<const GraphStore> load_probe;
  if (args.store != "-") {
    cache.AttachStore(args.store);
    load_probe = std::make_unique<const GraphStore>(args.store);
  }
  const GraphStore save_probe(args.probe_store);

  for (const std::string& line : ReadLines(args.setup)) {
    const ProtocolRequest req = ParseRequestLine(line);
    if (req.error.empty() && req.op == ProtocolRequest::Op::kQuery) {
      RunFrontDoor(req.query, cache);
    }
  }

  const std::vector<std::string> lines = ReadLines(args.lines);
  SpanLog spans;
  std::set<std::string> decomposed;
  std::FILE* summary = std::fopen(args.summary.c_str(), "w");
  if (summary == nullptr) throw std::runtime_error("cannot write summary");
  for (std::size_t i = 0; i < lines.size(); ++i) {
    spans.request = static_cast<int>(i);
    std::string record = "{\"i\":" + std::to_string(i);
    // The request outlives the try block: a tree backend in `ctx` points
    // into its automaton, and Decompose below still uses it.
    ProtocolRequest req;
    GraphContext ctx;
    std::string key;
    QueryResult result;
    try {
      Scoped root(spans, "request");
      {
        Scoped s(spans, "protocol.parse");
        req = ParseRequestLine(lines[i]);
      }
      if (!req.error.empty() || req.op != ProtocolRequest::Op::kQuery) {
        throw std::runtime_error("not a query line: " + req.error);
      }
      ctx = ContextOf(req.query);
      {
        Scoped s(spans, "cache.key");
        key = GraphCache::Key(*ctx.backend, ctx.k, ctx.guards);
      }
      const SchemaRef& schema = ctx.backend->schema();
      if (load_probe != nullptr && cache.Peek(key) == nullptr) {
        Scoped s(spans, "store.load");
        load_probe->Load(key, schema, ctx.guards, ctx.k);
      }
      {
        Scoped s(spans, "cache.lookup");
        cache.Lookup(key, schema, ctx.guards, ctx.k);
      }
      {
        Scoped s(spans, FrontDoorSpan(req.query.kind));
        result = RunFrontDoor(req.query, cache);
      }
      if (const auto graph = cache.Peek(key)) {
        Scoped s(spans, "store.save");
        save_probe.Save(key, *graph);
      }
      {
        Scoped s(spans, "protocol.format");
        FormatQueryResponse(req, result);
      }
      record += std::string(",\"ok\":true,\"family\":\"") + ctx.family +
                "\",\"nonempty\":" + (result.nonempty ? "true" : "false");
      const SolveStats& st = result.stats;
      AppendStat(record, "members_enumerated", st.members_enumerated);
      AppendStat(record, "members_generated", st.members_generated);
      AppendStat(record, "guard_evals", st.guard_evaluations);
      AppendStat(record, "edges", st.edges);
      AppendStat(record, "configs", st.configs);
    } catch (const std::exception& e) {
      record += ",\"ok\":false,\"error\":\"" + JsonEscape(e.what()) + "\"}";
      std::fprintf(summary, "%s\n", record.c_str());
      continue;
    }
    // Sweep kernels, once per key whose query swept the whole class (an
    // early-exited query did a fraction of what BuildFull would).
    const auto graph = cache.Peek(key);
    if (result.stats.members_enumerated > 0 && graph != nullptr &&
        graph->complete() && decomposed.insert(key).second) {
      Scoped root(spans, "decompose");
      const Decomposition d = Decompose(ctx, req.query.atom_cap, spans);
      record += ",\"decomposed\":{";
      record += "\"shapes\":" + std::to_string(d.shapes);
      AppendStat(record, "evals", d.evals);
      AppendStat(record, "projections", d.projections);
      AppendStat(record, "raw_hits", d.raw_hits);
      record += "}";
    }
    record += "}";
    std::fprintf(summary, "%s\n", record.c_str());
  }
  std::fclose(summary);
  spans.Write(args.spans);
  return 0;
}

// ---- calibrate ----

std::uint64_t Spin(std::uint64_t n) {
  std::uint64_t x = 88172645463325252ull;
  for (std::uint64_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double TimedSpinMs(int threads, std::uint64_t n) {
  std::vector<std::uint64_t> sink(threads);
  const auto start = Clock::now();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, t, n] { sink[t] = Spin(n + t); });
  }
  for (std::thread& th : pool) th.join();
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  if (std::find(sink.begin(), sink.end(), 0u) != sink.end()) std::puts("");
  return ms;
}

int Calibrate() {
  constexpr std::uint64_t kIters = 100'000'000;
  const double t1 = TimedSpinMs(1, kIters);
  const double t4 = TimedSpinMs(4, kIters);
  std::printf(
      "{\"spin_1thread_ms\":%.3f,\"spin_4threads_ms\":%.3f,"
      "\"effective_parallelism\":%.3f,\"hardware_threads\":%u,"
      "\"build_type\":\"%s\"}\n",
      t1, t4, 4.0 * t1 / t4, std::thread::hardware_concurrency(),
      PERFBENCH_BUILD_TYPE);
  return 0;
}

int Probe() {
  constexpr int kRoundTrips = 3000;
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  char buf[64] = {};
  auto exchange = [](int fd, char* b, bool first) {
    for (int i = 0; i < kRoundTrips; ++i) {
      if (first && write(fd, b, 64) != 64) return false;
      if (read(fd, b, 64) != 64) return false;
      if (!first && write(fd, b, 64) != 64) return false;
    }
    return true;
  };
  const auto start = Clock::now();
  bool peer_ok = false;
  std::thread peer([&] {
    char peer_buf[64];
    peer_ok = exchange(fds[1], peer_buf, false);
  });
  const bool ok = exchange(fds[0], buf, true);
  peer.join();
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  close(fds[0]);
  close(fds[1]);
  if (!ok || !peer_ok) throw std::runtime_error("probe exchange failed");
  std::printf("%.4f\n", ms);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_layers reference LINES OUT\n"
               "       perfbench_layers layers --setup F --lines F --store DIR"
               " --probe-store DIR --cache-max N --spans OUT --summary OUT\n"
               "       perfbench_layers calibrate\n"
               "       perfbench_layers probe\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  if (mode == "reference" && argc == 4) return Reference(argv[2], argv[3]);
  if (mode == "calibrate") return Calibrate();
  if (mode == "probe") return Probe();
  if (mode != "layers") return Usage();
  LayersArgs args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--setup") {
      args.setup = value;
    } else if (flag == "--lines") {
      args.lines = value;
    } else if (flag == "--store") {
      args.store = value;
    } else if (flag == "--probe-store") {
      args.probe_store = value;
    } else if (flag == "--cache-max") {
      args.cache_max = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--spans") {
      args.spans = value;
    } else if (flag == "--summary") {
      args.summary = value;
    } else {
      return Usage();
    }
  }
  if (args.lines.empty() || args.store.empty() || args.probe_store.empty() ||
      args.spans.empty() || args.summary.empty() || args.setup.empty()) {
    return Usage();
  }
  return Layers(args);
}

}  // namespace
}  // namespace amalgam

int main(int argc, char** argv) {
  try {
    return amalgam::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_layers: %s\n", e.what());
    return 1;
  }
}
