#include "service/protocol.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fraisse/relational.h"
#include "obs/build_info.h"
#include "service/json.h"
#include "system/zoo.h"
#include "trees/run_class.h"
#include "trees/zoo.h"
#include "words/worddb.h"
#include "words/zoo.h"

namespace amalgam {

namespace {

// Parse failures inside a request are reported through this exception and
// land in ProtocolRequest::error — the JSONL loop never dies on bad input.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

SchemaRef ParseSchemaSpec(const JsonValue& spec) {
  Schema schema;
  auto add_symbols = [&](const char* key, bool relation) {
    const JsonValue* list = spec.Get(key);
    if (!list) return;
    if (!list->is_array()) {
      throw ProtocolError(std::string("schema.") + key + " must be an array");
    }
    for (const JsonValue& symbol : list->array) {
      if (!symbol.is_array() || symbol.array.size() != 2 ||
          !symbol.array[0].is_string() || !symbol.array[1].is_number()) {
        throw ProtocolError(std::string("schema.") + key +
                            " entries must be [name, arity] pairs");
      }
      const int arity = static_cast<int>(symbol.array[1].number);
      if (relation) {
        schema.AddRelation(symbol.array[0].string, arity);
      } else {
        schema.AddFunction(symbol.array[0].string, arity);
      }
    }
  };
  add_symbols("relations", /*relation=*/true);
  add_symbols("functions", /*relation=*/false);
  return MakeSchema(std::move(schema));
}

// The shared shape of spec-described control skeletons: registers, named
// states, and guard texts handed to the existing parser. Returns the
// name -> id map so branching rules can resolve their targets too.
std::unordered_map<std::string, int> BuildSkeleton(
    const JsonValue& spec, const std::function<int(std::string, bool, bool)>&
                               add_state,
    const std::function<int(std::string)>& add_register) {
  const JsonValue* registers = spec.Get("registers");
  if (!registers || !registers->is_array() || registers->array.empty()) {
    throw ProtocolError("system spec needs a non-empty `registers` array");
  }
  for (const JsonValue& reg : registers->array) {
    if (!reg.is_string()) {
      throw ProtocolError("`registers` entries must be strings");
    }
    add_register(reg.string);
  }
  const JsonValue* states = spec.Get("states");
  if (!states || !states->is_array() || states->array.empty()) {
    throw ProtocolError("system spec needs a non-empty `states` array");
  }
  std::unordered_map<std::string, int> state_ids;
  for (const JsonValue& state : states->array) {
    if (!state.is_object() || !state.Get("name") ||
        !state.Get("name")->is_string()) {
      throw ProtocolError("`states` entries must be objects with a `name`");
    }
    const std::string& name = state.Get("name")->string;
    if (state_ids.count(name)) {
      throw ProtocolError("duplicate state name: " + name);
    }
    state_ids[name] = add_state(name, state.GetBool("initial"),
                                state.GetBool("accepting"));
  }
  return state_ids;
}

int ResolveState(const std::unordered_map<std::string, int>& state_ids,
                 const std::string& name) {
  auto it = state_ids.find(name);
  if (it == state_ids.end()) {
    throw ProtocolError("rule references unknown state: " + name);
  }
  return it->second;
}

std::shared_ptr<const DdsSystem> ParseSystemSpec(const JsonValue& spec,
                                                 SchemaRef schema) {
  auto system = std::make_shared<DdsSystem>(std::move(schema));
  auto state_ids = BuildSkeleton(
      spec,
      [&](std::string name, bool initial, bool accepting) {
        return system->AddState(std::move(name), initial, accepting);
      },
      [&](std::string name) { return system->AddRegister(std::move(name)); });
  const JsonValue* rules = spec.Get("rules");
  if (!rules || !rules->is_array()) {
    throw ProtocolError("system spec needs a `rules` array");
  }
  for (const JsonValue& rule : rules->array) {
    if (!rule.is_object()) throw ProtocolError("`rules` entries are objects");
    const std::string from = rule.GetString("from");
    const std::string to = rule.GetString("to");
    const std::string guard = rule.GetString("guard");
    if (from.empty() || to.empty() || guard.empty()) {
      throw ProtocolError("a rule needs `from`, `to` and `guard`");
    }
    try {
      system->AddRule(ResolveState(state_ids, from),
                      ResolveState(state_ids, to), guard);
    } catch (const ProtocolError&) {
      throw;
    } catch (const std::exception& e) {
      throw ProtocolError("bad guard \"" + guard + "\": " + e.what());
    }
  }
  return system;
}

std::shared_ptr<const BranchingSystem> ParseBranchingSpec(
    const JsonValue& spec, SchemaRef schema) {
  auto system = std::make_shared<BranchingSystem>(std::move(schema));
  auto state_ids = BuildSkeleton(
      spec,
      [&](std::string name, bool initial, bool accepting) {
        return system->AddState(std::move(name), initial, accepting);
      },
      [&](std::string name) { return system->AddRegister(std::move(name)); });
  const JsonValue* rules = spec.Get("rules");
  if (!rules || !rules->is_array()) {
    throw ProtocolError("branching spec needs a `rules` array");
  }
  for (const JsonValue& rule : rules->array) {
    const std::string from = rule.is_object() ? rule.GetString("from") : "";
    const JsonValue* branches = rule.is_object() ? rule.Get("branches")
                                                 : nullptr;
    if (from.empty() || !branches || !branches->is_array() ||
        branches->array.empty()) {
      throw ProtocolError(
          "a branching rule needs `from` and a non-empty `branches` array");
    }
    std::vector<std::pair<std::string, int>> guarded_targets;
    for (const JsonValue& branch : branches->array) {
      const std::string guard =
          branch.is_object() ? branch.GetString("guard") : "";
      const std::string to = branch.is_object() ? branch.GetString("to") : "";
      if (guard.empty() || to.empty()) {
        throw ProtocolError("a branch needs `guard` and `to`");
      }
      guarded_targets.emplace_back(guard, ResolveState(state_ids, to));
    }
    try {
      system->AddRule(ResolveState(state_ids, from), guarded_targets);
    } catch (const ProtocolError&) {
      throw;
    } catch (const std::exception& e) {
      throw ProtocolError(std::string("bad branching guard: ") + e.what());
    }
  }
  return system;
}

std::shared_ptr<const FraisseClass> MakeClass(const std::string& name,
                                              const SchemaRef& schema) {
  if (name == "all" || name.empty()) {
    return std::make_shared<AllStructuresClass>(schema);
  }
  if (name == "orders") return std::make_shared<LinearOrderClass>();
  if (name == "equiv") return std::make_shared<EquivalenceClass>();
  throw ProtocolError("unknown class \"" + name +
                      "\" (known: all, orders, equiv)");
}

std::shared_ptr<const Nfa> MakeNfa(const std::string& name) {
  if (name == "all_ab") return std::make_shared<Nfa>(NfaAllAB());
  if (name == "alternating_ab") {
    return std::make_shared<Nfa>(NfaAlternatingAB());
  }
  if (name == "aplus_bplus") return std::make_shared<Nfa>(NfaAPlusBPlus());
  if (name.rfind("mod", 0) == 0) {
    const int p = std::atoi(name.c_str() + 3);
    if (p >= 2) return std::make_shared<Nfa>(NfaModCounter(p));
  }
  throw ProtocolError("unknown nfa \"" + name +
                      "\" (known: all_ab, alternating_ab, aplus_bplus, "
                      "mod<p>)");
}

std::shared_ptr<const TreeAutomaton> MakeAutomaton(const std::string& name) {
  if (name == "all_trees") return std::make_shared<TreeAutomaton>(TaAllTrees());
  if (name == "chains") return std::make_shared<TreeAutomaton>(TaChains());
  if (name == "two_level") {
    return std::make_shared<TreeAutomaton>(TaTwoLevel());
  }
  if (name == "comb") return std::make_shared<TreeAutomaton>(TaComb());
  if (name == "alternating_chains") {
    return std::make_shared<TreeAutomaton>(TaAlternatingChains());
  }
  throw ProtocolError("unknown automaton \"" + name +
                      "\" (known: all_trees, chains, two_level, comb, "
                      "alternating_chains)");
}

std::shared_ptr<const DdsSystem> MakeZooSystem(const std::string& name) {
  if (name == "odd_red_cycle") {
    return std::make_shared<DdsSystem>(OddRedCycleSystem());
  }
  if (name == "reach_red") return std::make_shared<DdsSystem>(ReachRedSystem());
  if (name == "contradiction") {
    return std::make_shared<DdsSystem>(ContradictionSystem());
  }
  throw ProtocolError("unknown system \"" + name +
                      "\" (known: odd_red_cycle, reach_red, contradiction; "
                      "or pass a spec object)");
}

void ParseQuery(const JsonValue& json, ProtocolRequest& out) {
  QueryRequest& query = out.query;

  const std::string kind = json.GetString("kind", "system");
  if (kind == "system") {
    query.kind = QueryKind::kSystem;
  } else if (kind == "words" || kind == "word") {
    query.kind = QueryKind::kWord;
  } else if (kind == "trees" || kind == "tree") {
    query.kind = QueryKind::kTree;
  } else if (kind == "branching") {
    query.kind = QueryKind::kBranching;
  } else {
    throw ProtocolError("unknown kind \"" + kind +
                        "\" (known: system, words, trees, branching)");
  }

  const std::string strategy = json.GetString("strategy", "onthefly");
  if (strategy == "onthefly") {
    query.strategy = SolveStrategy::kOnTheFly;
  } else if (strategy == "eager") {
    query.strategy = SolveStrategy::kEager;
  } else {
    throw ProtocolError("unknown strategy \"" + strategy +
                        "\" (known: onthefly, eager)");
  }
  query.num_threads = static_cast<int>(json.GetInt("num_threads", 0));
  query.build_witness = json.GetBool("build_witness", false);
  query.extra_pattern_cap =
      static_cast<int>(json.GetInt("extra_pattern_cap", 4));
  query.atom_cap = static_cast<std::uint32_t>(
      std::max<std::int64_t>(0, json.GetInt("atom_cap", 0)));
  out.store_dir = json.GetString("store_dir");
  // The recorder is created here, at parse time, so its epoch covers the
  // whole service-side life of the request (queue wait included).
  if (json.GetBool("trace", false)) {
    query.trace = std::make_shared<TraceRecorder>();
  }

  const JsonValue* system_field = json.Get("system");
  if (!system_field) throw ProtocolError("a query needs a `system`");

  // Resolve the language first: word/tree schemas are implied by it.
  switch (query.kind) {
    case QueryKind::kWord:
      query.nfa = MakeNfa(json.GetString("nfa"));
      break;
    case QueryKind::kTree:
      query.automaton = MakeAutomaton(json.GetString("automaton"));
      break;
    default:
      break;
  }

  if (system_field->is_string()) {
    const std::string& name = system_field->string;
    switch (query.kind) {
      case QueryKind::kSystem:
        query.system = MakeZooSystem(name);
        break;
      case QueryKind::kWord: {
        const int rounds = static_cast<int>(json.GetInt("rounds", 1));
        if (name == "zigzag") {
          query.system = std::make_shared<DdsSystem>(ZigZagSystem(rounds));
        } else if (name == "two_markers") {
          query.system = std::make_shared<DdsSystem>(TwoMarkersSystem());
        } else {
          throw ProtocolError("unknown word system \"" + name +
                              "\" (known: zigzag, two_markers; or a spec)");
        }
        break;
      }
      case QueryKind::kTree: {
        const int steps = static_cast<int>(json.GetInt("steps", 1));
        if (name == "descend") {
          query.system = std::make_shared<DdsSystem>(
              DescendSystem(*query.automaton, steps));
        } else if (name == "find_b_below") {
          query.system = std::make_shared<DdsSystem>(
              FindBBelowSystem(*query.automaton));
        } else {
          throw ProtocolError("unknown tree system \"" + name +
                              "\" (known: descend, find_b_below; or a spec)");
        }
        break;
      }
      case QueryKind::kBranching:
        throw ProtocolError(
            "branching systems have no zoo names; pass a spec object");
    }
  } else if (system_field->is_object()) {
    SchemaRef schema;
    switch (query.kind) {
      case QueryKind::kSystem:
      case QueryKind::kBranching: {
        const JsonValue* schema_spec = json.Get("schema");
        schema = schema_spec ? ParseSchemaSpec(*schema_spec)
                             : GraphZooSchema();
        break;
      }
      case QueryKind::kWord:
        schema = MakeWordSchema(query.nfa->alphabet());
        break;
      case QueryKind::kTree:
        schema = MakeTreeSchema(query.automaton->labels());
        break;
    }
    if (query.kind == QueryKind::kBranching) {
      query.branching = ParseBranchingSpec(*system_field, std::move(schema));
    } else {
      query.system = ParseSystemSpec(*system_field, std::move(schema));
    }
  } else {
    throw ProtocolError("`system` must be a zoo name or a spec object");
  }

  // The backend class: the word/tree front doors build their run-pattern
  // classes internally from the language.
  if (query.kind == QueryKind::kSystem || query.kind == QueryKind::kBranching) {
    const SchemaRef& schema = query.kind == QueryKind::kBranching
                                  ? query.branching->skeleton().schema_ref()
                                  : query.system->schema_ref();
    query.cls = MakeClass(json.GetString("class", "all"), schema);
  }
}

std::string ResponseHead(const ProtocolRequest& request) {
  std::string out = "{";
  if (!request.id_json.empty()) {
    out += "\"id\":" + request.id_json + ",";
  }
  return out;
}

void AppendField(std::string& out, const char* name, std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(value));
  out += "\"";
  out += name;
  out += "\":";
  out += buf;
  out += ",";
}

void AppendField(std::string& out, const char* name, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  out += "\"";
  out += name;
  out += "\":";
  out += buf;
  out += ",";
}

void AppendField(std::string& out, const char* name, bool value) {
  out += "\"";
  out += name;
  out += "\":";
  out += value ? "true" : "false";
  out += ",";
}

// The string overloads exist so a literal never silently binds to the
// bool overload via pointer->bool conversion.
void AppendField(std::string& out, const char* name, const std::string& value) {
  out += "\"";
  out += name;
  out += "\":\"";
  out += JsonEscape(value);
  out += "\",";
}

void AppendField(std::string& out, const char* name, const char* value) {
  AppendField(out, name, std::string(value));
}

std::string CloseObject(std::string out) {
  if (out.back() == ',') out.pop_back();
  return out + "}";
}

}  // namespace

ProtocolRequest ParseRequestLine(const std::string& line) {
  ProtocolRequest request;
  std::optional<JsonValue> json = ParseJson(line);
  if (!json.has_value() || !json->is_object()) {
    request.error = "malformed request: not a JSON object";
    return request;
  }
  if (const JsonValue* id = json->Get("id")) {
    request.id_json = JsonToString(*id);
  }
  try {
    const std::string op = json->GetString("op", "query");
    if (op == "query") {
      request.op = ProtocolRequest::Op::kQuery;
      ParseQuery(*json, request);
    } else if (op == "stats") {
      request.op = ProtocolRequest::Op::kStats;
    } else if (op == "sweep") {
      request.op = ProtocolRequest::Op::kSweep;
      // Negative caps would wrap to huge "unlimited" values; clamp to 0.
      request.max_bytes = static_cast<std::uint64_t>(
          std::max<std::int64_t>(0, json->GetInt("max_bytes", 0)));
      request.max_files = static_cast<std::uint64_t>(
          std::max<std::int64_t>(0, json->GetInt("max_files", 0)));
    } else if (op == "maintain") {
      request.op = ProtocolRequest::Op::kMaintain;
    } else if (op == "metrics") {
      request.op = ProtocolRequest::Op::kMetrics;
    } else if (op == "recent") {
      request.op = ProtocolRequest::Op::kRecent;
    } else if (op == "drain") {
      request.op = ProtocolRequest::Op::kDrain;
    } else if (op == "shutdown") {
      request.op = ProtocolRequest::Op::kShutdown;
    } else {
      throw ProtocolError(
          "unknown op \"" + op +
          "\" (known: query, stats, sweep, maintain, metrics, recent, "
          "drain, shutdown)");
    }
  } catch (const std::exception& e) {
    request.error = e.what();
  }
  return request;
}

std::string LineIdentity::IdLess() const {
  if (!id_stripped()) return std::string(rest);
  std::string line;
  line.reserve(1 + rest.size());  // the access log keeps it: no slack
  line += '{';
  line += rest;
  return line;
}

LineIdentity IdentifyLine(std::string_view line) {
  constexpr std::string_view kHead = "{\"id\":";
  LineIdentity identity;
  identity.rest = line;
  if (line.substr(0, kHead.size()) != kHead) return identity;
  // The characters the JSON parser's number scan consumes; the token is
  // then validated by that same parser.
  const std::size_t end =
      std::min(line.find_first_not_of("0123456789.eE+-", kHead.size()),
               line.size());
  // Another member must follow. Lines whose leading ids are different
  // valid numbers parse alike, so they can share what one of them
  // prepared.
  if (line.substr(end, 1) != ",") return identity;
  const std::optional<JsonValue> id =
      ParseJson(line.substr(kHead.size(), end - kHead.size()));
  if (!id.has_value() || !id->is_number()) return identity;
  identity.id_json = JsonToString(*id);
  identity.rest = line.substr(end + 1);
  return identity;
}

std::string FormatQueryResponse(const ProtocolRequest& request,
                                const QueryResult& result) {
  if (!result.ok) {
    return FormatErrorResponse(request, result.error, result.error_code);
  }
  std::string out = ResponseHead(request);
  AppendField(out, "ok", true);
  AppendField(out, "nonempty", result.nonempty);
  AppendField(out, "members", result.stats.members_enumerated);
  AppendField(out, "members_generated", result.stats.members_generated);
  AppendField(out, "edges", result.stats.edges);
  AppendField(out, "configs", result.stats.configs);
  AppendField(out, "from_cache", result.stats.graph_from_cache);
  AppendField(out, "resumed", result.stats.graph_resumed);
  AppendField(out, "coalesced", result.coalesced);
  AppendField(out, "latency_ms", result.latency_ms);
  if (result.trace != nullptr && result.trace->span_count() > 0) {
    // The span forest, nested; ToJson emits a JSON array of root spans.
    out += "\"trace\":" + result.trace->ToJson() + ",";
  }
  return CloseObject(std::move(out));
}

std::string FormatStatsResponse(const ProtocolRequest& request,
                                const ServiceStats& stats) {
  std::string out = ResponseHead(request);
  AppendField(out, "ok", true);
  out += "\"op\":\"stats\",";
  // Every counter the struct declares, in declaration order — generated
  // from the same field list as the struct itself and the Prometheus
  // export, so the three surfaces can never drift apart.
#define AMALGAM_APPEND_STAT_FIELD(field, kind, help) \
  AppendField(out, #field, stats.field);
  AMALGAM_SERVICE_STATS_FIELDS(AMALGAM_APPEND_STAT_FIELD)
#undef AMALGAM_APPEND_STAT_FIELD
  AppendField(out, "p50_latency_ms", stats.p50_latency_ms);
  AppendField(out, "p95_latency_ms", stats.p95_latency_ms);
  AppendField(out, "p99_latency_ms", stats.p99_latency_ms);
  AppendField(out, "build_type", AmalgamBuildType());
  AppendField(out, "version", AmalgamVersion());
  return CloseObject(std::move(out));
}

std::string FormatMetricsResponse(const ProtocolRequest& request,
                                  const std::string& body) {
  std::string out = ResponseHead(request);
  AppendField(out, "ok", true);
  out += "\"op\":\"metrics\",";
  AppendField(out, "content_type",
              "text/plain; version=0.0.4; charset=utf-8");
  AppendField(out, "body", body);
  return CloseObject(std::move(out));
}

std::string FormatRecentResponse(const ProtocolRequest& request,
                                 const std::vector<RecentQuery>& entries) {
  std::string out = ResponseHead(request);
  AppendField(out, "ok", true);
  out += "\"op\":\"recent\",";
  AppendField(out, "count", static_cast<std::uint64_t>(entries.size()));
  out += "\"queries\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const RecentQuery& entry = entries[i];
    if (i > 0) out += ",";
    std::string item = "{";
    AppendField(item, "seq", entry.seq);
    AppendField(item, "key", entry.key);
    AppendField(item, "kind", entry.kind);
    AppendField(item, "ok", entry.ok);
    AppendField(item, "nonempty", entry.nonempty);
    AppendField(item, "coalesced", entry.coalesced);
    AppendField(item, "from_cache", entry.from_cache);
    AppendField(item, "resumed", entry.resumed);
    AppendField(item, "traced", entry.traced);
    AppendField(item, "latency_ms", entry.latency_ms);
    if (!entry.span_rollup.empty()) {
      item += "\"spans\":{";
      for (std::size_t j = 0; j < entry.span_rollup.size(); ++j) {
        if (j > 0) item += ",";
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3f", entry.span_rollup[j].second);
        item += "\"" + JsonEscape(entry.span_rollup[j].first) + "\":" + buf;
      }
      item += "},";
    }
    out += CloseObject(std::move(item));
  }
  out += "],";
  return CloseObject(std::move(out));
}

void ExportServiceStats(const ServiceStats& stats, MetricsRegistry& registry) {
  // Mechanical: one registry scalar per struct field, same name prefix as
  // the stats op's JSON member. The kind token pastes onto MetricKind::k.
#define AMALGAM_EXPORT_STAT_FIELD(field, kind, help)        \
  registry.SetScalar(MetricKind::k##kind, "amalgam_" #field, \
                     help, static_cast<double>(stats.field));
  AMALGAM_SERVICE_STATS_FIELDS(AMALGAM_EXPORT_STAT_FIELD)
#undef AMALGAM_EXPORT_STAT_FIELD
  registry.SetLabeledGauge(
      "amalgam_build_info", "Build metadata; the value is always 1",
      std::string("build_type=\"") + AmalgamBuildType() + "\",version=\"" +
          AmalgamVersion() + "\"",
      1.0);
}

std::string FormatSweepResponse(const ProtocolRequest& request,
                                const StoreSweepResult& result) {
  std::string out = ResponseHead(request);
  AppendField(out, "ok", true);
  out += "\"op\":\"sweep\",";
  AppendField(out, "files_removed", result.files_removed);
  AppendField(out, "bytes_removed", result.bytes_removed);
  AppendField(out, "files_kept", result.files_kept);
  AppendField(out, "bytes_kept", result.bytes_kept);
  return CloseObject(std::move(out));
}

std::string FormatMaintainResponse(const ProtocolRequest& request,
                                   const MaintenancePassResult& pass,
                                   const MaintenanceStats& stats) {
  std::string out = ResponseHead(request);
  AppendField(out, "ok", true);
  out += "\"op\":\"maintain\",";
  // This pass's work, then the loop's lifetime counters.
  AppendField(out, "partials_completed", pass.partials_completed);
  AppendField(out, "sweep_files_removed", pass.sweep_files_removed);
  AppendField(out, "total_passes", stats.passes);
  AppendField(out, "total_partials_completed", stats.partials_completed);
  AppendField(out, "total_prewarm_loads", stats.prewarm_loads);
  return CloseObject(std::move(out));
}

namespace {

std::string FormatOpAck(const ProtocolRequest& request, const char* op,
                        const ServiceStats& stats) {
  std::string out = ResponseHead(request);
  AppendField(out, "ok", true);
  out += "\"op\":\"";
  out += op;
  out += "\",";
  AppendField(out, "queries", stats.queries);
  return CloseObject(std::move(out));
}

}  // namespace

std::string FormatDrainResponse(const ProtocolRequest& request,
                                const ServiceStats& stats) {
  return FormatOpAck(request, "drain", stats);
}

std::string FormatShutdownResponse(const ProtocolRequest& request,
                                   const ServiceStats& stats) {
  return FormatOpAck(request, "shutdown", stats);
}

std::string FormatErrorResponse(const ProtocolRequest& request,
                                const std::string& error,
                                const std::string& code) {
  std::string out = ResponseHead(request);
  AppendField(out, "ok", false);
  out += "\"error\":\"" + JsonEscape(error) + "\",";
  if (!code.empty()) {
    out += "\"error_code\":\"" + JsonEscape(code) + "\",";
  }
  return CloseObject(std::move(out));
}

}  // namespace amalgam
