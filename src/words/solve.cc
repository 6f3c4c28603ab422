#include "words/solve.h"

#include <memory>
#include <stdexcept>

namespace amalgam {

std::shared_ptr<const WordRunClass> WordRunClassFor(const DdsSystem& system,
                                                    const Nfa& nfa) {
  if (system.num_registers() < 1) {
    throw std::invalid_argument(
        "word emptiness requires at least one register");
  }
  return std::make_shared<WordRunClass>(nfa);
}

WordSolveResult SolveWordEmptiness(const DdsSystem& system, const Nfa& nfa,
                                   bool build_witness, SolveStrategy strategy,
                                   GraphCache* cache, int num_threads,
                                   const std::string& store_dir,
                                   TraceRecorder* trace) {
  const std::shared_ptr<const WordRunClass> cls = WordRunClassFor(system, nfa);
  SolveOptions options;
  options.build_witness = build_witness;
  options.strategy = strategy;
  options.cache = cache;
  options.num_threads = num_threads;
  options.store_dir = store_dir;
  options.trace = trace;
  SolveResult generic = SolveEmptiness(system, *cls, options);
  WordSolveResult result;
  result.nonempty = generic.nonempty;
  result.stats = generic.stats;
  if (!generic.nonempty || !build_witness || !generic.witness_db.has_value()) {
    return result;
  }

  // The accumulated witness structure is a run pattern (a full accepting
  // run after any amalgamation step; possibly a gappy member when the path
  // has a single configuration). Complete it and remap the register
  // valuations into word positions.
  std::vector<Elem> order;
  auto pattern = cls->StructureToPattern(*generic.witness_db, &order);
  if (!pattern.has_value()) return result;  // should not happen
  auto completed = cls->Complete(*pattern);
  if (!completed.has_value()) return result;
  auto& [run_states, slot_pos] = *completed;

  std::vector<int> pos_of_elem(order.size());
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    pos_of_elem[order[pos]] = static_cast<int>(pos);
  }
  WordWitness witness;
  witness.automaton_states = run_states;
  witness.letters.reserve(run_states.size());
  for (int q : run_states) {
    witness.letters.push_back(cls->nfa().letter_of(q));
  }
  for (const ConcreteConfig& c : *generic.witness_run) {
    ConcreteConfig mapped;
    mapped.state = c.state;
    for (Elem e : c.valuation) {
      mapped.valuation.push_back(
          static_cast<Elem>(slot_pos[pos_of_elem[e]]));
    }
    witness.system_run.push_back(std::move(mapped));
  }
  result.witness = std::move(witness);
  return result;
}

std::optional<WordWitness> BruteForceWordSearch(const DdsSystem& system,
                                                const Nfa& nfa, int max_len) {
  const int letters = nfa.num_letters();
  std::vector<int> word;
  std::optional<WordWitness> found;
  std::function<bool(int)> rec = [&](int remaining) -> bool {
    if (!word.empty() && nfa.Accepts(word)) {
      Structure db = WorddbOf(word, system.schema_ref());
      auto run = FindAcceptingRun(system, db);
      if (run.has_value()) {
        found = WordWitness{word, {}, std::move(*run)};
        return true;
      }
    }
    if (remaining == 0) return false;
    for (int a = 0; a < letters; ++a) {
      word.push_back(a);
      if (rec(remaining - 1)) return true;
      word.pop_back();
    }
    return false;
  };
  rec(max_len);
  return found;
}

}  // namespace amalgam
