#include "system/concrete.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <queue>

#include "util/enumerate.h"

namespace amalgam {

bool EvalGuard(const DdsSystem& system, const TransitionRule& rule,
               const Structure& db, std::span<const Elem> old_val,
               std::span<const Elem> new_val) {
  const int k = system.num_registers();
  assert(static_cast<int>(old_val.size()) == k);
  assert(static_cast<int>(new_val.size()) == k);
  std::vector<Elem> valuation(2 * k);
  for (int i = 0; i < k; ++i) {
    valuation[system.OldVar(i)] = old_val[i];
    valuation[system.NewVar(i)] = new_val[i];
  }
  return EvalFormula(*rule.guard, db, valuation);
}

bool ValidateAcceptingRun(const DdsSystem& system, const Structure& db,
                          const ConcreteRun& run) {
  if (run.empty()) return false;
  const int k = system.num_registers();
  for (const ConcreteConfig& c : run) {
    if (c.state < 0 || c.state >= system.num_states()) return false;
    if (static_cast<int>(c.valuation.size()) != k) return false;
    for (Elem e : c.valuation) {
      if (e >= db.size()) return false;
    }
  }
  if (!system.is_initial(run.front().state)) return false;
  if (!system.is_accepting(run.back().state)) return false;
  for (std::size_t i = 0; i + 1 < run.size(); ++i) {
    bool connected = false;
    for (const TransitionRule& rule : system.rules()) {
      if (rule.from != run[i].state || rule.to != run[i + 1].state) continue;
      if (EvalGuard(system, rule, db, run[i].valuation,
                    run[i + 1].valuation)) {
        connected = true;
        break;
      }
    }
    if (!connected) return false;
  }
  return true;
}

namespace {

// Dense encoding of (state, valuation) for the BFS table.
struct ConfigCodec {
  std::uint64_t n = 0;
  int k = 0;
  int num_states = 0;

  std::uint64_t NumValuations() const { return IntPow(n, k); }
  std::uint64_t Encode(int state, std::span<const Elem> val) const {
    std::uint64_t idx = 0;
    for (int i = k; i-- > 0;) idx = idx * n + val[i];
    return idx * num_states + state;
  }
  ConcreteConfig Decode(std::uint64_t code) const {
    ConcreteConfig c;
    c.state = static_cast<int>(code % num_states);
    std::uint64_t rest = code / num_states;
    c.valuation.resize(k);
    for (int i = 0; i < k; ++i) {
      c.valuation[i] = static_cast<Elem>(rest % n);
      rest /= n;
    }
    return c;
  }
};

}  // namespace

std::optional<ConcreteRun> FindAcceptingRun(const DdsSystem& system,
                                            const Structure& db) {
  const int k = system.num_registers();
  const std::uint64_t n = db.size();
  if (n == 0) return std::nullopt;  // no valuation exists over empty domain
  ConfigCodec codec{n, k, system.num_states()};
  const std::uint64_t space = codec.NumValuations() * system.num_states();
  // Parent pointers; kNoParent = unvisited, kRoot = initial configuration.
  constexpr std::uint64_t kNoParent = ~0ULL;
  constexpr std::uint64_t kRoot = ~0ULL - 1;
  std::vector<std::uint64_t> parent(space, kNoParent);
  std::queue<std::uint64_t> queue;

  std::vector<Elem> val(k);
  ForEachTuple(static_cast<int>(n), k, [&](const std::vector<int>& t) {
    for (int i = 0; i < k; ++i) val[i] = static_cast<Elem>(t[i]);
    for (int q = 0; q < system.num_states(); ++q) {
      if (!system.is_initial(q)) continue;
      std::uint64_t code = codec.Encode(q, val);
      if (parent[code] == kNoParent) {
        parent[code] = kRoot;
        queue.push(code);
      }
    }
  });

  auto reconstruct = [&](std::uint64_t code) {
    ConcreteRun run;
    while (true) {
      run.push_back(codec.Decode(code));
      if (parent[code] == kRoot) break;
      code = parent[code];
    }
    std::reverse(run.begin(), run.end());
    return run;
  };

  // One scratch valuation (old registers ++ new registers, the guards'
  // variable convention): the old half is filled once per dequeued
  // configuration, the new half steps through every tuple in place, and
  // the recursive evaluator reads it directly.
  std::vector<Elem> valuation(2 * k);
  const std::span<Elem> next(valuation.data() + k, k);
  while (!queue.empty()) {
    std::uint64_t code = queue.front();
    queue.pop();
    const ConcreteConfig c = codec.Decode(code);
    if (system.is_accepting(c.state)) return reconstruct(code);
    for (int i = 0; i < k; ++i) valuation[system.OldVar(i)] = c.valuation[i];
    for (const TransitionRule& rule : system.rules()) {
      if (rule.from != c.state) continue;
      std::fill(next.begin(), next.end(), Elem{0});
      while (true) {
        const std::uint64_t next_code = codec.Encode(rule.to, next);
        if (parent[next_code] == kNoParent &&
            EvalFormula(*rule.guard, db, valuation)) {
          parent[next_code] = code;
          queue.push(next_code);
        }
        int i = k - 1;
        while (i >= 0 && next[i] + 1 == n) next[i--] = 0;
        if (i < 0) break;
        ++next[i];
      }
    }
  }
  return std::nullopt;
}

}  // namespace amalgam
