// Database-driven systems (paper §2): register automata whose transition
// guards are (quantifier-free) first-order formulas relating the register
// contents before and after the transition, evaluated over a read-only
// database.
//
// Variable id convention used by guards over a system with k registers:
//   id i         (0 <= i < k)   : value of register i before the transition
//   id k + i                    : value of register i after the transition
//   id >= 2k                    : existentially quantified variables
#ifndef AMALGAM_SYSTEM_DDS_H_
#define AMALGAM_SYSTEM_DDS_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "logic/formula.h"
#include "logic/parser.h"

namespace amalgam {

/// A guarded transition rule p --guard--> q.
struct TransitionRule {
  int from = -1;
  int to = -1;
  FormulaRef guard;
};

/// A database-driven system over a fixed schema.
class DdsSystem {
 public:
  explicit DdsSystem(SchemaRef schema) : schema_(std::move(schema)) {}

  /// Adds a control state; returns its id.
  int AddState(std::string name, bool initial = false,
               bool accepting = false);
  /// Adds a register; returns its id. Add all registers before parsing
  /// guards (the variable-id convention depends on the register count).
  int AddRegister(std::string name);

  /// Adds a rule with an already-built guard.
  void AddRule(int from, int to, FormulaRef guard);
  /// Adds a rule with a guard in the parser syntax; register r is
  /// addressable as "<name>_old" and "<name>_new". Parses through
  /// ParseGuard, so rules with the same quantifier-free guard text share
  /// one FormulaRef.
  void AddRule(int from, int to, const std::string& guard_text);

  /// Parses a guard in the same syntax and variable convention without
  /// adding a rule (used by system extensions, e.g. branching rules).
  /// Sharing contract: a quantifier-free text is parsed once per system,
  /// and every later call with the byte-identical text returns that same
  /// FormulaRef (texts that differ only in spacing parse separately). A
  /// guard with `exists` is parsed afresh on every call: each parse gives
  /// its bound variables fresh ids, so no two calls share one.
  FormulaRef ParseGuard(const std::string& guard_text);

  const Schema& schema() const { return *schema_; }
  const SchemaRef& schema_ref() const { return schema_; }
  int num_states() const { return static_cast<int>(state_names_.size()); }
  int num_registers() const {
    return static_cast<int>(register_names_.size());
  }
  const std::vector<TransitionRule>& rules() const { return rules_; }
  bool is_initial(int state) const { return initial_[state]; }
  bool is_accepting(int state) const { return accepting_[state]; }
  const std::string& state_name(int state) const {
    return state_names_[state];
  }
  const std::string& register_name(int reg) const {
    return register_names_[reg];
  }

  /// Variable ids for guards.
  int OldVar(int reg) const { return reg; }
  int NewVar(int reg) const { return num_registers() + reg; }

  /// True if every guard is quantifier-free (precondition of the solvers;
  /// use EliminateExistentials otherwise).
  bool AllGuardsQuantifierFree() const;

  /// The variable table with "<reg>_old" and "<reg>_new" names in the id
  /// convention above. Mutable because parsing guards with `exists`
  /// allocates fresh ids in it.
  VarTable& var_table() { return vars_; }
  const VarTable& var_table() const { return vars_; }

 private:
  void EnsureVarTable();

  SchemaRef schema_;
  std::vector<std::string> state_names_;
  std::vector<std::string> register_names_;
  std::vector<bool> initial_;
  std::vector<bool> accepting_;
  std::vector<TransitionRule> rules_;
  // Quantifier-free guards parsed so far, by exact text (see ParseGuard).
  std::unordered_map<std::string, FormulaRef> parsed_guards_;
  VarTable vars_;
  bool vars_built_ = false;
};

/// Fact 2: converts a system whose guards use positive existential
/// quantification into an equivalent system with quantifier-free guards, by
/// adding auxiliary registers whose "new" values carry the witnesses.
/// Equivalence: the two systems have accepting runs driven by exactly the
/// same databases with nonempty domains. Runs of the original system are
/// projections of runs of the result.
DdsSystem EliminateExistentials(const DdsSystem& system);

}  // namespace amalgam

#endif  // AMALGAM_SYSTEM_DDS_H_
