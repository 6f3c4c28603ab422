#include "solver/emptiness.h"

namespace amalgam {

SolveResult SolveEmptiness(const DdsSystem& system,
                           const SolverBackend& backend,
                           const SolveOptions& options) {
  const GraphSpec spec =
      GraphSpecFor(BorrowBackend(backend), system, UsesGraphCache(options));
  return ExplorationEngine(system, spec, options).Run();
}

}  // namespace amalgam
