package gridsched

// Force-link every self-registering solver family, so the full
// registry is available through Solve/SolverNames even if a future
// refactor drops one of the facade's incidental named imports. Each
// package's init calls solver.Register.
import (
	_ "gridsched/internal/baselines"
	_ "gridsched/internal/core"
	_ "gridsched/internal/heuristics"
	_ "gridsched/internal/portfolio"
	_ "gridsched/internal/tabu"
)
