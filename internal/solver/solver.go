// Package solver defines the unified solver layer shared by every
// metaheuristic and heuristic in the repository: a common Solver
// interface, one Result shape, a Budget of stop conditions with a
// single correct stop-condition engine, and a name-based registry.
//
// Before this layer existed, each algorithm (PA-CGA, the synchronous
// cellular GA, the Struggle GA, cMA+LTH, the generational GA, the
// island model, tabu search and the constructive heuristics) carried
// its own copy of the deadline/evaluation-budget loop and its own entry
// point. Now every algorithm implements Solver, registers itself under
// a stable name, and delegates stopping to Engine — so harnesses, CLIs
// and services dispatch by name instead of growing N-way switches.
package solver

import (
	"context"
	"time"

	"gridsched/internal/etc"
	"gridsched/internal/schedule"
)

// Solver is one scheduling algorithm behind a uniform run contract:
// solve the instance within the budget (and the context's lifetime) and
// report the common Result. Implementations must treat the receiver as
// immutable configuration so a registered Solver is safe for concurrent
// use.
type Solver interface {
	// Name is the stable registry key, e.g. "pa-cga" or "minmin".
	Name() string
	// Describe is a one-line human description for listings.
	Describe() string
	// Solve runs the algorithm on the instance. The run stops at
	// whichever fires first: a budget bound or ctx cancellation.
	// Constructive heuristics ignore the budget (they are zero-budget
	// solvers); every iterative solver requires at least one bound.
	Solve(ctx context.Context, inst *etc.Instance, b Budget) (*Result, error)
}

// Seeder is implemented by solvers whose randomness can be re-seeded;
// WithSeed must return a copy, leaving the receiver untouched.
type Seeder interface {
	WithSeed(seed uint64) Solver
}

// WithSeed returns s reconfigured with the seed when s supports
// seeding, and s unchanged otherwise (deterministic solvers).
func WithSeed(s Solver, seed uint64) Solver {
	if sd, ok := s.(Seeder); ok {
		return sd.WithSeed(seed)
	}
	return s
}

// Restarter is implemented by solvers that can begin their search from
// a caller-supplied schedule instead of their default construction (a
// warm start). WithStart must return a copy configured to start from
// start — the receiver stays untouched and start itself is never
// mutated (implementations clone it before searching). The schedule
// must belong to the same instance the returned solver will be run on;
// composite solvers use this to seed constituent restarts from a
// shared incumbent.
type Restarter interface {
	WithStart(start *schedule.Schedule) Solver
}

// Initializer is implemented by solvers that spend a fixed number of
// evaluations on initialization before the search proper begins — a
// population GA evaluates its whole initial population first.
// Composite solvers (the portfolio) use it to size restart rounds so a
// round amortizes the initialization it pays for; solvers that start
// searching immediately (trajectory methods, heuristics) simply don't
// implement it.
type Initializer interface {
	InitEvals(inst *etc.Instance) int64
}

// InitEvals reports the solver's declared initialization cost on inst,
// or 1 (the single construction/evaluation every solver performs) when
// it makes no declaration.
func InitEvals(s Solver, inst *etc.Instance) int64 {
	if in, ok := s.(Initializer); ok {
		if n := in.InitEvals(inst); n > 1 {
			return n
		}
	}
	return 1
}

// Reproducible is implemented by solvers that declare whether two runs
// with equal configuration, equal seed and a deterministic budget
// (evaluations or generations — wall-clock budgets are inherently
// timing-dependent) produce bit-identical results. Single-threaded
// solvers report true; solvers whose outcome depends on goroutine
// interleaving (the asynchronous cellular GA at >1 thread, the island
// model's timing-dependent migration) report false.
type Reproducible interface {
	Reproducible() bool
}

// IsReproducible reports the solver's declared reproducibility. Solvers
// that do not implement Reproducible make no claim and report false, so
// conformance harnesses only assert run-to-run equality where it is
// promised.
func IsReproducible(s Solver) bool {
	r, ok := s.(Reproducible)
	return ok && r.Reproducible()
}

// Result reports the outcome of any solver run. It is the one result
// shape shared across the solver layer (core.Result aliases it).
type Result struct {
	// Best is a clone of the best schedule found; BestFitness is its
	// fitness (makespan under the default objective).
	Best        *schedule.Schedule
	BestFitness float64
	// Evaluations counts fitness evaluations, including the initial
	// population — the paper's speedup currency (Eq. 5).
	Evaluations int64
	// Generations is the total number of block sweeps summed over
	// workers; PerThread holds the per-worker counts, which differ in
	// the asynchronous model when breeding loops take unequal time.
	Generations int64
	PerThread   []int64
	// LocalSearchMoves counts improving moves made by the local search.
	LocalSearchMoves int64
	// Duration is the measured wall time of the run from the moment
	// its stop engine started: for the population-based solvers that
	// includes population init and the Min-min seed, which are charged
	// to the wall budget like the search itself.
	Duration time.Duration
	// EffectiveBudget records the bounds the run actually enforced: the
	// submitted budget with any context deadline absorbed by the stop
	// engine folded into MaxDuration (see Engine.EffectiveBudget).
	// Reporting the submitted budget alone misleads — it reads
	// "unbounded" when a context deadline was the real bound.
	EffectiveBudget Budget
	// Convergence, when recording was requested, holds the mean
	// population makespan at each generation index (Fig. 6).
	Convergence []float64
	// Diversity, when requested, holds the mean per-task Simpson
	// diversity of the population at each generation index.
	Diversity []float64
	// Constituents, set by composite meta-solvers (the portfolio),
	// breaks the run down per constituent; nil for single-solver runs.
	// The constituents' Evaluations sum to the composite's Evaluations,
	// which its parent budget bounds.
	Constituents []ConstituentResult
}

// ConstituentResult is one constituent solver's share of a composite
// (portfolio) run.
type ConstituentResult struct {
	// Solver is the constituent's registry name.
	Solver string
	// Evaluations is the constituent's share of the evaluation counter;
	// Generations sums its rounds' generation counts.
	Evaluations int64
	Generations int64
	// Rounds is how many (re)starts the race gave this constituent.
	Rounds int64
	// Improvements counts the constituent's accepted publications to
	// the shared incumbent — its contribution to the final answer.
	Improvements int64
	// BestFitness is the best fitness this constituent found itself
	// (+Inf rendered as 0 when it never produced a schedule).
	BestFitness float64
	// Busy is the wall time the constituent spent inside Solve calls.
	Busy time.Duration
	// Err reports a constituent failure; the race continues without it.
	Err string
}
