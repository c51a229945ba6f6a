// Package testkit is the registry-driven conformance kit for the
// unified solver layer: a reusable property suite that every solver
// registered with internal/solver must pass, with no per-solver
// special-casing. RunConformance iterates solver.Names(), so a newly
// registered solver is covered the moment its package is linked into
// the test binary — passing this suite is the contract a new solver
// must meet before it ships.
//
// The properties checked per solver:
//
//   - schedule validity: the returned best schedule assigns every task
//     exactly once to a real machine, its incremental completion times
//     agree with a from-scratch recomputation (Makespan ==
//     MakespanFull), and the reported fitness is the schedule's actual
//     makespan;
//   - budget adherence: the evaluation counter never exceeds the
//     evaluation budget beyond the engine's documented one-step-per-
//     worker granularity, wall-clock budgets stop the run promptly, and
//     a zero budget is either rejected (iterative solvers) or trivially
//     satisfied (zero-budget constructive heuristics), and a
//     generations-only budget is either rejected or enforced and
//     reported as effective;
//   - seed determinism: solvers that declare solver.Reproducible
//     reproduce bit-identical results for equal seeds under a
//     deterministic budget;
//   - cancellation: a cancelled context stops the run promptly, both
//     before and during the solve;
//   - goroutine hygiene: a completed solve leaves no goroutines behind.
//
// The kit lives in a non-test package so solver packages can run it in
// their own tests (see conformance_test.go for the canonical all-solver
// invocation).
package testkit

import (
	"sync"
	"testing"

	"gridsched/internal/etc"
)

var (
	instOnce sync.Once
	inst     *etc.Instance
	instErr  error
)

// Instance returns the shared conformance instance: a small (96×12)
// semi-consistent hi/lo matrix — big enough that every solver's
// machinery engages, small enough that the whole suite stays inside a
// -short test run. The instance is immutable and shared across
// subtests, mirroring how the service shares cached instances between
// concurrent jobs.
func Instance(tb testing.TB) *etc.Instance {
	tb.Helper()
	instOnce.Do(func() {
		inst, instErr = etc.Generate(etc.GenSpec{
			Class: etc.Class{Consistency: etc.SemiConsistent, TaskHet: etc.High, MachineHet: etc.Low},
			Tasks: 96, Machines: 12, Seed: 0xC0FFEE,
		})
	})
	if instErr != nil {
		tb.Fatalf("testkit: generating conformance instance: %v", instErr)
	}
	return inst
}
