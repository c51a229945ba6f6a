package testkit

import (
	"context"
	"math"
	"testing"
	"time"

	"gridsched/internal/obs"
	"gridsched/internal/solver"
)

// Conformance budgets. EvalBudget exceeds every registered solver's
// initial-population evaluation count (the largest is 256: the 16×16
// cellular grid and the 4-island model), so the evaluation bound — not
// the initial evaluation — is what stops the run.
const (
	// EvalBudget is the deterministic evaluation budget used by the
	// validity, adherence and determinism checks.
	EvalBudget = 4000
	// EvalSlack is the permitted overshoot of the evaluation counter:
	// the shared engine checks EvalsExhausted before each breeding step,
	// so each concurrent worker may add one step's evaluation past the
	// bound — and a composite solver's child engines inherit the same
	// per-worker granularity, summed over its constituent lanes. 64
	// covers any plausible worker count either way; a solver that
	// ignores the budget overshoots by orders of magnitude more.
	EvalSlack = 64
	// WallBudget is the wall-clock budget of the duration-adherence
	// check; the engine's coarse polling may overshoot it by one sweep.
	WallBudget = 100 * time.Millisecond
	// WallSlack is the permitted overshoot of a wall-clock budget:
	// room for one sweep past the deadline poll plus scheduler skew on
	// race-instrumented CI runners. A solver that ignores MaxDuration
	// runs to ReturnGrace and fails loudly.
	WallSlack = 3 * time.Second
	// ReturnGrace is how long past its stop condition a solver may take
	// to wind down before the suite declares it unresponsive. Generous,
	// so race-instrumented CI runs do not flake.
	ReturnGrace = 10 * time.Second
	// ConformanceSeed seeds every run; determinism reruns reuse it.
	ConformanceSeed = 7
)

// RunConformance runs the full conformance suite against every solver
// currently registered, one subtest tree per name. Call it from a test
// whose binary links every solver package (blank imports).
func RunConformance(t *testing.T) {
	names := solver.Names()
	if len(names) == 0 {
		t.Fatal("testkit: no solvers registered — missing implementation imports?")
	}
	t.Logf("conformance over %d registered solvers: %v", len(names), names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) { Conformance(t, name) })
	}
}

// Conformance runs every conformance property against one registered
// solver.
func Conformance(t *testing.T, name string) {
	s, err := solver.Lookup(name)
	if err != nil {
		t.Fatalf("Lookup(%q): %v", name, err)
	}
	if s.Name() != name {
		t.Fatalf("registered under %q but Name() = %q", name, s.Name())
	}
	if s.Describe() == "" {
		t.Errorf("Describe() is empty")
	}
	t.Run("ValidSchedule", func(t *testing.T) { checkValidSchedule(t, s) })
	t.Run("BudgetEvaluations", func(t *testing.T) { checkBudgetEvaluations(t, s) })
	t.Run("BudgetWallClock", func(t *testing.T) { checkBudgetWallClock(t, s) })
	t.Run("ZeroBudget", func(t *testing.T) { checkZeroBudget(t, s) })
	t.Run("GenerationsOnly", func(t *testing.T) { checkGenerationsOnly(t, s) })
	t.Run("SeedDeterminism", func(t *testing.T) { checkSeedDeterminism(t, s) })
	t.Run("Cancellation", func(t *testing.T) { checkCancellation(t, s) })
	t.Run("NoGoroutineLeak", func(t *testing.T) { checkNoGoroutineLeak(t, s) })
	t.Run("Observer", func(t *testing.T) { checkObserver(t, s) })
}

// solveOutcome is one bounded Solve call, joined with a deadline so a
// hanging solver fails the suite instead of wedging the test binary.
type solveOutcome struct {
	res *solver.Result
	err error
}

// boundedSolve runs Solve on its own goroutine and requires it to
// return within limit.
func boundedSolve(t *testing.T, s solver.Solver, ctx context.Context, b solver.Budget, limit time.Duration) solveOutcome {
	t.Helper()
	done := make(chan solveOutcome, 1)
	go func() {
		res, err := s.Solve(ctx, Instance(t), b)
		done <- solveOutcome{res, err}
	}()
	select {
	case out := <-done:
		return out
	case <-time.After(limit):
		t.Fatalf("Solve did not return within %v (budget %s)", limit, b)
		return solveOutcome{}
	}
}

// requireValidResult asserts the shared result contract: a complete,
// internally consistent best schedule with honest metrics.
func requireValidResult(t *testing.T, res *solver.Result) {
	t.Helper()
	if res == nil {
		t.Fatal("nil Result without error")
	}
	if res.Best == nil {
		t.Fatal("Result.Best is nil")
	}
	best := res.Best
	if !best.Complete() {
		t.Fatal("best schedule leaves tasks unassigned")
	}
	if err := best.Validate(); err != nil {
		t.Fatalf("best schedule fails validation: %v", err)
	}
	// The incremental fitness and the trust-nothing recomputation must
	// agree: this is the invariant every operator maintains.
	if inc, full := best.Makespan(), best.MakespanFull(); !approxEq(inc, full) {
		t.Fatalf("incremental makespan %v != full recomputation %v", inc, full)
	}
	if !approxEq(res.BestFitness, best.Makespan()) {
		t.Fatalf("BestFitness %v does not match Best.Makespan() %v", res.BestFitness, best.Makespan())
	}
	if res.Evaluations <= 0 {
		t.Fatalf("Evaluations = %d, want > 0", res.Evaluations)
	}
	if res.Duration < 0 {
		t.Fatalf("negative Duration %v", res.Duration)
	}
	if len(res.PerThread) > 0 {
		var sum int64
		for _, g := range res.PerThread {
			if g < 0 {
				t.Fatalf("negative per-thread generation count %v", res.PerThread)
			}
			sum += g
		}
		if sum != res.Generations {
			t.Fatalf("PerThread sums to %d, Generations = %d", sum, res.Generations)
		}
	}
}

func approxEq(a, b float64) bool {
	diff := math.Abs(a - b)
	return diff <= 1e-9 || diff <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func seeded(s solver.Solver) solver.Solver { return solver.WithSeed(s, ConformanceSeed) }

func checkValidSchedule(t *testing.T, s solver.Solver) {
	out := boundedSolve(t, seeded(s), context.Background(), solver.Budget{MaxEvaluations: EvalBudget}, ReturnGrace)
	if out.err != nil {
		t.Fatalf("Solve: %v", out.err)
	}
	requireValidResult(t, out.res)
}

func checkBudgetEvaluations(t *testing.T, s solver.Solver) {
	const budget = 1500
	out := boundedSolve(t, seeded(s), context.Background(), solver.Budget{MaxEvaluations: budget}, ReturnGrace)
	if out.err != nil {
		t.Fatalf("Solve: %v", out.err)
	}
	requireValidResult(t, out.res)
	if out.res.Evaluations > budget+EvalSlack {
		t.Fatalf("Evaluations = %d exceeds budget %d beyond the %d-eval granularity allowance",
			out.res.Evaluations, budget, EvalSlack)
	}
	// Every family reports the bounds its engine actually enforced.
	// Constructive heuristics run a zero-budget engine (one pass, one
	// evaluation); every iterative run must echo the submitted bound.
	if got := out.res.EffectiveBudget.MaxEvaluations; got != budget && got != 0 {
		t.Fatalf("EffectiveBudget.MaxEvaluations = %d, want %d (or 0 for a zero-budget solver)", got, budget)
	}
	if out.res.Evaluations > 1 && out.res.EffectiveBudget.IsZero() {
		t.Fatalf("iterative solver reported a zero EffectiveBudget for a bounded run")
	}
}

func checkBudgetWallClock(t *testing.T, s solver.Solver) {
	start := time.Now()
	out := boundedSolve(t, seeded(s), context.Background(), solver.Budget{MaxDuration: WallBudget}, ReturnGrace)
	if out.err != nil {
		t.Fatalf("Solve: %v", out.err)
	}
	requireValidResult(t, out.res)
	if elapsed := time.Since(start); elapsed > WallBudget+WallSlack {
		t.Fatalf("wall budget %v, returned only after %v (beyond the %v slack)", WallBudget, elapsed, WallSlack)
	}
	t.Logf("wall budget %v, returned after %v", WallBudget, time.Since(start))
}

// checkZeroBudget pins the zero-budget contract: constructive
// heuristics complete instantly (the budget is meaningless for a
// single deterministic pass), iterative solvers must refuse to start an
// unbounded run.
func checkZeroBudget(t *testing.T, s solver.Solver) {
	out := boundedSolve(t, seeded(s), context.Background(), solver.Budget{}, ReturnGrace)
	if out.err != nil {
		return // rejected: the iterative-solver half of the contract
	}
	requireValidResult(t, out.res)
}

// checkGenerationsOnly submits a budget whose only bound is a
// generation count. A solver must either reject it or enforce it: stop
// on its own and report the bound as effective. Zero-budget solvers
// (a single evaluation) ignore budgets altogether.
func checkGenerationsOnly(t *testing.T, s solver.Solver) {
	const gens = 3
	out := boundedSolve(t, seeded(s), context.Background(), solver.Budget{MaxGenerations: gens}, ReturnGrace)
	if out.err != nil {
		return // rejected: the solver has no generations to bound
	}
	requireValidResult(t, out.res)
	if out.res.Evaluations > 1 && out.res.EffectiveBudget.MaxGenerations != gens {
		t.Fatalf("accepted a generations-only budget but reports effective budget %s", out.res.EffectiveBudget)
	}
}

func checkSeedDeterminism(t *testing.T, s solver.Solver) {
	if !solver.IsReproducible(s) {
		t.Skip("solver does not declare seed reproducibility (timing-dependent parallel run)")
	}
	b := solver.Budget{MaxEvaluations: EvalBudget}
	first := boundedSolve(t, seeded(s), context.Background(), b, ReturnGrace)
	second := boundedSolve(t, seeded(s), context.Background(), b, ReturnGrace)
	if first.err != nil || second.err != nil {
		t.Fatalf("Solve: %v / %v", first.err, second.err)
	}
	requireValidResult(t, first.res)
	requireValidResult(t, second.res)
	if first.res.BestFitness != second.res.BestFitness {
		t.Fatalf("equal seeds, different fitness: %v vs %v", first.res.BestFitness, second.res.BestFitness)
	}
	if d := first.res.Best.HammingDistance(second.res.Best); d != 0 {
		t.Fatalf("equal seeds, best schedules differ in %d assignments", d)
	}
	if first.res.Evaluations != second.res.Evaluations {
		t.Fatalf("equal seeds, different evaluation counts: %d vs %d", first.res.Evaluations, second.res.Evaluations)
	}
	if first.res.Generations != second.res.Generations {
		t.Fatalf("equal seeds, different generation counts: %d vs %d", first.res.Generations, second.res.Generations)
	}
}

func checkCancellation(t *testing.T, s solver.Solver) {
	// Pre-cancelled context: the solver must notice before (or instead
	// of) doing real work, and must not hang.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	out := boundedSolve(t, seeded(s), pre, solver.Budget{MaxDuration: time.Hour}, ReturnGrace)
	if out.err == nil {
		requireValidResult(t, out.res) // a best-so-far is acceptable; garbage is not
	}

	// Mid-run cancellation: a run budgeted for an hour must come back
	// as soon as the engine's cancellation poll sees the cancel.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(25 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	out = boundedSolve(t, seeded(s), ctx, solver.Budget{MaxDuration: time.Hour}, ReturnGrace)
	if out.err == nil {
		requireValidResult(t, out.res)
	}
	t.Logf("cancelled after 25ms, returned after %v (err=%v)", time.Since(start), out.err)
}

// checkObserver pins the convergence-instrumentation contract: an
// observed run emits at least one incumbent improvement and exactly one
// terminal event consistent with its result, and observing changes no
// bit of the result relative to the unobserved run (the Observer hook
// must be read-only).
func checkObserver(t *testing.T, s solver.Solver) {
	if !solver.IsReproducible(s) {
		t.Skip("solver does not declare seed reproducibility (cannot compare observed vs unobserved runs)")
	}
	b := solver.Budget{MaxEvaluations: EvalBudget}
	plain := boundedSolve(t, seeded(s), context.Background(), b, ReturnGrace)
	rec := obs.NewRecorder(0)
	observed := boundedSolve(t, seeded(s), solver.WithObserver(context.Background(), rec), b, ReturnGrace)
	if plain.err != nil || observed.err != nil {
		t.Fatalf("Solve: %v / %v", plain.err, observed.err)
	}
	requireValidResult(t, plain.res)
	requireValidResult(t, observed.res)

	// Observation must be invisible to the run itself.
	if plain.res.BestFitness != observed.res.BestFitness {
		t.Errorf("observing changed the result: fitness %v vs %v", plain.res.BestFitness, observed.res.BestFitness)
	}
	if d := plain.res.Best.HammingDistance(observed.res.Best); d != 0 {
		t.Errorf("observing changed the best schedule in %d assignments", d)
	}
	if plain.res.Evaluations != observed.res.Evaluations {
		t.Errorf("observing changed the evaluation count: %d vs %d", plain.res.Evaluations, observed.res.Evaluations)
	}
	if plain.res.Generations != observed.res.Generations {
		t.Errorf("observing changed the generation count: %d vs %d", plain.res.Generations, observed.res.Generations)
	}

	events := rec.Events()
	var improvements []obs.RecordedEvent
	var dones []obs.RecordedEvent
	for _, e := range events {
		switch e.Kind {
		case "improved":
			improvements = append(improvements, e)
		case "done":
			dones = append(dones, e)
		default:
			t.Errorf("unknown event kind %q", e.Kind)
		}
		if e.Evals <= 0 || e.Evals > observed.res.Evaluations {
			t.Errorf("event %s at evals %d outside (0, %d]", e.Kind, e.Evals, observed.res.Evaluations)
		}
		if e.Elapsed < 0 {
			t.Errorf("event %s has negative elapsed %v", e.Kind, e.Elapsed)
		}
	}
	if len(improvements) == 0 {
		t.Fatal("observed run emitted no incumbent-improvement events")
	}
	if len(dones) != 1 {
		t.Fatalf("observed run emitted %d terminal events, want exactly 1", len(dones))
	}
	if events[len(events)-1].Kind != "done" {
		t.Error("terminal event is not the last event")
	}
	// The engine's shared-incumbent CAS admits only strict improvements.
	for i := 1; i < len(improvements); i++ {
		if improvements[i].Fitness >= improvements[i-1].Fitness {
			t.Errorf("improvement %d does not improve: %v after %v", i, improvements[i].Fitness, improvements[i-1].Fitness)
		}
	}
	if last := improvements[len(improvements)-1].Fitness; !approxEq(last, observed.res.BestFitness) {
		t.Errorf("last improvement %v does not match BestFitness %v", last, observed.res.BestFitness)
	}
	if !approxEq(dones[0].Fitness, observed.res.BestFitness) {
		t.Errorf("terminal event fitness %v does not match BestFitness %v", dones[0].Fitness, observed.res.BestFitness)
	}
}

func checkNoGoroutineLeak(t *testing.T, s solver.Solver) {
	verifyNoLeak(t, func() {
		out := boundedSolve(t, seeded(s), context.Background(), solver.Budget{MaxEvaluations: EvalBudget}, ReturnGrace)
		if out.err != nil {
			t.Fatalf("Solve: %v", out.err)
		}
	})
}
