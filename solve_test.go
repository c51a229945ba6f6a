package gridsched

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"gridsched/internal/core"
	"gridsched/internal/solver"
)

// solveTestInstance is a small instance every registered solver can
// chew through quickly.
func solveTestInstance(t *testing.T) *Instance {
	t.Helper()
	in, err := Generate(GenSpec{
		Class:    Class{Consistency: Inconsistent, TaskHet: HighHet, MachineHet: HighHet},
		Tasks:    24,
		Machines: 4,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// parallelSolvers race on a shared evaluation counter, so two runs with
// the same seed may interleave differently; every other solver must be
// bit-reproducible under a fixed seed and evaluation budget.
var parallelSolvers = map[string]bool{"pa-cga": true, "islands": true, "portfolio": true}

// compositeSolvers race constituent solvers under nested child
// budgets. Their adherence contract lives in the conformance kit and
// the portfolio package's accounting tests (at budgets that dwarf the
// constituents' initialization costs); at this file's tiny parity
// budget a composite may legitimately strand a conceded remainder
// below a constituent's restart floor, and a pre-cancelled run has no
// initial evaluation of its own to fall back on, so it reports the
// context error instead of inventing a schedule.
var compositeSolvers = map[string]bool{"portfolio": true}

// zeroBudgetSolvers are the constructive heuristics: single-pass,
// budget-ignoring, fully deterministic.
func zeroBudgetSolvers() map[string]bool {
	m := map[string]bool{}
	for _, name := range HeuristicNames() {
		m[name] = true
	}
	return m
}

// TestSolveRegistryRoundTrip resolves every registered solver by name
// and solves the same tiny instance, checking the common Result
// contract — and bit-reproducibility for the non-parallel solvers.
func TestSolveRegistryRoundTrip(t *testing.T) {
	in := solveTestInstance(t)
	zero := zeroBudgetSolvers()
	names := SolverNames()
	if len(names) < 14 {
		t.Fatalf("only %d registered solvers: %v", len(names), names)
	}
	for _, name := range names {
		opts := SolveOptions{Budget: Budget{MaxEvaluations: 600}, Seed: 7}
		res, err := Solve(name, in, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Best == nil || !res.Best.Complete() {
			t.Fatalf("%s: incomplete best schedule", name)
		}
		if err := res.Best.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.BestFitness <= 0 || res.Evaluations <= 0 {
			t.Fatalf("%s: degenerate result %+v", name, res)
		}
		if zero[name] && res.Evaluations != 1 {
			t.Fatalf("%s: zero-budget solver reported %d evaluations", name, res.Evaluations)
		}
		if parallelSolvers[name] {
			continue
		}
		again, err := Solve(name, in, opts)
		if err != nil {
			t.Fatalf("%s (rerun): %v", name, err)
		}
		if again.BestFitness != res.BestFitness {
			t.Fatalf("%s: not deterministic under fixed seed: %v vs %v",
				name, res.BestFitness, again.BestFitness)
		}
	}
}

// TestSolveBudgetParity asserts every iterative solver respects
// MaxEvaluations within one breeding step per concurrent worker — the
// contract the shared stop-condition engine enforces for all of them.
func TestSolveBudgetParity(t *testing.T) {
	in := solveTestInstance(t)
	zero := zeroBudgetSolvers()
	const budget = 600
	const slack = 8 // max concurrent workers: one in-flight breeding step each
	for _, name := range SolverNames() {
		if zero[name] || compositeSolvers[name] {
			continue
		}
		res, err := Solve(name, in, SolveOptions{Budget: Budget{MaxEvaluations: budget}, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Evaluations < budget || res.Evaluations > budget+slack {
			t.Fatalf("%s: %d evaluations under a budget of %d (allowed overshoot %d)",
				name, res.Evaluations, budget, slack)
		}
	}
}

// TestSolveMissingStopCondition ensures iterative solvers reject an
// empty budget instead of running forever.
func TestSolveMissingStopCondition(t *testing.T) {
	in := solveTestInstance(t)
	zero := zeroBudgetSolvers()
	for _, name := range SolverNames() {
		if zero[name] {
			continue
		}
		if _, err := Solve(name, in, SolveOptions{}); err == nil {
			t.Fatalf("%s: empty budget accepted", name)
		}
	}
}

// TestSolveContextCancellation covers both cancellation modes: a
// pre-cancelled context stops every iterative solver after the initial
// evaluation, and a mid-run cancel ends a long wall-clock run promptly.
func TestSolveContextCancellation(t *testing.T) {
	in := solveTestInstance(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	zero := zeroBudgetSolvers()
	for _, name := range SolverNames() {
		if zero[name] {
			continue
		}
		res, err := Solve(name, in, SolveOptions{
			Context: cancelled,
			Budget:  Budget{MaxDuration: time.Hour},
		})
		if compositeSolvers[name] && err != nil {
			continue // nothing ran, nothing to report: the context error is the honest outcome
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Only the initial population (plus at most one coarse polling
		// window of steady-state steps) may have been evaluated.
		if res.Evaluations > 600 {
			t.Fatalf("%s: %d evaluations despite cancelled context", name, res.Evaluations)
		}
	}

	ctx, cancelLive := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancelLive()
	}()
	start := time.Now()
	if _, err := Solve("pa-cga", in, SolveOptions{
		Context: ctx,
		Budget:  Budget{MaxDuration: time.Hour},
	}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation ignored: run took %v", elapsed)
	}
}

// TestSolveUnknownName checks the registry error path through the
// facade.
func TestSolveUnknownName(t *testing.T) {
	in := solveTestInstance(t)
	if _, err := Solve("no-such-solver", in, SolveOptions{}); err == nil {
		t.Fatal("unknown solver accepted")
	}
	if _, err := LookupSolver("tabu"); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeSweep runs a small scenario sweep through the public entry
// point: classes × solvers through the service pool, with the report
// rendering both ways.
func TestFacadeSweep(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := Sweep(ctx, SweepConfig{
		Classes: []Class{
			{Consistency: Consistent, TaskHet: HighHet, MachineHet: HighHet},
			{Consistency: Inconsistent, TaskHet: LowHet, MachineHet: LowHet},
		},
		Tasks:    48,
		Machines: 6,
		Solvers:  []string{"minmin", "tabu"},
		Budget:   Budget{MaxEvaluations: 400},
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.State != JobDone {
			t.Fatalf("%s on %s: %s (%s)", c.Solver, c.Instance, c.State, c.Err)
		}
	}
	if table := rep.Table(); !strings.Contains(table, "tabu") || !strings.Contains(table, "minmin") {
		t.Fatalf("table missing solver rows:\n%s", table)
	}
	var buf bytes.Buffer
	if err := rep.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 5 {
		t.Fatalf("CSV has %d lines, want 5", lines)
	}
}

// fingerprint pins one run's output bit for bit: the best fitness's
// IEEE bits and an FNV-64a hash of the task→machine assignment.
type fingerprint struct {
	FitnessBits uint64
	AssignHash  uint64
}

func fingerprintOf(res *SolverResult) fingerprint {
	h := fnv.New64a()
	var buf [8]byte
	for _, m := range res.Best.S {
		binary.LittleEndian.PutUint64(buf[:], uint64(m))
		h.Write(buf[:])
	}
	return fingerprint{FitnessBits: math.Float64bits(res.BestFitness), AssignHash: h.Sum64()}
}

// goldenFingerprints holds the outputs of every reproducible registered
// solver (plus single-threaded RunContext and a one-island island
// model, which runs in one goroutine) at seed 11 and a 3000 evaluation
// budget. A refactor that claims to be behaviour-preserving
// must leave every entry unchanged; a deliberate behaviour change
// updates the table and says why.
var goldenFingerprints = map[string]fingerprint{
	"RunContext-t1/u_c_hihi.0@128x8": {0x41541997450ce4dd, 0xa277d07b71efa5e4},
	"RunContext-t1/24x4":             {0x41410a85443ba4ad, 0xd7da51f83f2353e5},
	"cma-lth/u_c_hihi.0@128x8":       {0x4154472a3afd939d, 0x12fd9beadad002e5},
	"cma-lth/24x4":                   {0x41410a85443ba4ad, 0xd7da51f83f2353e5},
	"generational/u_c_hihi.0@128x8":  {0x4155bb6eeae4bded, 0x9545965386e6e3a2},
	"generational/24x4":              {0x4142aca0aeaa3250, 0x8f021acb984f6dc6},
	"h2ll/u_c_hihi.0@128x8":          {0x41543b4f7bca5917, 0x7350890f5b3abde1},
	"h2ll/24x4":                      {0x41428b3aa12c566d, 0xfac2da135534066},
	"islands-1/u_c_hihi.0@128x8":     {0x4153f17fe2925556, 0x98d1c65a28203c40},
	"islands-1/24x4":                 {0x41410a85443ba4ad, 0xd7da51f83f2353e5},
	"ljfr-sjfr/u_c_hihi.0@128x8":     {0x415946d4b1bcfd7d, 0x58eccd7cefaf57c7},
	"ljfr-sjfr/24x4":                 {0x41449d11569ef1b4, 0xda35de9a0e9879c4},
	"maxmin/u_c_hihi.0@128x8":        {0x415dfe68abe3e26c, 0x27ac51f5a4a42944},
	"maxmin/24x4":                    {0x414a7e95c18e9b28, 0x29d6c89bf2d67be5},
	"mct/u_c_hihi.0@128x8":           {0x415c563d7d046157, 0x3a88c2835f2c9ba5},
	"mct/24x4":                       {0x414582bb8e65df2e, 0x720e7ded9eaae8c5},
	"met/u_c_hihi.0@128x8":           {0x417607818c31eae2, 0x51d88627df287325},
	"met/24x4":                       {0x414dabc6dd79bb52, 0xc1edf17f2727de07},
	"minmin/u_c_hihi.0@128x8":        {0x41560a38df704fee, 0xcae680664646ea46},
	"minmin/24x4":                    {0x4143a54b43d0b589, 0xa1f579d2bac27a06},
	"olb/u_c_hihi.0@128x8":           {0x4163c6b5c3ab298c, 0x393ebc4d0540cd86},
	"olb/24x4":                       {0x41558fb9fa3b03f1, 0x956628adad16bd84},
	"struggle/u_c_hihi.0@128x8":      {0x4154e9a9c9e53535, 0x243348fc3425b4c6},
	"struggle/24x4":                  {0x414341feb2884ccb, 0x4c4255be38fde827},
	"sufferage/u_c_hihi.0@128x8":     {0x415765edde0ef4a3, 0xaabe7d2e26e416e4},
	"sufferage/24x4":                 {0x414241f001a021f0, 0x30771c3c89fbc8e7},
	"sync-cga/u_c_hihi.0@128x8":      {0x41541f5f76579a4b, 0x27bbf78a0fb947a5},
	"sync-cga/24x4":                  {0x41410a85443ba4ad, 0xd7da51f83f2353e5},
	"tabu/u_c_hihi.0@128x8":          {0x41544be50025dfb4, 0x54c2ed9b96d35005},
	"tabu/24x4":                      {0x414295a58a275d3d, 0x1a63042fd048a286},
}

// TestSolveFingerprints runs every registered solver that declares
// itself reproducible, plus RunContext at Threads: 1 and the island
// model with one island, and compares the output against
// goldenFingerprints.
func TestSolveFingerprints(t *testing.T) {
	small := solveTestInstance(t)
	braun, err := GenerateInstance("u_c_hihi.0@128x8")
	if err != nil {
		t.Fatal(err)
	}
	const seed, evals = 11, 3000
	got := map[string]fingerprint{}
	for label, in := range map[string]*Instance{"24x4": small, "u_c_hihi.0@128x8": braun} {
		for _, name := range SolverNames() {
			s, err := LookupSolver(name)
			if err != nil {
				t.Fatal(err)
			}
			if !solver.IsReproducible(s) {
				continue
			}
			res, err := Solve(name, in, SolveOptions{Budget: Budget{MaxEvaluations: evals}, Seed: seed})
			if err != nil {
				t.Fatalf("%s on %s: %v", name, label, err)
			}
			got[name+"/"+label] = fingerprintOf(res)
		}
		p := DefaultParams()
		p.Threads = 1
		p.Seed = seed
		p.MaxEvaluations = evals
		res, err := RunContext(context.Background(), in, p)
		if err != nil {
			t.Fatal(err)
		}
		got["RunContext-t1/"+label] = fingerprintOf(res)
		isl := core.DefaultIslands()
		isl.Params.Threads = 1
		isl.Params.Seed = seed
		res, err = isl.Solve(context.Background(), in, Budget{MaxEvaluations: evals})
		if err != nil {
			t.Fatal(err)
		}
		got["islands-1/"+label] = fingerprintOf(res)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		want, ok := goldenFingerprints[k]
		if !ok {
			t.Errorf("no golden fingerprint for %s: %#v", k, got[k])
			continue
		}
		if got[k] != want {
			t.Errorf("%s: fingerprint %#v, want %#v", k, got[k], want)
		}
	}
	for k := range goldenFingerprints {
		if _, ok := got[k]; !ok {
			t.Errorf("golden fingerprint %s was not produced", k)
		}
	}
}

// TestSolveGenerationsOnlyBudget submits a generations-only budget,
// directly through Solve and as a service job over HTTP. The cellular
// engines enforce it (cma-lth runs on the synchronous engine, so it
// must stop after exactly the requested generations like sync-cga);
// the steady-state Struggle GA has no generations and must reject the
// budget with a message naming the bound it cannot enforce.
func TestSolveGenerationsOnlyBudget(t *testing.T) {
	in := solveTestInstance(t)
	svc := NewService(ServiceConfig{})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	const gens = 3
	cases := []struct {
		name    string
		wantErr string // non-empty: the budget must be rejected with this in the error
	}{
		{name: "cma-lth"},
		{name: "sync-cga"},
		{name: "struggle", wantErr: "MaxGenerations"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Solve(tc.name, in, SolveOptions{Budget: Budget{MaxGenerations: gens}})
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Solve: error %v, want one naming %s", err, tc.wantErr)
				}
			} else if err != nil {
				t.Fatalf("Solve: %v", err)
			} else if res.Generations != gens || res.EffectiveBudget.MaxGenerations != gens {
				t.Fatalf("Solve: %d generations under budget %v, want %d", res.Generations, res.EffectiveBudget, gens)
			}

			body := fmt.Sprintf(`{"solver":%q,"instance":"u_i_hihi.0@24x4","budget":{"max_generations":%d}}`, tc.name, gens)
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var submitted struct {
				ID string `json:"id"`
			}
			err = json.NewDecoder(resp.Body).Decode(&submitted)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if _, err := svc.Wait(ctx, submitted.ID); err != nil {
				t.Fatal(err)
			}
			resp, err = http.Get(ts.URL + "/v1/jobs/" + submitted.ID)
			if err != nil {
				t.Fatal(err)
			}
			var job struct {
				State  string `json:"state"`
				Error  string `json:"error"`
				Result *struct {
					Generations int64 `json:"generations"`
				} `json:"result"`
			}
			err = json.NewDecoder(resp.Body).Decode(&job)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantErr != "" {
				if job.State != string(JobFailed) || !strings.Contains(job.Error, tc.wantErr) {
					t.Fatalf("HTTP job: state %s, error %q; want failed naming %s", job.State, job.Error, tc.wantErr)
				}
				return
			}
			if job.State != string(JobDone) || job.Result == nil || job.Result.Generations != gens {
				t.Fatalf("HTTP job: state %s, error %q, result %+v; want done after %d generations", job.State, job.Error, job.Result, gens)
			}
		})
	}
}
