package core

import (
	"context"
	"slices"
	"testing"

	"gridsched/internal/heuristics"
	"gridsched/internal/operators"
	"gridsched/internal/schedule"
	"gridsched/internal/solver"
)

// islandsWith returns the registered island configuration with the
// given seed, after applying mutate.
func islandsWith(seed uint64, mutate func(*Islands)) Islands {
	s := DefaultIslands()
	s.Params.Seed = seed
	if mutate != nil {
		mutate(&s)
	}
	return s
}

func runIslands(t testing.TB, s Islands, seed uint64, b solver.Budget) *Result {
	t.Helper()
	res, err := s.Solve(context.Background(), testInstance(t, seed), b)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDefaultIslandsRegistered(t *testing.T) {
	s := DefaultIslands()
	p := s.Params
	if p.Threads != 4 || p.GridW != 8 || p.GridH != 8 || s.MigrationEvery != 10 || s.Migrants != 1 || p.DisableMinMinSeed {
		t.Fatalf("DefaultIslands = %d islands of %dx%d, migrate %d every %d, no Min-min %v; want 4 of 8x8, 1 every 10, Min-min seeded",
			p.Threads, p.GridW, p.GridH, s.Migrants, s.MigrationEvery, p.DisableMinMinSeed)
	}
	reg, err := solver.Lookup("islands")
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := reg.(Islands); !ok || got.Params.Threads != 4 || got.MigrationEvery != 10 || got.Migrants != 1 {
		t.Fatalf("registered islands solver %#v is not DefaultIslands", reg)
	}
}

func TestIslandsBasic(t *testing.T) {
	res := runIslands(t, islandsWith(1, nil), 1, solver.Budget{MaxGenerations: 10})
	if !res.Best.Complete() {
		t.Fatal("incomplete best")
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.Best.Makespan() != res.BestFitness {
		t.Fatal("fitness/schedule mismatch")
	}
	if len(res.PerThread) != 4 {
		t.Fatalf("PerThread %v, want 4 islands", res.PerThread)
	}
}

func TestIslandsGenerationBudgetPerIsland(t *testing.T) {
	s := islandsWith(3, func(s *Islands) { s.Params.Threads = 3 })
	res := runIslands(t, s, 2, solver.Budget{MaxGenerations: 7})
	for i, g := range res.PerThread {
		if g != 7 {
			t.Fatalf("island %d ran %d generations, want 7", i, g)
		}
	}
	// 3 islands × 64 cells initial + 3 × 7 × 64 breedings.
	if want := int64(3*64 + 3*7*64); res.Evaluations != want {
		t.Fatalf("evaluations %d, want %d", res.Evaluations, want)
	}
}

func TestIslandsEvaluationBudget(t *testing.T) {
	res := runIslands(t, islandsWith(5, nil), 3, solver.Budget{MaxEvaluations: 2000})
	// Budget checked per breeding step; overshoot bounded by islands-1.
	if res.Evaluations > 2000+4 {
		t.Fatalf("evaluations %d overshot 2000", res.Evaluations)
	}
}

func TestIslandsValidation(t *testing.T) {
	in := testInstance(t, 4)
	if _, err := islandsWith(1, nil).Solve(context.Background(), in, solver.Budget{}); err == nil {
		t.Fatal("missing stop condition accepted")
	}
	for i, mutate := range []func(*Islands){
		func(s *Islands) { s.Params.Threads = -1 },                  // bad island count
		func(s *Islands) { s.Params.GridW, s.Params.GridH = -1, 2 }, // bad grid
		func(s *Islands) { s.Migrants = 1000 },                      // too many migrants
		func(s *Islands) { s.Params.CrossProb = 2 },                 // bad probability
		func(s *Islands) { s.MigrationEvery = -1 },                  // negative interval
	} {
		if _, err := islandsWith(1, mutate).Solve(context.Background(), in, solver.Budget{MaxGenerations: 1}); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	// The island count is not bounded by one island's cell count.
	many := islandsWith(1, func(s *Islands) {
		s.Params.Threads = 6
		s.Params.GridW, s.Params.GridH = 2, 2
	})
	if _, err := many.Solve(context.Background(), in, solver.Budget{MaxGenerations: 1}); err != nil {
		t.Fatalf("6 islands of 2x2 rejected: %v", err)
	}
}

func TestIslandsImprovesWithBudget(t *testing.T) {
	short := runIslands(t, islandsWith(7, nil), 5, solver.Budget{MaxGenerations: 1})
	long := runIslands(t, islandsWith(7, nil), 5, solver.Budget{MaxGenerations: 40})
	if long.BestFitness > short.BestFitness {
		t.Fatalf("more generations made things worse: %v -> %v", short.BestFitness, long.BestFitness)
	}
}

func TestIslandsBeatMinMinSeed(t *testing.T) {
	// The island engine is timing-dependent — migrant arrival order
	// varies run to run (Reproducible reports false) — so one seed's
	// generations may or may not find an improvement when
	// instrumentation skews goroutine scheduling (-race). Elite
	// preservation is deterministic, so "never worse than the Min-min
	// seed" must hold on every run; strict improvement is asserted
	// across a few independent seeds.
	in := testInstance(t, 6)
	mm := heuristics.MinMin(in).Makespan()
	improved := false
	for seed := uint64(9); seed < 12 && !improved; seed++ {
		res, err := islandsWith(seed, nil).Solve(context.Background(), in, solver.Budget{MaxGenerations: 60})
		if err != nil {
			t.Fatal(err)
		}
		if res.BestFitness > mm {
			t.Fatalf("islands with seed %d (%v) lost its Min-min elite (%v)", seed, res.BestFitness, mm)
		}
		improved = res.BestFitness < mm
	}
	if !improved {
		t.Fatalf("islands never improved on Min-min (%v) across 3 seeds", mm)
	}
}

func TestMigrationSpreadsEliteAcrossIslands(t *testing.T) {
	// With migration, the Min-min-derived elite of island 0 should reach
	// the other islands; without, islands evolve blind. Compare overall
	// best with migration on vs off over the same budget — migration
	// should not hurt, and usually helps (allow equality, forbid a
	// meaningful regression).
	with := runIslands(t, islandsWith(11, func(s *Islands) { s.MigrationEvery = 5 }), 7, solver.Budget{MaxGenerations: 40})
	without := runIslands(t, islandsWith(11, func(s *Islands) { s.MigrationEvery = 0 }), 7, solver.Budget{MaxGenerations: 40})
	if with.BestFitness > without.BestFitness*1.05 {
		t.Fatalf("migration made results >5%% worse: %v vs %v", with.BestFitness, without.BestFitness)
	}
}

func TestSingleIsland(t *testing.T) {
	// One island degenerates to a plain asynchronous cellular GA; the
	// ring points at itself and must not deadlock.
	s := islandsWith(13, func(s *Islands) {
		s.Params.Threads = 1
		s.MigrationEvery = 3
	})
	res := runIslands(t, s, 8, solver.Budget{MaxGenerations: 15})
	if err := res.Best.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestManySmallIslands(t *testing.T) {
	s := islandsWith(15, func(s *Islands) {
		s.Params.Threads = 8
		s.Params.GridW, s.Params.GridH = 4, 4
		s.MigrationEvery = 2
		s.Migrants = 2
	})
	res := runIslands(t, s, 9, solver.Budget{MaxGenerations: 10})
	if len(res.PerThread) != 8 {
		t.Fatalf("%d islands reported", len(res.PerThread))
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestIslandsCountLocalSearchMoves pins that the island model reports
// the H2LL moves its breeding step makes, like the other cellular
// engines.
func TestIslandsCountLocalSearchMoves(t *testing.T) {
	one := islandsWith(11, func(s *Islands) { s.Params.Threads = 1 })
	res := runIslands(t, one, 13, solver.Budget{MaxEvaluations: 3000})
	if res.LocalSearchMoves == 0 {
		t.Fatal("islands reported zero H2LL moves at LocalProb 1")
	}
	one.Params.Local = operators.H2LL{Iterations: 0}
	if res := runIslands(t, one, 13, solver.Budget{MaxEvaluations: 3000}); res.LocalSearchMoves != 0 {
		t.Fatalf("0-iteration H2LL reported %d moves", res.LocalSearchMoves)
	}
}

// TestSendMigrantsDistinctElites reads an island's outbox after one
// migration with three migrants: it must hold the three fittest cells,
// best first, not three copies of the best.
func TestSendMigrantsDistinctElites(t *testing.T) {
	in := testInstance(t, 14)
	pop := newPopulation(in, 16, rngForTest(3), false, nil, func(s *schedule.Schedule) float64 { return s.Makespan() })
	out := make(chan migrant, 16)
	w := &worker{pop: pop, ring: &link{count: 3, outbox: out}}
	w.sendMigrants()
	close(out)

	order := make([]int, pop.size())
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		switch fa, fb := pop.fit[a], pop.fit[b]; {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		}
		return 0
	})
	k := 0
	for m := range out {
		want := order[k]
		if m.fitness != pop.fit[want] || !slices.Equal(m.assign, pop.arena.At(want).S) {
			t.Fatalf("migrant %d has fitness %v, want cell %d's %v", k, m.fitness, want, pop.fit[want])
		}
		k++
	}
	if k != 3 {
		t.Fatalf("%d migrants sent, want 3", k)
	}
}

func BenchmarkIslands4x64(b *testing.B) {
	in := testInstance(b, 1)
	for i := 0; i < b.N; i++ {
		s := islandsWith(uint64(i), nil)
		if _, err := s.Solve(context.Background(), in, solver.Budget{MaxEvaluations: 4000}); err != nil {
			b.Fatal(err)
		}
	}
}
