package main

import (
	"fmt"
	"math"
	"time"

	"gridsched/internal/etc"
	"gridsched/internal/heuristics"
	"gridsched/internal/schedule"
)

// reference is the benchmark's own copy of one instance, built at
// set-up independently of the program's copy, with its Min-min
// schedule: the yardstick every result is checked against.
type reference struct {
	inst           *etc.Instance
	minmin         []int
	minminMakespan float64
	// class is the consistency letter (c, s or i) the per-class Min-min
	// timings are keyed by.
	class string
}

func newReference(inst *etc.Instance, class etc.Consistency) *reference {
	s := heuristics.MinMin(inst)
	return &reference{
		inst:           inst,
		class:          class.String(),
		minmin:         s.S,
		minminMakespan: s.Makespan(),
	}
}

// solution is one finished job or solve as the program reported it.
type solution struct {
	solver     string
	makespan   float64
	assignment []int
}

// minMinSeeded are the solvers whose search starts from the Min-min
// schedule and keeps it until beaten, so they can never return worse.
var minMinSeeded = map[string]bool{"pa-cga": true, "tabu": true, "h2ll": true}

// check verifies a result against the reference and returns how long
// the full recomputation (schedule.FromAssignment) took:
//   - the assignment is complete and every machine index in range;
//   - the reported makespan equals the recomputed one within the
//     tolerance Schedule.Validate allows a completion time;
//   - a minmin result matches the local Min-min bit for bit;
//   - a Min-min-seeded search is no worse than the Min-min makespan.
func check(ref *reference, res solution) (time.Duration, error) {
	in := ref.inst
	if len(res.assignment) != in.T {
		return 0, fmt.Errorf("%s on %s: assignment has %d entries, want %d", res.solver, in.Name, len(res.assignment), in.T)
	}
	counts := make([]int, in.M)
	for t, m := range res.assignment {
		if m < 0 || m >= in.M {
			return 0, fmt.Errorf("%s on %s: task %d on machine %d, want [0,%d)", res.solver, in.Name, t, m, in.M)
		}
		counts[m]++
	}
	t0 := time.Now()
	s, err := schedule.FromAssignment(in, res.assignment)
	full := time.Since(t0)
	if err != nil {
		return full, fmt.Errorf("%s on %s: %w", res.solver, in.Name, err)
	}
	want := s.Makespan()
	maxCount := 0
	for _, c := range counts {
		maxCount = max(maxCount, c)
	}
	tol := tolerance(maxCount, want, res.makespan)
	if d := math.Abs(want - res.makespan); !(d <= tol) {
		return full, fmt.Errorf("%s on %s: reported makespan %v, recomputed %v (|diff| %v > tol %v)", res.solver, in.Name, res.makespan, want, d, tol)
	}
	if res.solver == "minmin" {
		for t, m := range res.assignment {
			if m != ref.minmin[t] {
				return full, fmt.Errorf("minmin on %s: task %d on machine %d, local Min-min says %d", in.Name, t, m, ref.minmin[t])
			}
		}
		if math.Float64bits(res.makespan) != math.Float64bits(ref.minminMakespan) {
			return full, fmt.Errorf("minmin on %s: makespan %v, local Min-min %v", in.Name, res.makespan, ref.minminMakespan)
		}
	}
	if minMinSeeded[res.solver] && res.makespan > ref.minminMakespan+tol {
		return full, fmt.Errorf("%s on %s: makespan %v worse than Min-min %v", res.solver, in.Name, res.makespan, ref.minminMakespan)
	}
	return full, nil
}

// tolerance is Schedule.Validate's bound on a completion time summed
// over count tasks: (count+8)·ε·max(|a|, |b|, 1).
func tolerance(count int, a, b float64) float64 {
	peak := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return float64(count+8) * 0x1p-52 * peak
}
