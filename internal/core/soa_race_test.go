package core

import (
	"testing"
)

// TestSoAPopulationConcurrentWorkers hammers the structure-of-arrays
// population under the race detector: four asynchronous workers breed
// over adjacent slices of the shared assignment, fitness and
// completion-time planes while convergence and diversity recording read
// whole blocks concurrently. Any lock-discipline hole the contiguous
// layout opened (adjacent cells share cache lines and backing arrays)
// shows up as a -race report here.
func TestSoAPopulationConcurrentWorkers(t *testing.T) {
	in := stressInstance(t, 9)
	p := DefaultParams()
	p.GridW, p.GridH = 8, 8
	p.Threads = 4
	p.Seed = 77
	p.MaxEvaluations = 6000
	p.RecordConvergence = true
	p.RecordDiversity = true
	res, err := run(in, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatalf("corrupt best schedule: %v", err)
	}
	if res.BestFitness <= 0 {
		t.Fatalf("nonpositive best fitness %v", res.BestFitness)
	}
}
