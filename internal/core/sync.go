package core

import (
	"context"

	"gridsched/internal/etc"
	"gridsched/internal/rng"
	"gridsched/internal/schedule"
	"gridsched/internal/solver"
	"gridsched/internal/topology"
)

// RunSyncContext executes the synchronous cellular GA model of §3.1:
// every generation, all offspring are produced against the current
// population and placed in an auxiliary population, which then
// replaces the current one at once. It is single-threaded
// (Params.Threads is ignored) and serves as the async-vs-sync ablation
// and as the substrate for the cellular memetic baseline. Context
// cancellation is checked at generation granularity like the
// wall-clock deadline.
func RunSyncContext(ctx context.Context, inst *etc.Instance, p Params) (*Result, error) {
	p = p.withDefaults()
	p.Threads = 1
	if err := p.validate(); err != nil {
		return nil, err
	}
	grid, err := topology.NewGrid(p.GridW, p.GridH)
	if err != nil {
		return nil, err
	}

	eng := solver.NewEngine(ctx, p.budget()) // init is charged to the budget
	root := rng.New(p.Seed)
	initRNG := root.Split(0)
	pop := newPopulation(inst, grid.Size(), initRNG, !p.DisableMinMinSeed, p.SeedSchedule, p.fitness)
	w := newWorker(0, pop, grid, topology.Block{Start: 0, End: grid.Size()}, &p, root.Split(1), initRNG, eng)
	// The generation buffer: offspring and their fitness, laid out as
	// one arena so the install sweep copies between contiguous planes.
	w.aux = schedule.NewArena(inst, grid.Size())
	w.auxFit = make([]float64, grid.Size())
	return runWorkers(eng, []*population{pop}, []*worker{w}), nil
}
