package core

import (
	"context"
	"math"
	"sync"

	"gridsched/internal/etc"
	"gridsched/internal/operators"
	"gridsched/internal/rng"
	"gridsched/internal/schedule"
	"gridsched/internal/solver"
	"gridsched/internal/topology"
)

// Result reports the outcome of a cellular engine run (PA-CGA, the
// synchronous CGA or the island model). It is the solver layer's
// common result shape: the Convergence entry g averages every block's
// mean at its own generation g, weighted by block size (falling back to
// a block's final value once that worker has stopped), and Diversity is
// sampled over the whole population by the first worker (per-block
// diversity would under-report: blocks deliberately niche into
// different search-space regions).
type Result = solver.Result

// RunContext executes PA-CGA (Algorithms 2–3) on the instance and
// returns the result. It spawns Params.Threads worker goroutines, each
// evolving its contiguous block of the one shared population
// asynchronously until a stop condition fires: the earliest of the
// params' stop conditions and ctx's cancellation, checked at the same
// coarse granularity as the wall-clock deadline.
func RunContext(ctx context.Context, inst *etc.Instance, p Params) (*Result, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	grid, err := topology.NewGrid(p.GridW, p.GridH)
	if err != nil {
		return nil, err
	}
	blocks, err := topology.Partition(grid.Size(), p.Threads)
	if err != nil {
		return nil, err
	}

	// The budget clock starts before population init, so the Min-min
	// seed and the random draws are charged to the wall budget.
	eng := solver.NewEngine(ctx, p.budget())
	root := rng.New(p.Seed)
	pop := newPopulation(inst, grid.Size(), root.Split(0), !p.DisableMinMinSeed, p.SeedSchedule, p.fitness)
	workers := make([]*worker, p.Threads)
	for i := range workers {
		r := root.Split(uint64(i) + 1)
		workers[i] = newWorker(i, pop, grid, blocks[i], &p, r, r.Split(0), eng)
	}
	return runWorkers(eng, []*population{pop}, workers), nil
}

// worker owns one population block, its RNG stream and its reusable
// breeding workspaces; it implements Algorithm 3. Its replacement
// policy is the engine's: by default each offspring replaces its cell
// at once under the write lock (PA-CGA and every island); with a
// generation buffer (aux, the synchronous engine) the whole generation
// installs after the sweep. An island's worker also exchanges migrants
// over its ring link.
type worker struct {
	id      int
	block   topology.Block
	grid    topology.Grid
	pop     *population
	params  *Params
	r       *rng.Rand
	sweeper *topology.Sweeper
	eng     *solver.Engine

	p1, p2, child *schedule.Schedule
	neigh         []int
	cands         []operators.Candidate
	scratch       schedule.Scratch
	lsMoves       int64

	// aux and auxFit buffer a synchronous generation's offspring.
	aux    *schedule.Arena
	auxFit []float64
	// ring links an island to its ring neighbors; nil outside the island
	// model.
	ring *link

	gens     int64
	conv     []float64
	div      []float64
	divCount []int
}

// newWorker builds the worker for block of pop. Breeding draws from r;
// the sweeper (random visiting orders only) draws from sweepRNG.
func newWorker(id int, pop *population, grid topology.Grid, block topology.Block, p *Params, r, sweepRNG *rng.Rand, eng *solver.Engine) *worker {
	inst := pop.arena.Inst()
	return &worker{
		id:      id,
		block:   block,
		grid:    grid,
		pop:     pop,
		params:  p,
		r:       r,
		sweeper: topology.NewSweeper(p.Sweep, block, sweepRNG),
		eng:     eng,
		p1:      schedule.New(inst),
		p2:      schedule.New(inst),
		child:   schedule.New(inst),
		neigh:   make([]int, 0, p.Neighborhood.Size()),
		cands:   make([]operators.Candidate, 0, p.Neighborhood.Size()),
	}
}

// runWorkers charges the initial evaluations, evolves the workers
// concurrently until a stop condition fires and assembles the result.
// pops are the populations the workers breed in: one shared by every
// block, or one per island.
func runWorkers(eng *solver.Engine, pops []*population, workers []*worker) *Result {
	p := workers[0].params
	initEvals := 0
	for _, pop := range pops {
		initEvals += pop.size()
	}
	eng.AddEvals(int64(initEvals)) // initial_evaluation of Algorithm 2
	if eng.Observing() {
		// Seed the convergence trace with the initial population's best,
		// so the first breeding-step improvement is measured against it.
		best := math.Inf(1)
		for _, pop := range pops {
			_, f := pop.bestIndex()
			best = math.Min(best, f)
		}
		eng.Observe(best)
	}

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.evolve()
		}(w)
	}
	wg.Wait()

	res := &Result{
		Evaluations:     eng.Evals(),
		Duration:        eng.Elapsed(),
		EffectiveBudget: eng.EffectiveBudget(),
		PerThread:       make([]int64, len(workers)),
	}
	for i, w := range workers {
		res.PerThread[i] = w.gens
		res.Generations += w.gens
		res.LocalSearchMoves += w.lsMoves
	}
	for _, pop := range pops {
		if s, f := pop.best(); res.Best == nil || f < res.BestFitness {
			res.Best, res.BestFitness = s, f
		}
	}
	eng.Finish(res.BestFitness)
	if p.RecordConvergence {
		res.Convergence = aggregateSeries(workers, func(w *worker) []float64 { return w.conv })
	}
	if p.RecordDiversity {
		res.Diversity = append([]float64(nil), workers[0].div...)
	}
	return res
}

// evolve runs block sweeps until a stop condition fires. Matching the
// paper, the wall-clock condition (and context cancellation) is checked
// once per sweep (§3.2 explicitly accepts the overshoot); the
// evaluation budget is checked per breeding step so tests can rely on
// tight budgets.
func (w *worker) evolve() {
	p := w.params
	for {
		if w.eng.StopSweep(w.gens) {
			return
		}
		if w.ring != nil {
			w.receiveMigrants()
		}
		order := w.sweeper.Order()
		for i, cell := range order {
			if w.eng.EvalsExhausted() {
				// A synchronous generation cut short still installs the
				// offspring bred so far, and its records must show it.
				if w.aux != nil && i > 0 {
					w.install(order[:i])
					w.endGeneration()
				}
				return
			}
			if w.aux != nil {
				w.auxFit[cell] = w.breed(cell, w.aux.At(cell))
			} else {
				fit := w.breed(cell, w.child)
				w.pop.replaceIf(cell, p.Replacement, w.child, fit)
			}
		}
		if w.aux != nil {
			w.install(order)
		}
		w.endGeneration()
		if w.ring != nil && w.ring.every > 0 && w.gens%w.ring.every == 0 {
			w.sendMigrants()
		}
	}
}

// install replaces each of cells whose buffered offspring the
// replacement policy accepts. The population is unchanged since the
// offspring were bred, so the policy sees the fitness they were bred
// against.
func (w *worker) install(cells []int) {
	for _, c := range cells {
		w.pop.replaceIf(c, w.params.Replacement, w.aux.At(c), w.auxFit[c])
	}
}

// endGeneration counts a finished generation and samples the records.
func (w *worker) endGeneration() {
	p := w.params
	w.gens++
	if p.RecordConvergence {
		w.conv = append(w.conv, w.pop.meanFitnessRange(w.block.Start, w.block.End))
	}
	// Diversity must be measured over the whole population: blocks
	// niche into different regions (that is the point of the
	// partition), so per-block diversity would under-report. Worker 0
	// samples its population at its own generation boundaries, reading
	// other blocks under their read locks.
	if p.RecordDiversity && w.id == 0 {
		var d float64
		w.divCount, d = w.pop.blockDiversity(0, w.pop.size(), w.divCount)
		w.div = append(w.div, d)
	}
}

// breed writes cell's offspring into child and returns its fitness: one
// breeding loop iteration of Algorithm 3 (lines 3–8), shared by every
// cellular engine. Replacement is left to the caller.
func (w *worker) breed(cell int, child *schedule.Schedule) float64 {
	p := w.params

	// get_neighborhood: cells whose individuals may mate with this one.
	// The neighborhood may cross block boundaries; those reads are what
	// the per-individual locks protect.
	w.neigh = p.Neighborhood.Neighbors(w.grid, cell, w.neigh)

	// select: fitness reads under read locks, then the chosen parents
	// are snapshotted (copied out) so crossover never touches shared
	// memory.
	w.cands = w.cands[:0]
	for _, c := range w.neigh {
		w.cands = append(w.cands, operators.Candidate{Cell: c, Fitness: w.pop.fitness(c)})
	}
	i1, i2 := p.Selector.Select(w.cands, w.r)
	w.pop.snapshotInto(w.cands[i1].Cell, w.p1)
	if i2 == i1 {
		w.p2.CopyFrom(w.p1)
	} else {
		w.pop.snapshotInto(w.cands[i2].Cell, w.p2)
	}

	// recombine with probability p_comb, otherwise the offspring starts
	// as a copy of the first parent.
	if w.r.Bool(p.CrossProb) {
		p.Crossover.Cross(child, w.p1, w.p2, w.r)
	} else {
		child.CopyFrom(w.p1)
	}

	// mutate with probability p_mut.
	if w.r.Bool(p.MutProb) {
		p.Mutation.Mutate(child, w.r)
	}

	// local search (H2LL) with probability p_ser.
	if p.LocalProb > 0 && w.r.Bool(p.LocalProb) {
		w.lsMoves += int64(p.Local.Apply(child, w.r))
	}

	// evaluate: the default makespan objective is an O(1) read of the
	// indexed completion times; the flowtime-weighted objective runs
	// through this worker's scratch arena.
	fit := p.fitnessWith(child, &w.scratch)
	w.eng.AddEvals(1)
	w.eng.Observe(fit)
	return fit
}

// aggregateSeries merges per-worker generation series into a
// population-wide mean per generation index. Blocks weigh by their size;
// a worker that stopped before generation g contributes its final value,
// so the series stays a population mean rather than drifting toward the
// surviving blocks. A lone worker's series is returned as recorded.
func aggregateSeries(workers []*worker, get func(*worker) []float64) []float64 {
	if len(workers) == 1 {
		return append([]float64(nil), get(workers[0])...)
	}
	maxLen := 0
	for _, w := range workers {
		if n := len(get(w)); n > maxLen {
			maxLen = n
		}
	}
	if maxLen == 0 {
		return nil
	}
	out := make([]float64, maxLen)
	total := 0
	for _, w := range workers {
		total += w.block.Len()
	}
	for g := 0; g < maxLen; g++ {
		sum := 0.0
		for _, w := range workers {
			series := get(w)
			var v float64
			switch {
			case len(series) == 0:
				continue
			case g < len(series):
				v = series[g]
			default:
				v = series[len(series)-1]
			}
			sum += v * float64(w.block.Len())
		}
		out[g] = sum / float64(total)
	}
	return out
}
