package core

import (
	"context"
	"fmt"

	"gridsched/internal/etc"
	"gridsched/internal/rng"
	"gridsched/internal/solver"
	"gridsched/internal/topology"
)

// Islands is the island-model cellular GA: the message-passing
// parallelization the paper's survey contrasts with its shared-memory
// design (Luque, Alba & Dorronsoro's parallel cellular GAs for
// clusters). Each of Params.Threads islands evolves a private
// GridW×GridH cellular population with the PA-CGA breeding step; the
// only coupling is periodic migration of elite individuals over
// channels arranged in a directed ring. It trades the tight
// per-generation interaction of one large toroidal population for
// complete isolation plus rare, explicit communication — the same
// algorithm family at the opposite end of the coupling spectrum, which
// makes it the natural ablation for the paper's shared-memory bet.
//
// Island 0 receives the Min-min seed (unless disabled);
// Params.SeedSchedule is not used. MaxGenerations bounds each island;
// MaxEvaluations is global. PerThread holds per-island generations,
// and a recorded Diversity series samples island 0.
type Islands struct {
	Params Params
	// MigrationEvery is the number of island generations between
	// migrations; 0 never migrates.
	MigrationEvery int64
	// Migrants is how many distinct elite individuals an island sends
	// per migration.
	Migrants int
}

// DefaultIslands returns the registered island configuration: the
// Table 1 operators on 4 islands of 8×8 (the paper's 256-individual
// total), one migrant every 10 generations.
func DefaultIslands() Islands {
	p := DefaultParams()
	p.GridW, p.GridH = 8, 8
	p.Threads = 4
	return Islands{Params: p, MigrationEvery: 10, Migrants: 1}
}

// Name implements solver.Solver.
func (s Islands) Name() string { return "islands" }

// Describe implements solver.Solver.
func (s Islands) Describe() string {
	return "island-model cellular GA: private populations coupled by ring migration"
}

// WithSeed implements solver.Seeder.
func (s Islands) WithSeed(seed uint64) solver.Solver {
	s.Params.Seed = seed
	return s
}

// Reproducible implements solver.Reproducible: islands evolve
// concurrently and migrants arrive whenever the ring delivers them, so
// equal seeds reproduce bit-identical runs only with one island.
func (s Islands) Reproducible() bool { return s.Params.Threads <= 1 }

// Solve implements solver.Solver. Cancellation is checked by each
// island at generation granularity like the wall-clock deadline.
func (s Islands) Solve(ctx context.Context, inst *etc.Instance, b solver.Budget) (*solver.Result, error) {
	p := s.Params.withBudget(b).withDefaults()
	if err := s.validate(p); err != nil {
		return nil, err
	}
	grid, err := topology.NewGrid(p.GridW, p.GridH)
	if err != nil {
		return nil, err
	}

	root := rng.New(p.Seed)
	eng := solver.NewEngine(ctx, p.budget())

	// Ring channels: island i sends to (i+1) mod N. Buffers are sized
	// so a sender never blocks even if the receiver has already
	// terminated (sends are also non-blocking as a second guard).
	chans := make([]chan migrant, p.Threads)
	for i := range chans {
		chans[i] = make(chan migrant, s.Migrants*4+4)
	}
	whole := topology.Block{Start: 0, End: grid.Size()}
	pops := make([]*population, p.Threads)
	workers := make([]*worker, p.Threads)
	for i := range workers {
		r := root.Split(uint64(i) + 1)
		initRNG := r.Split(0)
		pops[i] = newPopulation(inst, grid.Size(), initRNG, i == 0 && !p.DisableMinMinSeed, nil, p.fitness)
		workers[i] = newWorker(i, pops[i], grid, whole, &p, r, initRNG, eng)
		workers[i].ring = &link{
			every:  s.MigrationEvery,
			count:  s.Migrants,
			inbox:  chans[i],
			outbox: chans[(i+1)%p.Threads],
		}
	}
	return runWorkers(eng, pops, workers), nil
}

// validate checks p as one island's parameters, then the island count
// and the migration policy.
func (s Islands) validate(p Params) error {
	islands := p.Threads
	p.Threads = 1
	if err := p.validate(); err != nil {
		return err
	}
	if islands <= 0 {
		return fmt.Errorf("core: non-positive island count %d", islands)
	}
	if s.Migrants < 0 || s.Migrants > p.GridW*p.GridH/2 {
		return fmt.Errorf("core: %d migrants out of range for a %d-cell island", s.Migrants, p.GridW*p.GridH)
	}
	if s.MigrationEvery < 0 {
		return fmt.Errorf("core: negative migration interval %d", s.MigrationEvery)
	}
	return nil
}

// migrant is one individual in flight between islands.
type migrant struct {
	assign  []int
	fitness float64
}

// link is an island's place in the migration ring.
type link struct {
	every  int64
	count  int
	inbox  <-chan migrant
	outbox chan<- migrant
}

// sendMigrants emits copies of the island's best distinct individuals
// into the ring. Sends are non-blocking: if the neighbor's buffer is
// full (or the neighbor terminated long ago), the migrant is dropped —
// migration is best-effort by design.
func (w *worker) sendMigrants() {
	for _, c := range w.pop.fittest(w.ring.count) {
		select {
		case w.ring.outbox <- w.pop.emigrant(c):
		default:
		}
	}
}

// receiveMigrants drains the inbox; each migrant replaces the island's
// worst individual if strictly better.
func (w *worker) receiveMigrants() {
	for {
		select {
		case m := <-w.ring.inbox:
			w.pop.admit(m)
		default:
			return
		}
	}
}
