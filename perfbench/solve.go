package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"gridsched"
	"gridsched/internal/etc"
	"gridsched/internal/rng"
	"gridsched/internal/solver"
)

// solve-paper: one caller making sequential library calls. For each of
// the 12 Braun classes at the paper's 512×16 (the instance index drawn
// from the seed): pa-cga with Table 1 parameters at two threads, tabu
// and h2ll, each at a fixed evaluation budget sized so the three take
// about the same wall time. Then the Fig. 4 pair on u_i_hihi.0: pa-cga
// at one and at two threads. The solvers run on views of an instdb
// store built at set-up; every result is checked against a copy the
// benchmark generates itself. Breeding, H2LL and the incremental
// makespan kernels dominate; the service is not involved. The racing
// portfolio is left out: its run time swings several-fold on one
// instance at a fixed budget.
const (
	paperGAEvals   = 4000
	paperTabuEvals = 20000
	paperH2LLEvals = 30000
	paperFig4Evals = 4000
	paperTailQ     = 0.9
)

// paperSolve is one call of the sweep.
type paperSolve struct {
	solver  string
	threads int // pa-cga only
	evals   int64
	inst    *etc.Instance // the instance store's view
	ref     *reference    // the benchmark's own copy, for the checks
	fig4    bool
}

// solveRecord is what one call measured.
type solveRecord struct {
	paperSolve
	wall        time.Duration
	evals       int64
	moves       int64
	quality     float64
	fullEval    time.Duration
	init        time.Duration // traced: call → first improvement
	searchEvals int64
	scale       float64 // host calibration around the call
}

// firstImprovement is the observer of a traced solve: it notes when and
// at what evaluation count the first Improved event fired.
type firstImprovement struct {
	once  sync.Once
	at    time.Time
	evals int64
}

func (f *firstImprovement) Improved(ev solver.Event) {
	f.once.Do(func() { f.at, f.evals = time.Now(), ev.Evals })
}

func (f *firstImprovement) Done(solver.Event) {}

func runSolvePaper(o runOptions) (*outcome, error) {
	out := newOutcome()
	sweep, err := setUp(o, out, func(log *setupLog) ([]paperSolve, error) {
		r := rng.New(o.seed)
		classes := etc.AllClasses()
		for i := range classes {
			classes[i].Index = r.Intn(10)
		}
		fig4 := etc.Class{Consistency: etc.Inconsistent, TaskHet: etc.High, MachineHet: etc.High}
		var names []string
		for _, cl := range append(classes, fig4) {
			if !slices.Contains(names, cl.Name()) {
				names = append(names, cl.Name())
			}
		}
		store, err := log.store(names)
		if err != nil {
			return nil, err
		}
		// instance pairs the store's view of a class's instance, which
		// the solvers run on, with the benchmark's own generated copy.
		instance := func(cl etc.Class) (*etc.Instance, *reference, error) {
			t0 := time.Now()
			own, err := etc.GenerateByName(cl.Name())
			if err != nil {
				return nil, nil, err
			}
			log.timed("etc.generate", t0)
			inst, _ := store.Get(cl.Name())
			return inst, log.reference(own, cl.Consistency), nil
		}
		var sweep []paperSolve
		for _, cl := range classes {
			inst, ref, err := instance(cl)
			if err != nil {
				return nil, err
			}
			sweep = append(sweep,
				paperSolve{solver: "pa-cga", threads: 2, evals: paperGAEvals, inst: inst, ref: ref},
				paperSolve{solver: "tabu", evals: paperTabuEvals, inst: inst, ref: ref},
				paperSolve{solver: "h2ll", evals: paperH2LLEvals, inst: inst, ref: ref})
		}
		inst, ref, err := instance(fig4)
		if err != nil {
			return nil, err
		}
		return append(sweep,
			paperSolve{solver: "pa-cga", threads: 1, evals: paperFig4Evals, inst: inst, ref: ref, fig4: true},
			paperSolve{solver: "pa-cga", threads: 2, evals: paperFig4Evals, inst: inst, ref: ref, fig4: true}), nil
	}, func([]paperSolve) {})
	if err != nil {
		return nil, err
	}

	r := rng.New(o.seed ^ 0x5eed)
	// run makes whole sweeps only, so every phase weighs the solvers
	// alike: it starts another sweep while that is expected to end
	// inside d.
	run := func(sweep []paperSolve, d time.Duration, rec *recorder) *paperPhase {
		ph := &paperPhase{}
		ph.use.begin()
		start := time.Now()
		var last time.Duration
		before := hostScale(3)
		for ph.elapsed == 0 || ph.elapsed+last <= d {
			s0 := time.Now()
			for _, ps := range sweep {
				sr, err := solveOne(ps, r.Uint64()>>1|1, rec)
				out.attempted++
				after := hostScale(3)
				sr.scale = (before + after) / 2
				before = after
				if err != nil {
					out.fail(err)
					continue
				}
				ph.recs = append(ph.recs, sr)
				ph.use.sample()
			}
			last = time.Since(s0)
			ph.elapsed = time.Since(start)
		}
		ph.use.end()
		return ph
	}

	run(sweep[:3], 0, nil) // warm-up: one call per solver family
	runtime.GC()
	d := o.window
	if o.traced {
		d /= 2
	}
	plain := run(sweep, d, nil)
	plain.metrics(out.metrics, true)
	out.notef("job_tail_ms is p%g of %d solves (%d beyond it)", 100*paperTailQ, len(plain.recs), beyond(len(plain.recs), paperTailQ))
	if o.traced {
		runtime.GC()
		traced := run(sweep, d, o.rec)
		traced.metrics(out.metrics, false)
		tm := map[string]float64{}
		traced.metrics(tm, true)
		out.metrics["trace.overhead"] = ratio(tm["job_p50_ms"], out.metrics["job_p50_ms"])
		out.metrics["trace.unattributed_ms.p50"] = quantile(o.rec.breakdown("solve").unattributed, 0.5)
	}
	return out, nil
}

// paperPhase is one measured stretch of sweeps.
type paperPhase struct {
	recs    []solveRecord
	elapsed time.Duration
	use     usage
}

// solveOne makes one library call and checks its result. Traced, it
// attaches an observer through solver.WithObserver and records the
// call split at the first improvement into solve.init and solve.search.
func solveOne(ps paperSolve, seed uint64, rec *recorder) (solveRecord, error) {
	sr := solveRecord{paperSolve: ps}
	traced := rec != nil
	ctx := context.Background()
	var first *firstImprovement
	if traced {
		first = &firstImprovement{}
		ctx = solver.WithObserver(ctx, first)
	}
	inst := ps.inst
	var res *gridsched.SolverResult
	var err error
	t0 := time.Now()
	if ps.solver == "pa-cga" {
		p := gridsched.DefaultParams()
		p.Threads = ps.threads
		p.MaxEvaluations = ps.evals
		p.Seed = seed
		res, err = gridsched.RunContext(ctx, inst, p)
	} else {
		res, err = gridsched.Solve(ps.solver, inst, gridsched.SolveOptions{
			Context: ctx,
			Budget:  gridsched.Budget{MaxEvaluations: ps.evals},
			Seed:    seed,
		})
	}
	t1 := time.Now()
	sr.wall = t1.Sub(t0)
	if err != nil {
		return sr, fmt.Errorf("%s on %s: %w", ps.solver, inst.Name, err)
	}
	if res.Best == nil {
		return sr, fmt.Errorf("%s on %s: no schedule", ps.solver, inst.Name)
	}
	sr.evals, sr.moves = res.Evaluations, res.LocalSearchMoves
	sr.quality = res.BestFitness / ps.ref.minminMakespan
	id := int64(seed)
	if traced {
		if first.at.IsZero() {
			return sr, fmt.Errorf("%s on %s: no improvement observed", ps.solver, inst.Name)
		}
		sr.init, sr.searchEvals = first.at.Sub(t0), res.Evaluations-first.evals
		t := rec.root("solve", id, t0, t1)
		rec.child(t, "solve.init", 0, t0, first.at)
		rec.child(t, "solve.search", 0, first.at, t1)
		rec.commit(t)
	}
	c0 := time.Now()
	sr.fullEval, err = check(ps.ref, solution{solver: ps.solver, makespan: res.BestFitness, assignment: res.Best.S})
	if traced {
		rec.commit(rec.root("check", id, c0, time.Now()))
	}
	return sr, err
}

// metrics turns the phase's solves into the end-to-end metrics
// (host-scaled, with the raw figures beside them for the report) or the
// per-layer ones (raw). A "job" here is one call, so jobs_per_s is
// calls per second of call time.
func (ph *paperPhase) metrics(m map[string]float64, e2e bool) {
	var wall, rawWall, full, quality []float64
	var evals, moves int64
	var wallSum, rawSum float64
	fam := map[string]*family{}
	type fig4 struct {
		evals int64
		wall  time.Duration
	}
	threads := map[int]*fig4{1: {}, 2: {}}
	for _, r := range ph.recs {
		wall = append(wall, ms(r.wall)*r.scale)
		wallSum += r.wall.Seconds() * r.scale
		rawWall = append(rawWall, ms(r.wall))
		rawSum += r.wall.Seconds()
		full = append(full, float64(r.fullEval)/float64(time.Microsecond))
		evals += r.evals
		moves += r.moves
		if r.fig4 {
			threads[r.threads].evals += r.evals
			threads[r.threads].wall += r.wall
			continue
		}
		quality = append(quality, r.quality)
		f := fam[r.solver]
		if f == nil {
			f = &family{}
			fam[r.solver] = f
		}
		f.init = append(f.init, ms(r.init))
		f.searchEvals += r.searchEvals
		f.searchTime += r.wall - r.init
	}
	n := float64(len(ph.recs))
	if e2e {
		m["jobs_per_s"] = ratio(n, wallSum)
		m["job_p50_ms"] = quantile(wall, 0.5)
		m["job_tail_ms"] = quantile(wall, paperTailQ)
		m["raw.jobs_per_s"] = ratio(n, rawSum)
		m["raw.job_p50_ms"] = quantile(rawWall, 0.5)
		m["raw.job_tail_ms"] = quantile(rawWall, paperTailQ)
		m["host.scale"] = ratio(wallSum, rawSum)
		ph.use.metrics(m, int64(len(ph.recs)), true)
		return
	}
	m["solver.evals_per_s"] = ratio(float64(evals), rawSum)
	ph.use.metrics(m, int64(len(ph.recs)), false)
	for solver, f := range fam {
		f.metrics(m, familyName[solver], paperTailQ)
	}
	t1 := ratio(float64(threads[1].evals), threads[1].wall.Seconds())
	t2 := ratio(float64(threads[2].evals), threads[2].wall.Seconds())
	m["core.pacga.evals_per_s.t1"] = t1
	m["core.pacga.evals_per_s.t2"] = t2
	m["core.pacga.speedup_2t"] = ratio(t2, t1)
	m["solve.makespan_ratio"] = geomean(quality)
	m["operators.ls_moves_per_eval"] = ratio(float64(moves), float64(evals))
	m["schedule.evals_per_op"] = ratio(float64(evals), float64(len(ph.recs)))
	m["schedule.full_eval_us"] = quantile(full, 0.5)
}
