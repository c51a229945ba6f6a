package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"gridsched/internal/etc"
	"gridsched/internal/instdb"
	"gridsched/internal/rng"
	"gridsched/internal/service"
)

// runOptions are the command's arguments to one workload run.
type runOptions struct {
	seed   uint64
	window time.Duration
	traced bool
	rec    *recorder // nil when tracing is off
}

// workloads run from the seed, check every output and measure.
var workloads = map[string]func(runOptions) (*outcome, error){
	"solve-paper":     runSolvePaper,
	"deadline-inline": runDeadlineInline,
}

// setupRepeats is how many times a run builds its inputs; setup_s is
// the median, so a one-off stall does not read as a regression.
const setupRepeats = 3

// setupLog collects the layer timings taken while building inputs, in
// milliseconds by layer name, and records each as a span of the
// set-up tree.
type setupLog struct {
	rec   *recorder
	t     *tree
	times map[string][]float64
}

func (s *setupLog) timed(name string, t0 time.Time) {
	t1 := time.Now()
	s.times[name] = append(s.times[name], ms(t1.Sub(t0)))
	s.rec.child(s.t, name, 0, t0, t1)
}

// reference builds the benchmark's own Min-min reference, timed per
// consistency class.
func (s *setupLog) reference(inst *etc.Instance, class etc.Consistency) *reference {
	t0 := time.Now()
	ref := newReference(inst, class)
	t1 := time.Now()
	key := "heuristics.minmin_ms." + ref.class
	s.times[key] = append(s.times[key], ms(t1.Sub(t0)))
	s.rec.child(s.t, "heuristics.minmin", 0, t0, t1)
	return ref
}

// store builds an instdb store of the named instances, decodes it and
// times Store.Get over it.
func (s *setupLog) store(names []string) (*instdb.Store, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	if _, err := instdb.Build(&buf, names); err != nil {
		return nil, err
	}
	s.timed("instdb.build", t0)
	t0 = time.Now()
	db, err := instdb.Decode(buf.Bytes())
	if err != nil {
		return nil, err
	}
	s.timed("instdb.decode", t0)
	const gets = 1000
	t0 = time.Now()
	for i := range gets {
		if _, ok := db.Get(names[i%len(names)]); !ok {
			return nil, fmt.Errorf("store lost %s", names[i%len(names)])
		}
	}
	s.times["instdb.get"] = append(s.times["instdb.get"], ms(time.Since(t0))/gets)
	return db, nil
}

// setUp builds a workload's inputs setupRepeats times, tears down every
// state but the last, and records setup_s (host-scaled) and the set-up
// layer metrics.
func setUp[S any](o runOptions, out *outcome, build func(*setupLog) (S, error), teardown func(S)) (S, error) {
	log := &setupLog{rec: o.rec, times: map[string][]float64{}}
	var durs []float64
	var st S
	for i := range setupRepeats {
		if i > 0 {
			teardown(st)
		}
		runtime.GC()
		before := hostScale(7)
		t0 := time.Now()
		log.t = o.rec.root("setup", int64(i), t0, t0)
		var err error
		if st, err = build(log); err != nil {
			return st, fmt.Errorf("set-up: %w", err)
		}
		t1 := time.Now()
		durs = append(durs, t1.Sub(t0).Seconds()*(before+hostScale(7))/2)
		if log.t != nil {
			log.t.spans[0].End = t1.Sub(o.rec.base).Nanoseconds()
			o.rec.commit(log.t)
		}
	}
	out.metrics["setup_s"] = quantile(durs, 0.5)
	if o.traced {
		for name, xs := range log.times {
			switch name {
			case "instdb.decode":
				out.metrics["instdb.decode_ms"] = quantile(xs, 0.5)
			case "instdb.get":
				out.metrics["instdb.get_ns.p50"] = quantile(xs, 0.5) * 1e6
			case "etc.new", "etc.generate":
				out.metrics[name+"_ms.p50"] = quantile(xs, 0.5)
			case "heuristics.minmin_ms.c", "heuristics.minmin_ms.s", "heuristics.minmin_ms.i":
				out.metrics[name] = quantile(xs, 0.5)
			}
		}
	}
	runtime.GC()
	return st, nil
}

// warmup is the unmeasured lead-in that fills caches and connections.
func warmup(window time.Duration) time.Duration {
	return min(max(window/10, 500*time.Millisecond), 2*time.Second)
}

// clientCount is the closed loop's width: two clients, never more than
// the host's processors.
func clientCount() int { return min(2, runtime.NumCPU()) }

// serviceRun drives a started service through warm-up and the
// measured window (split into an untraced and a traced half with
// tracing on) and turns the phases into metrics.
func serviceRun(o runOptions, out *outcome, h *svcHandle, source func(*rng.Rand) func() svcJob, tailQ float64, layer func(*svcPhase)) {
	clients := make([]*client, clientCount())
	base := rng.New(o.seed ^ 0x5eed)
	for i := range clients {
		clients[i] = newClient(h, source(base.Split(uint64(i))))
	}
	defer func() {
		for _, c := range clients {
			c.closeIdle()
		}
	}()
	phases := []*svcPhase{}
	for i, d := range phaseLengths(o) {
		if i > 0 {
			runtime.GC() // every measured phase starts from a collected heap
		}
		var rec *recorder
		if o.traced && i == 2 {
			rec = o.rec
		}
		ph := h.drive(clients, d, rec)
		for _, err := range ph.errs {
			out.fail(err)
		}
		out.attempted += int64(len(ph.jobs) + len(ph.errs))
		phases = append(phases, ph)
	}
	plain := phases[1]
	svcMetrics(out.metrics, plain, tailQ, true)
	out.notef("job_tail_ms is p%g of %d jobs (%d beyond it)", 100*tailQ, len(plain.jobs), beyond(len(plain.jobs), tailQ))
	if o.traced {
		traced := phases[2]
		svcMetrics(out.metrics, traced, tailQ, false)
		layer(traced)
		tm := map[string]float64{}
		svcMetrics(tm, traced, tailQ, true)
		out.metrics["trace.overhead"] = ratio(tm["job_p50_ms"], out.metrics["job_p50_ms"])
		out.metrics["trace.unattributed_ms.p50"] = quantile(o.rec.breakdown("job").unattributed, 0.5)
	}
}

// phaseLengths is warm-up, then the window — whole, or halved into an
// untraced and a traced phase.
func phaseLengths(o runOptions) []time.Duration {
	if o.traced {
		return []time.Duration{warmup(o.window), o.window / 2, o.window / 2}
	}
	return []time.Duration{warmup(o.window), o.window}
}

// deadline-inline: what a real grid client sends — its own 2048×32
// matrix and a 20 ms deadline. One matrix per Braun class (generation
// seeds drawn from the seed) is encoded once at set-up; jobs are pa-cga
// and tabu, equally weighted, over 1.2 MB bodies that bypass the
// instance cache. Each client walks seeded permutations of every
// (matrix, solver) pair, so every run weighs the classes and solvers
// alike. Search is bounded by the clock, so the run exposes the
// decode, instance build and Min-min seed costs.
//
// The service runs with its default configuration except for the
// result TTL. With the 15-minute default every job's matrix stays on
// the heap for the whole run (0.7–0.9 GB of RSS after 15 s), so the
// heap, and the collector's work with it, grow through the window;
// two seconds is ample for a client that reads its result within
// milliseconds and holds the heap at about 250 MB. At 64 machines the
// jobs per run halve and the spread between runs doubled, so the
// matrices have 32.
const (
	deadlineTasks, deadlineMachines = 2048, 32
	deadlineBudget                  = 20 * time.Millisecond
	deadlineTailQ                   = 0.9
	deadlineResultTTL               = 2 * time.Second
)

var deadlineSolvers = []string{"pa-cga", "tabu"}

type deadlineState struct {
	h      *svcHandle
	refs   []*reference
	bodies [][]byte // pre-encoded matrix objects
}

func runDeadlineInline(o runOptions) (*outcome, error) {
	out := newOutcome()
	st, err := setUp(o, out, func(log *setupLog) (*deadlineState, error) {
		r := rng.New(o.seed)
		s := &deadlineState{}
		for _, cl := range etc.AllClasses() {
			t0 := time.Now()
			gen, err := etc.Generate(etc.GenSpec{Class: cl, Tasks: deadlineTasks, Machines: deadlineMachines, Seed: r.Uint64()})
			if err != nil {
				return nil, err
			}
			log.timed("etc.generate", t0)
			name := "inline-" + cl.Name()
			body, err := json.Marshal(map[string]any{"name": name, "tasks": deadlineTasks, "machines": deadlineMachines, "etc": gen.Row})
			if err != nil {
				return nil, err
			}
			t0 = time.Now()
			inst, err := etc.New(name, deadlineTasks, deadlineMachines, gen.Row)
			if err != nil {
				return nil, err
			}
			log.timed("etc.new", t0)
			s.refs = append(s.refs, log.reference(inst, cl.Consistency))
			s.bodies = append(s.bodies, body)
		}
		s.h = startService(service.Config{ResultTTL: deadlineResultTTL, SweepInterval: deadlineResultTTL / 4})
		return s, nil
	}, func(s *deadlineState) { s.h.close() })
	if err != nil {
		return nil, err
	}
	defer st.h.close()

	tail := []byte("}")
	pairs := len(st.refs) * len(deadlineSolvers)
	source := func(r *rng.Rand) func() svcJob {
		var order []int
		return func() svcJob {
			if len(order) == 0 {
				order = r.Perm(pairs)
			}
			k, solver := order[0]/len(deadlineSolvers), deadlineSolvers[order[0]%len(deadlineSolvers)]
			order = order[1:]
			head := fmt.Sprintf(`{"solver":%q,"seed":%d,"budget":{"max_duration":%q},"matrix":`, solver, r.Uint64()>>1|1, deadlineBudget.String())
			return svcJob{solver: solver, ref: st.refs[k], body: [][]byte{[]byte(head), st.bodies[k], tail}}
		}
	}
	serviceRun(o, out, st.h, source, deadlineTailQ, func(ph *svcPhase) {
		var quality []float64
		fam := map[string]*family{}
		for _, j := range ph.jobs {
			quality = append(quality, j.quality)
			f := fam[j.solver]
			if f == nil {
				f = &family{}
				fam[j.solver] = f
			}
			if j.hasInit {
				f.init = append(f.init, ms(j.init))
				f.searchEvals += j.searchEvals
				f.searchTime += j.run - j.init
			}
			f.overrun = append(f.overrun, ms(j.run-deadlineBudget))
		}
		out.metrics["deadline.makespan_ratio"] = geomean(quality)
		for solver, f := range fam {
			f.metrics(out.metrics, familyName[solver], deadlineTailQ)
		}
	})
	return out, nil
}

// family aggregates one solver family's per-run layer timings.
type family struct {
	init, overrun []float64
	searchEvals   int64
	searchTime    time.Duration
}

var familyName = map[string]string{"pa-cga": "pacga", "tabu": "tabu", "h2ll": "h2ll"}

func (f *family) metrics(m map[string]float64, name string, tailQ float64) {
	m[name+".init_ms.p50"] = quantile(f.init, 0.5)
	m[name+".search_evals_per_s"] = ratio(float64(f.searchEvals), f.searchTime.Seconds())
	if len(f.overrun) > 0 {
		m[name+".run_overrun_ms.p50"] = quantile(f.overrun, 0.5)
		m[name+".run_overrun_ms.tail"] = quantile(f.overrun, tailQ)
	}
}
