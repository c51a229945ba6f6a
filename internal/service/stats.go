package service

import (
	"math"
	"strings"
	"sync/atomic"
	"time"

	"gridsched/internal/solver"
)

// SolverStats aggregates the finished jobs of one solver name.
type SolverStats struct {
	Solver    string
	Done      int64
	Failed    int64
	Cancelled int64
	// Evaluations sums the fitness evaluations of every finished run —
	// the paper's throughput currency.
	Evaluations int64
	// BusyTime sums wall time spent solving (queue wait excluded).
	BusyTime time.Duration
	// MeanLatency and MaxLatency summarize per-run solve time.
	MeanLatency time.Duration
	MaxLatency  time.Duration
	// EvalsPerSecond is the solver's aggregate evaluation throughput.
	EvalsPerSecond float64
}

// Stats is a point-in-time snapshot of the service: live gauges plus
// the per-solver retirement counters. A job is counted in Solvers in
// the same step that makes it terminal, so a read taken after a caller
// saw a job finish always includes it.
type Stats struct {
	Uptime        time.Duration
	Workers       int
	QueueCapacity int
	Queued        int
	Running       int
	Retained      int
	Evicted       int64

	CacheHits int64
	// CacheJoins counts requests served by riding another request's
	// in-flight generation (single-flight joins) — neither a hit on a
	// cached entry nor a fresh miss.
	CacheJoins   int64
	CacheMisses  int64
	CacheEntries int

	// StoreServes counts named-instance resolutions served by the
	// configured pre-generated instance store (Config.InstanceDB),
	// split out from cache hits/misses; StoreInstances is the store's
	// current corpus size (0 when no store is configured).
	StoreServes    int64
	StoreInstances int

	Solvers []SolverStats
}

// gauges are the live occupancy counts. The job state machine moves
// queued and running on its transitions, the store moves retained on
// insert and eviction, so a job cancelled while queued leaves queued at
// once even though it still sits in the run queue.
type gauges struct {
	queued, running, retained atomic.Int64
}

// solverCounters are one solver's retirement counters. Every field is
// an atomic, so Stats and /metrics read them without a lock.
type solverCounters struct {
	name                    string
	done, failed, cancelled atomic.Int64
	evaluations             atomic.Int64
	ran                     atomic.Int64 // retirements that have a solve latency
	busy, maxLatency        atomic.Int64 // nanoseconds
}

// solverTable holds one counter set per registered solver name. It is
// built once in New and never changes, so lookups need no lock.
type solverTable struct {
	list   []*solverCounters // sorted by name
	byName map[string]*solverCounters
}

func newSolverTable() solverTable {
	names := solver.Names()
	t := solverTable{
		list:   make([]*solverCounters, len(names)),
		byName: make(map[string]*solverCounters, len(names)),
	}
	for i, name := range names {
		t.list[i] = &solverCounters{name: name}
		t.byName[name] = t.list[i]
	}
	return t
}

// lookup returns the counters a job submitted under name retires into:
// the registered name itself, or, for a composed scheme name such as
// "portfolio:tabu+h2ll", the scheme's own registration. The table —
// and with it the /v1/stats rows and the solver metric labels — stays
// bounded by the registry however many compositions clients send.
func (t solverTable) lookup(name string) (*solverCounters, bool) {
	if c, ok := t.byName[name]; ok {
		return c, true
	}
	if i := strings.IndexByte(name, ':'); i > 0 {
		c, ok := t.byName[name[:i]]
		return c, ok
	}
	return nil, false
}

// fold counts one retired job.
func (c *solverCounters) fold(st JobState, started, finished time.Time, evals int64) {
	switch st {
	case StateDone:
		c.done.Add(1)
	case StateFailed:
		c.failed.Add(1)
	case StateCancelled:
		c.cancelled.Add(1)
	}
	c.evaluations.Add(evals)
	if started.IsZero() || finished.IsZero() {
		return
	}
	latency := int64(finished.Sub(started))
	c.busy.Add(latency)
	c.ran.Add(1)
	for {
		m := c.maxLatency.Load()
		if latency <= m || c.maxLatency.CompareAndSwap(m, latency) {
			return
		}
	}
}

// snapshot derives the public stats shape, computing the latency and
// throughput figures at read time.
func (c *solverCounters) snapshot() SolverStats {
	busy := time.Duration(c.busy.Load())
	s := SolverStats{
		Solver:      c.name,
		Done:        c.done.Load(),
		Failed:      c.failed.Load(),
		Cancelled:   c.cancelled.Load(),
		Evaluations: c.evaluations.Load(),
		BusyTime:    busy,
		MaxLatency:  time.Duration(c.maxLatency.Load()),
	}
	s.MeanLatency = meanLatency(busy, c.ran.Load())
	s.EvalsPerSecond = safeRate(float64(s.Evaluations), busy.Seconds())
	return s
}

// meanLatency divides defensively: a burst of heuristic jobs can
// retire with ran == 0 busy samples (or a clock too coarse to tick),
// and a mean of nothing is 0, not a division fault.
func meanLatency(busy time.Duration, ran int64) time.Duration {
	if ran <= 0 {
		return 0
	}
	return busy / time.Duration(ran)
}

// safeRate computes n per second over sec, returning 0 instead of the
// ±Inf/NaN a zero (or degenerate) denominator would produce —
// encoding/json refuses non-finite floats, so one poisoned counter
// would otherwise break the whole /v1/stats payload.
func safeRate(n, sec float64) float64 {
	if sec <= 0 {
		return 0
	}
	if r := n / sec; !math.IsInf(r, 0) && !math.IsNaN(r) {
		return r
	}
	return 0
}
