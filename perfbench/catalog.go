package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricDef is one metric of the benchmark's catalog. BENCHMARK.json at
// the repository root lists the same metrics with the same units (a
// test keeps the two in step); Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change
// counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, measured with tracing
// off. Every workload measures every one of them; for solve-paper a
// "job" is one library Solve call. Every time and rate is host-scaled
// (calib.go).
// The bounds hold three times the run-to-run spread seen on a shared
// 2-core host, whose speed also shifted by up to a fifth between
// sets of runs.
//
// Evaluations per second is per-layer (solver.evals_per_s): on
// solve-paper every sweep makes a fixed number of evaluations, so it
// moves exactly with jobs_per_s, and on deadline-inline the search is
// clock-bounded on an oversubscribed host, where it did not hold still.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"job_tail_ms", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.05},
}

// perLayer are single-layer metrics from the traced half of a -trace 1
// run. A layer the workload does not exercise reads 0 (solve-paper has
// no HTTP layer, deadline-inline no instance store, and so on); the comment after
// each group names the end-to-end metric it should move.
var perLayer = []metricDef{
	// service HTTP layer: job_p50_ms on deadline-inline (large-body
	// decode).
	{"service.http.submit_ms.p50", "ms", "lower", 0},
	{"service.http.submit_ms.tail", "ms", "lower", 0},
	{"service.http.poll_ms.p50", "ms", "lower", 0},
	{"service.http.polls_per_job", "count", "lower", 0},
	{"service.http.body_kb_per_job", "KiB", "lower", 0},
	// service queue and dispatch: job_tail_ms on deadline-inline.
	{"service.queue_wait_ms.p50", "ms", "lower", 0},
	{"service.queue_wait_ms.tail", "ms", "lower", 0},
	{"service.run_ms.p50", "ms", "lower", 0},
	{"service.run_ms.tail", "ms", "lower", 0},
	{"service.overhead_ms.p50", "ms", "lower", 0},
	// service stats and obs: jobs_per_s on deadline-inline.
	{"service.stats_read_ms.p50", "ms", "lower", 0},
	{"service.stats_lag_jobs.max", "count", "lower", 0},
	{"obs.metrics_scrape_ms.p50", "ms", "lower", 0},
	// instdb, whose store solve-paper's solvers read: setup_s on
	// solve-paper.
	{"instdb.decode_ms", "ms", "lower", 0},
	{"instdb.get_ns.p50", "ns", "lower", 0},
	// etc: job_p50_ms on deadline-inline (etc.new); setup_s.
	{"etc.new_ms.p50", "ms", "lower", 0},
	{"etc.generate_ms.p50", "ms", "lower", 0},
	// heuristics, at the workload's own size (512×16 on solve-paper,
	// 2048×32 on deadline-inline), by consistency class:
	// job_p50_ms on deadline-inline.
	{"heuristics.minmin_ms.c", "ms", "lower", 0},
	{"heuristics.minmin_ms.s", "ms", "lower", 0},
	{"heuristics.minmin_ms.i", "ms", "lower", 0},
	// core and tabu, per solver family: init and overrun move
	// job_p50_ms on deadline-inline, search moves evals_per_s on
	// solve-paper.
	{"pacga.init_ms.p50", "ms", "lower", 0},
	{"pacga.search_evals_per_s", "1/s", "higher", 0},
	{"pacga.run_overrun_ms.p50", "ms", "lower", 0},
	{"pacga.run_overrun_ms.tail", "ms", "lower", 0},
	{"tabu.init_ms.p50", "ms", "lower", 0},
	{"tabu.search_evals_per_s", "1/s", "higher", 0},
	{"tabu.run_overrun_ms.p50", "ms", "lower", 0},
	{"tabu.run_overrun_ms.tail", "ms", "lower", 0},
	{"h2ll.init_ms.p50", "ms", "lower", 0},
	{"h2ll.search_evals_per_s", "1/s", "higher", 0},
	// Evaluations per second of solve time, initialization included.
	{"solver.evals_per_s", "1/s", "higher", 0},
	// The paper's Fig. 4 axis on solve-paper.
	{"core.pacga.evals_per_s.t1", "1/s", "higher", 0},
	{"core.pacga.evals_per_s.t2", "1/s", "higher", 0},
	{"core.pacga.speedup_2t", "ratio", "higher", 0},
	// Solution quality: geometric mean of result ÷ Min-min makespan.
	{"solve.makespan_ratio", "ratio", "lower", 0},
	{"deadline.makespan_ratio", "ratio", "lower", 0},
	// operators and schedule: evals_per_s on solve-paper.
	{"operators.ls_moves_per_eval", "count", "higher", 0},
	{"schedule.evals_per_op", "count", "higher", 0},
	{"schedule.full_eval_us", "us", "lower", 0},
	// Go runtime: jobs_per_s and alloc_kb_per_op.
	{"runtime.gc_cycles_per_1k_ops", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
	{"runtime.peak_heap_mb", "MiB", "lower", 0},
	{"runtime.heap_growth_kb_per_op", "KiB", "lower", 0},
	// trace: keeps the breakdown honest.
	{"trace.unattributed_ms.p50", "ms", "lower", 0},
	{"trace.overhead", "ratio", "lower", 0},
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int64
	// errors are the output-check violations (at most a few are kept;
	// failed counts them all).
	errors  []string
	metrics map[string]float64
	// notes are report-only lines: sample counts, tail percentiles,
	// the failure ratio.
	notes []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// fail records one failed operation.
func (o *outcome) fail(err error) {
	o.failed++
	if len(o.errors) < 10 {
		o.errors = append(o.errors, err.Error())
	}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// table renders every measured metric by name with its unit, catalog
// order first, then the notes.
func (o *outcome) table() string {
	var b strings.Builder
	seen := map[string]bool{}
	for _, group := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range group {
			seen[d.Name] = true
			if v, ok := o.metrics[d.Name]; ok {
				fmt.Fprintf(&b, "  %-32s %16.6g %s\n", d.Name, v, d.Unit)
			}
		}
	}
	var extra []string
	for name := range o.metrics {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(&b, "  %-32s %16.6g\n", name, o.metrics[name])
	}
	ratio := 0.0
	if o.attempted > 0 {
		ratio = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(&b, "  %-32s %16.6g ratio (%d of %d)\n", "fail_ratio", ratio, o.failed, o.attempted)
	for _, n := range o.notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}
