// Command perfbench is the repository benchmark. It runs one named
// workload from a seed for a fixed wall window, checks every output
// against its own copy of the inputs, and prints a human-readable
// report followed, as the last line of standard output, by one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of the catalog
// (catalog.go, mirrored in BENCHMARK.json); with -trace 1 the run
// splits its window into an untraced and a traced half, records spans
// around every call into the program, and reports the per-layer
// metrics instead.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload solve-paper --seed 1 --seconds 40 --trace 0
//
// The workloads are solve-paper (solve.go) and deadline-inline
// (workloads.go); the comments there say what each exercises and why.
//
// There is no workload of tiny service jobs. One was tried: closed-loop
// Min-min jobs on 64×8 instances over loopback HTTP, where a job costs
// about half a millisecond of HTTP, JSON, scheduling and GC. On a
// shared host its figures spread 36–54% between runs of the same code.
// On a shared 2-core host its cost per job drifted by ±7–13% from one
// 2.5 s stretch to the next, and no kernel free of program code followed
// that drift (float, allocation, syscall, loopback-echo and
// goroutine-handoff kernels all correlated 0.6 or less), so host scaling
// could not remove it. Bounding the result TTL, one processor, one client, sleep-free
// polling and calling the HTTP handler in-process did not remove it
// either. deadline-inline still measures the HTTP, queue and stats
// layers.
//
// A failed output check makes the run print its result with
// "correct": false and exit with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// spansDir is where a traced run writes its spans, relative to the
// repository root the command runs from.
const spansDir = ".bench_build/spans"

func main() {
	var (
		workload = flag.String("workload", "", "workload name: solve-paper or deadline-inline")
		seed     = flag.Uint64("seed", 1, "input seed: instances, matrices, solver mix and job seeds derive from it")
		seconds  = flag.Float64("seconds", 40, "measured wall window in seconds")
		trace    = flag.Int("trace", 0, "1 = split the window into an untraced and a traced half and report per-layer metrics")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want solve-paper or deadline-inline)\n", *workload)
		os.Exit(2)
	}
	o := runOptions{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1,
	}
	if o.traced {
		o.rec = newRecorder()
	}
	out, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if o.traced {
		path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := o.rec.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		out.notef("%d spans written to %s", o.rec.len(), path)
	}
	correct, err := emit(os.Stdout, *workload, o, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

// emit writes the report and, last, the result line: the end-to-end
// metrics, or the per-layer ones for a traced run, each with its unit.
func emit(w io.Writer, name string, o runOptions, out *outcome) (correct bool, err error) {
	fmt.Fprintf(w, "perfbench %s seed=%d window=%v trace=%v\n", name, o.seed, o.window, o.traced)
	fmt.Fprint(w, hostStamp())
	if o.rec != nil {
		fmt.Fprint(w, o.rec.report())
	}
	for _, e := range out.errors {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", e)
	}
	fmt.Fprint(w, out.table())

	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok && !o.traced {
			return false, fmt.Errorf("end-to-end metric %s not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	_, err = fmt.Fprintln(w, string(line))
	return res.Correct, err
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
