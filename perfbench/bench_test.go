package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"gridsched/internal/etc"
	"gridsched/internal/schedule"
)

// TestWorkloadsSmoke runs every workload briefly, untraced and traced,
// and checks that the result line carries every catalog metric with its
// unit, that the report prints each one by name with its unit, and that
// every output check passed.
func TestWorkloadsSmoke(t *testing.T) {
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			o := runOptions{seed: 7, window: time.Second, traced: traced}
			if traced {
				o.rec = newRecorder()
			}
			out, err := run(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			var buf bytes.Buffer
			correct, err := emit(&buf, name, o, out)
			if err != nil || !correct {
				t.Fatalf("%s traced=%v: correct=%v err=%v\n%s", name, traced, correct, err, buf.String())
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", name, err)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d", name, traced, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			report := strings.Join(lines[:len(lines)-1], "\n")
			for _, d := range defs {
				mv, ok := res.Metrics[d.Name]
				if !ok || mv.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, d.Name, mv, d.Unit)
				}
				if !traced && !(mv.Value > 0) {
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.Name, mv.Value)
				}
				if _, measured := out.metrics[d.Name]; measured && !strings.Contains(report, d.Name) {
					t.Errorf("%s traced=%v: report does not print %s", name, traced, d.Name)
				}
			}
			if traced {
				root := map[string]string{"solve-paper": "solve"}[name]
				if root == "" {
					root = "job"
				}
				if b := o.rec.breakdown(root); len(b.rootMS) == 0 {
					t.Errorf("%s: no %s spans recorded", name, root)
				}
			}
		}
	}
}

// TestCheckCatchesCorruption shows the checker accepts a faithful
// result and rejects each kind of corruption.
func TestCheckCatchesCorruption(t *testing.T) {
	inst, err := etc.GenerateByName("u_c_hihi.0@64x8")
	if err != nil {
		t.Fatal(err)
	}
	ref := newReference(inst, etc.Consistent)
	good := solution{solver: "minmin", makespan: ref.minminMakespan, assignment: append([]int(nil), ref.minmin...)}
	if _, err := check(ref, good); err != nil {
		t.Fatalf("faithful Min-min result rejected: %v", err)
	}

	counts := make([]int, inst.M)
	for _, m := range ref.minmin {
		counts[m]++
	}
	maxCount := 0
	for _, c := range counts {
		maxCount = max(maxCount, c)
	}
	tol := tolerance(maxCount, ref.minminMakespan, ref.minminMakespan)
	within := math.Nextafter(ref.minminMakespan+tol/2, math.Inf(1))

	flipped := append([]int(nil), ref.minmin...)
	flipped[3] = (flipped[3] + 1) % inst.M
	short := append([]int(nil), ref.minmin[:inst.T-1]...)
	outOfRange := append([]int(nil), ref.minmin...)
	outOfRange[5] = inst.M

	cases := []struct {
		name string
		sol  solution
		ok   bool
	}{
		{"one assignment entry flipped", solution{"minmin", ref.minminMakespan, flipped}, false},
		{"flipped entry, makespan recomputed honestly", solution{"tabu", recompute(t, inst, flipped), flipped}, true},
		{"makespan one ulp beyond tolerance", solution{"tabu", math.Nextafter(ref.minminMakespan+tol, math.Inf(1)), ref.minmin}, false},
		{"makespan within tolerance", solution{"tabu", within, ref.minmin}, true},
		{"minmin makespan off by one ulp", solution{"minmin", math.Nextafter(ref.minminMakespan, 0), ref.minmin}, false},
		{"incomplete assignment", solution{"tabu", ref.minminMakespan, short}, false},
		{"machine index out of range", solution{"tabu", ref.minminMakespan, outOfRange}, false},
	}
	for _, c := range cases {
		_, err := check(ref, c.sol)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}

	// A Min-min-seeded search must not return worse than Min-min: a
	// schedule that is worse but honestly reported is still rejected.
	worse := append([]int(nil), ref.minmin...)
	for i := range worse {
		worse[i] = 0 // everything on one machine
	}
	if _, err := check(ref, solution{"pa-cga", recompute(t, inst, worse), worse}); err == nil {
		t.Error("pa-cga result worse than Min-min accepted")
	}
}

// recompute is the makespan of an assignment, computed from scratch.
func recompute(t *testing.T, inst *etc.Instance, assign []int) float64 {
	t.Helper()
	s, err := schedule.FromAssignment(inst, assign)
	if err != nil {
		t.Fatal(err)
	}
	return s.Makespan()
}

// TestSelfTimeSumsToRoot pins the attribution rule: overlapping spans
// give each instant to the deepest one, and the parts add up to the
// root exactly.
func TestSelfTimeSumsToRoot(t *testing.T) {
	r := newRecorder()
	at := func(ms int) time.Time { return r.base.Add(time.Duration(ms) * time.Millisecond) }
	tr := r.root("job", 1, at(0), at(100))
	r.child(tr, "http.submit", 0, at(0), at(20))
	r.child(tr, "service.queue", 0, at(15), at(30)) // overlaps the submit
	run := r.child(tr, "service.run", 0, at(30), at(90))
	r.child(tr, "solve.init", run, at(30), at(50))
	r.child(tr, "http.poll", 0, at(85), at(95)) // overlaps the run
	layers, un := tr.self()
	want := map[string]int64{
		"http.submit":   15e6,
		"service.queue": 15e6,
		"solve.init":    20e6,
		"service.run":   40e6,
		"http.poll":     5e6,
	}
	var sum int64
	for l, v := range want {
		if layers[l] != v {
			t.Errorf("%s self = %d, want %d", l, layers[l], v)
		}
		sum += layers[l]
	}
	if un != 5e6 || sum+un != 100e6 {
		t.Errorf("unattributed %d, layers %d: want 5ms and a 100ms total", un, sum)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// catalog the program prints in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not runnable", w.Name)
		}
	}
	for _, c := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the catalog %d", c.name, len(c.got), len(c.want))
			continue
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalog %+v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}
