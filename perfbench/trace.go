package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Times are wall-clock
// nanoseconds since the recorder's base, so client-side times and the
// service's own job timestamps share one axis.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index in the written file; -1 for a root
	Job    int64  `json:"job"`
}

// spanLevel orders overlapping spans for self-time attribution: at each
// instant the deepest active span owns the time (the job is running on
// a worker while the client's poll waits, so service.run owns that
// stretch, not http.poll). Unlisted children sit at level 1.
var spanLevel = map[string]int{
	"service.queue": 2,
	"service.run":   2,
	"solve.init":    3,
	"solve.search":  3,
}

// tree is one root span (a job, a solve, a set-up, a check) and its
// descendants, built by one goroutine and committed whole. Parent
// indexes are local: the root is 0.
type tree struct {
	job   int64
	spans []span
}

// recorder keeps spans in memory for the whole run; write dumps them
// when the run ends. A nil recorder is tracing off.
type recorder struct {
	base  time.Time
	mu    sync.Mutex
	trees []*tree
}

func newRecorder() *recorder { return &recorder{base: time.Now().Round(0)} }

// root starts a tree; nil when tracing is off.
func (r *recorder) root(name string, job int64, start, end time.Time) *tree {
	if r == nil {
		return nil
	}
	return &tree{job: job, spans: []span{{Name: name, Start: start.Sub(r.base).Nanoseconds(), End: end.Sub(r.base).Nanoseconds(), Parent: -1, Job: job}}}
}

// child adds a span under parent (a local index) and returns its index.
func (r *recorder) child(t *tree, name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(r.base).Nanoseconds(), End: end.Sub(r.base).Nanoseconds(), Parent: parent, Job: t.job})
	return len(t.spans) - 1
}

func (r *recorder) commit(t *tree) {
	if t == nil {
		return
	}
	r.mu.Lock()
	r.trees = append(r.trees, t)
	r.mu.Unlock()
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, t := range r.trees {
		n += len(t.spans)
	}
	return n
}

// self splits the root's interval among its descendants: every instant
// goes to the deepest span active then (ties to the later start), and
// what no descendant covers is the root's own, unattributed time. The
// parts sum to the root's duration exactly.
func (t *tree) self() (layers map[string]int64, unattributed int64) {
	root := t.spans[0]
	level := make([]int, len(t.spans))
	pts := []int64{root.Start, root.End}
	for i, s := range t.spans[1:] {
		level[i+1] = 1
		if l, ok := spanLevel[s.Name]; ok {
			level[i+1] = l
		}
		pts = append(pts, min(max(s.Start, root.Start), root.End), min(max(s.End, root.Start), root.End))
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	layers = map[string]int64{}
	for k := 0; k+1 < len(pts); k++ {
		a, b := pts[k], pts[k+1]
		if a == b {
			continue
		}
		owner := 0
		for i := 1; i < len(t.spans); i++ {
			s := t.spans[i]
			if s.Start > a || s.End < b {
				continue
			}
			if owner == 0 || level[i] > level[owner] || (level[i] == level[owner] && s.Start > t.spans[owner].Start) {
				owner = i
			}
		}
		if owner == 0 {
			unattributed += b - a
		} else {
			layers[t.spans[owner].Name] += b - a
		}
	}
	return layers, unattributed
}

// breakdown aggregates self times over every tree rooted at name.
type breakdown struct {
	root         string
	rootMS       []float64
	unattributed []float64
	layers       map[string][]float64 // per tree, 0 where the layer is absent
}

func (r *recorder) breakdown(name string) breakdown {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := breakdown{root: name, layers: map[string][]float64{}}
	for _, t := range r.trees {
		if t.spans[0].Name != name {
			continue
		}
		layers, un := t.self()
		n := len(b.rootMS)
		b.rootMS = append(b.rootMS, float64(t.spans[0].End-t.spans[0].Start)/1e6)
		b.unattributed = append(b.unattributed, float64(un)/1e6)
		for l := range layers {
			if _, ok := b.layers[l]; !ok {
				b.layers[l] = make([]float64, n, n+1)
			}
		}
		for l := range b.layers {
			b.layers[l] = append(b.layers[l], float64(layers[l])/1e6)
		}
	}
	return b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// report prints the per-layer self times of every root kind: mean and
// median per root, and the mean shares, which add up to the root's mean
// duration.
func (r *recorder) report() string {
	r.mu.Lock()
	roots := map[string]bool{}
	for _, t := range r.trees {
		roots[t.spans[0].Name] = true
	}
	r.mu.Unlock()
	names := make([]string, 0, len(roots))
	for n := range roots {
		names = append(names, n)
	}
	sort.Strings(names)
	var out strings.Builder
	for _, n := range names {
		b := r.breakdown(n)
		fmt.Fprintf(&out, "trace %s: n=%d mean %.4f ms p50 %.4f ms; self time by layer (mean ms, p50 ms, share of mean):\n",
			n, len(b.rootMS), mean(b.rootMS), quantile(b.rootMS, 0.5))
		layers := make([]string, 0, len(b.layers))
		for l := range b.layers {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		sum := mean(b.unattributed)
		for _, l := range layers {
			m := mean(b.layers[l])
			sum += m
			fmt.Fprintf(&out, "  %-18s %10.4f %10.4f %6.1f%%\n", l, m, quantile(b.layers[l], 0.5), 100*ratio(m, mean(b.rootMS)))
		}
		fmt.Fprintf(&out, "  %-18s %10.4f %10.4f %6.1f%%\n", "(unattributed)", mean(b.unattributed), quantile(b.unattributed, 0.5), 100*ratio(mean(b.unattributed), mean(b.rootMS)))
		fmt.Fprintf(&out, "  layers + unattributed = %.4f ms (root mean %.4f ms)\n", sum, mean(b.rootMS))
	}
	return out.String()
}

// write dumps every span as one JSON object per line, parents indexed
// within the file.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	next := 0
	for _, t := range r.trees {
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += next
			}
			if err := enc.Encode(s); err != nil {
				r.mu.Unlock()
				f.Close()
				return err
			}
		}
		next += len(t.spans)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
