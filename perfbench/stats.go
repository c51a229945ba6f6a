package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// quantile returns the q-th quantile of xs by nearest rank (xs is not
// modified); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// beyond is how many of n samples lie above the nearest-rank q-th
// quantile; the report prints it next to every tail percentile, which
// should have at least ten.
func beyond(n int, q float64) int {
	return n - max(int(math.Ceil(q*float64(n))), 1)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// geomean of positive ratios; 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memSnap is the slice of runtime.MemStats a phase is charged with.
type memSnap struct {
	numGC      uint32
	pauseNs    uint64
	mallocs    uint64
	totalAlloc uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{m.NumGC, m.PauseTotalNs, m.Mallocs, m.TotalAlloc}
}

// heapBytes reads the live heap through runtime/metrics, which does not
// stop the world, so it can be sampled inside the measured loop.
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// usage is the Go runtime's account of one measured phase: GC and
// allocation counters at its ends, and the largest heap reading taken
// at its sample points (after each operation and each scrape).
type usage struct {
	mem0, mem1 memSnap
	heap0      uint64
	peak       atomic.Uint64
}

func (u *usage) begin() {
	u.mem0 = readMem()
	u.heap0 = heapBytes()
	u.peak.Store(u.heap0)
}

func (u *usage) sample() {
	v := heapBytes()
	for {
		cur := u.peak.Load()
		if v <= cur || u.peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (u *usage) end() { u.mem1 = readMem() }

// metrics charges the phase's runtime work to ops operations. The heap
// peak is per-layer, not end-to-end: the service retains every job for
// its result TTL, so on the service workload the peak grows with the
// jobs served and would read a throughput gain as a regression.
// heap_growth_kb_per_op is the same cost per job, which does not.
func (u *usage) metrics(m map[string]float64, ops int64, e2e bool) {
	n := float64(max(ops, 1))
	if e2e {
		m["alloc_kb_per_op"] = float64(u.mem1.totalAlloc-u.mem0.totalAlloc) / 1024 / n
		return
	}
	m["runtime.gc_cycles_per_1k_ops"] = float64(u.mem1.numGC-u.mem0.numGC) * 1000 / n
	m["runtime.gc_pause_ms"] = float64(u.mem1.pauseNs-u.mem0.pauseNs) / 1e6
	m["runtime.allocs_per_op"] = float64(u.mem1.mallocs-u.mem0.mallocs) / n
	m["runtime.peak_heap_mb"] = float64(u.peak.Load()) / (1 << 20)
	m["runtime.heap_growth_kb_per_op"] = float64(u.peak.Load()-u.heap0) / 1024 / n
}
