package main

import (
	"sort"
	"time"
)

// The host this benchmark runs on is shared: its speed drifts by tens
// of percent over minutes, and a fixed kernel that runs no program
// code slows with it. Every end-to-end time is therefore scaled by
// nominal ÷ (the kernel's time measured next to it), i.e. reported as
// it would read on a host where the kernel takes its nominal time. A
// change to the program moves the scaled figures exactly as it moves
// the raw ones; a change of host speed largely cancels. The report
// prints the raw figures too.
//
// Measured on a shared 2-core host, this kernel's time correlated 0.80
// with solver wall time, and scaling cut the run-to-run spread of
// solve-paper and deadline-inline roughly in half.
const calNominal = 700 * time.Microsecond

// calTable is the kernel's working set: 256 KiB, about an L2's worth,
// so the kernel feels the same cache pressure as the solvers. Of the
// kernels tried (this walk, an 8 MiB walk, a float chain) it tracked
// the solvers' speed best.
var calTable = func() []float64 {
	t := make([]float64, 1<<15)
	for i := range t {
		t[i] = float64(i%97) + 0.5
	}
	return t
}()

var calSink float64

// hostScale times passes of the kernel — a data-dependent walk over
// calTable with float work — and returns calNominal ÷ their median.
func hostScale(passes int) float64 {
	ds := make([]time.Duration, passes)
	for p := range ds {
		t0 := time.Now()
		x, i := 0.0, 0
		for k := range 1 << 16 {
			v := calTable[i]
			x = x*0.999 + v
			i = (i + int(v)*31 + k) & (len(calTable) - 1)
		}
		calSink += x
		ds[p] = time.Since(t0)
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return float64(calNominal) / float64(ds[passes/2])
}
