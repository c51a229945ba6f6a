// Package heuristics implements the classic static mapping heuristics for
// independent-task scheduling on heterogeneous machines (Braun et al.,
// Ibarra & Kim). The paper seeds one individual of the PA-CGA population
// with Min-min (Table 1) and positions such list heuristics as the fast
// alternative for near-homogeneous instances (§4.2); the rest are
// provided as baselines for the examples and the benchmark harness.
//
// Costs for a T-task, M-machine instance: Min-min is O(T·M) after one
// radix sort of each machine's cost column (O(T·M) as well); Max-min
// and Sufferage are O(T²) cached scans plus their rescans; MCT, MET,
// OLB are O(T·M); LJFR-SJFR is O(T² + T·M).
package heuristics

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"gridsched/internal/etc"
	"gridsched/internal/rng"
	"gridsched/internal/schedule"
)

// Heuristic is a deterministic constructive mapper from instance to
// complete schedule.
type Heuristic func(*etc.Instance) *schedule.Schedule

// ByName resolves the heuristic names accepted by the command-line tools.
func ByName(name string) (Heuristic, error) {
	switch name {
	case "minmin", "min-min":
		return MinMin, nil
	case "maxmin", "max-min":
		return MaxMin, nil
	case "mct":
		return MCT, nil
	case "met":
		return MET, nil
	case "olb":
		return OLB, nil
	case "sufferage":
		return Sufferage, nil
	case "ljfr-sjfr", "ljfrsjfr":
		return LJFRSJFR, nil
	}
	return nil, fmt.Errorf("heuristics: unknown heuristic %q", name)
}

// Names lists the heuristics available through ByName, in display order.
func Names() []string {
	return []string{"minmin", "maxmin", "sufferage", "mct", "met", "olb", "ljfr-sjfr"}
}

// bestCompletion returns the machine minimizing CT[m] + ETC(t, m) and
// that minimal completion time, sweeping the task's contiguous cost row
// against the completion-time vector.
func bestCompletion(s *schedule.Schedule, t int) (mac int, ct float64) {
	tc := s.Inst.TaskCosts(t)
	cts := s.CT[:len(tc)]
	mac, ct = 0, cts[0]+tc[0]
	for m := 1; m < len(tc); m++ {
		if c := cts[m] + tc[m]; c < ct {
			mac, ct = m, c
		}
	}
	return mac, ct
}

// MinMin is the Min-min heuristic of Ibarra & Kim: repeatedly compute,
// for every unassigned task, its minimum completion time over all
// machines; commit the task whose minimum is smallest. Intuition: placing
// the "easiest" tasks first keeps machine loads low for longer.
//
// The pair minimizing CT[m] + ETC[t][m] over unassigned tasks t and all
// machines m is, for each machine, the machine's cheapest unassigned
// task — completion times are constant within a step and float addition
// is monotone. So every machine-major column is sorted by cost once,
// and a cursor per machine skips tasks already committed: each step
// costs O(M) plus the cursor advances, O(T·M) in total on top of the
// sort, where the textbook selection rescans every remaining task.
//
// Ties reproduce the textbook scan exactly: the chosen task is the
// lowest-positioned tied one in the swap-remove list of unassigned
// tasks that scan walks, and its machine the lowest-index minimizer
// (bestCompletion). A tied sum is found in a contiguous run from each
// column's cursor, since equal sums need costs adjacent in sort order.
func MinMin(inst *etc.Instance) *schedule.Schedule {
	s := schedule.New(inst)
	nt, nm := inst.T, inst.M
	if nt == 0 || nm == 0 {
		return s
	}
	sc := minMinPool.Get().(*minMinScratch)
	defer minMinPool.Put(sc)
	sc.reset(nt, nm)
	for m := 0; m < nm; m++ {
		sc.sortColumn(inst.MachineCosts(m), sc.sorted[m*nt:(m+1)*nt])
	}
	order, pos, cur, head := sc.order, sc.pos, sc.cur, sc.head
	for left := nt; left > 0; left-- {
		best := math.Inf(1)
		for m := range cur {
			col, mc := sc.sorted[m*nt:(m+1)*nt], inst.MachineCosts(m)
			c := cur[m]
			for s.S[col[c]] != schedule.Unassigned {
				c++
			}
			cur[m] = c
			h := s.CT[m] + mc[col[c]]
			head[m] = h
			if h < best {
				best = h
			}
		}
		chosen := int32(-1)
		for m, h := range head {
			if h != best {
				continue
			}
			col, mc, ct := sc.sorted[m*nt:(m+1)*nt], inst.MachineCosts(m), s.CT[m]
			for _, t := range col[cur[m]:] {
				if s.S[t] != schedule.Unassigned {
					continue
				}
				if ct+mc[t] != best {
					break
				}
				if chosen < 0 || pos[t] < pos[chosen] {
					chosen = t
				}
			}
		}
		mac, _ := bestCompletion(s, int(chosen))
		s.Assign(int(chosen), mac)
		i, last := pos[chosen], order[left-1]
		order[i], pos[last] = last, i
	}
	return s
}

// minMinScratch is MinMin's per-call working memory, pooled so that a
// warm call allocates nothing beyond the schedule it returns.
type minMinScratch struct {
	// sorted holds, at [m*T, (m+1)*T), machine m's tasks by ascending
	// cost.
	sorted []int32
	// keys, keys2 and idx2 are the radix sort's ping-pong buffers.
	keys, keys2 []uint32
	idx2        []int32
	// order lists the unassigned tasks in the textbook scan's
	// swap-remove order (its first len-left entries are live); pos[t]
	// is t's index there.
	order, pos []int32
	// cur[m] indexes machine m's cheapest possibly-unassigned task in
	// sorted; head[m] is its completion time on m this step.
	cur  []int32
	head []float64
}

var minMinPool = sync.Pool{New: func() any { return new(minMinScratch) }}

// resize returns b with length n, reallocating only when its capacity
// is too small (contents unspecified).
func resize[E any](b []E, n int) []E {
	if cap(b) < n {
		return make([]E, n)
	}
	return b[:n]
}

// reset sizes the scratch for a T×M instance and initializes the
// unassigned list, the positions and the cursors.
func (sc *minMinScratch) reset(nt, nm int) {
	sc.sorted = resize(sc.sorted, nt*nm)
	sc.keys = resize(sc.keys, nt)
	sc.keys2 = resize(sc.keys2, nt)
	sc.idx2 = resize(sc.idx2, nt)
	sc.order = resize(sc.order, nt)
	sc.pos = resize(sc.pos, nt)
	sc.cur = resize(sc.cur, nm)
	sc.head = resize(sc.head, nm)
	for i := range sc.order {
		sc.order[i], sc.pos[i] = int32(i), int32(i)
	}
	clear(sc.cur)
}

// sortColumn writes into dst the task indices of col ordered by
// ascending cost (equal costs in unspecified order). Costs are
// positive, and positive float64s order like their bit patterns, so an
// LSD radix sort over the high 32 bits of Float64bits (sign, exponent
// and 20 mantissa bits), one byte per pass, orders the column up to
// runs that share those bits; a final sweep sorts each such run — short
// and rare on real matrices — by full cost. A pass whose byte is the
// same in every key is a no-op and is skipped.
func (sc *minMinScratch) sortColumn(col []float64, dst []int32) {
	n := len(col)
	var hist [4][256]int32
	keys, idx := sc.keys[:n], dst
	for t, c := range col {
		k := uint32(math.Float64bits(c) >> 32)
		keys[t], idx[t] = k, int32(t)
		hist[0][byte(k)]++
		hist[1][byte(k>>8)]++
		hist[2][byte(k>>16)]++
		hist[3][byte(k>>24)]++
	}
	keys2, idx2 := sc.keys2[:n], sc.idx2[:n]
	for b := range hist {
		shift := 8 * uint(b)
		h := &hist[b]
		if h[byte(keys[0]>>shift)] == int32(n) {
			continue
		}
		var sum int32
		for d, c := range h {
			h[d], sum = sum, sum+c
		}
		for i, k := range keys {
			d := byte(k >> shift)
			p := h[d]
			h[d]++
			keys2[p], idx2[p] = k, idx[i]
		}
		keys, keys2 = keys2, keys
		idx, idx2 = idx2, idx
	}
	if &idx[0] != &dst[0] {
		copy(dst, idx)
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && keys[hi] == keys[lo] {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(dst[lo:hi], func(a, b int32) int { return cmp.Compare(col[a], col[b]) })
		}
		lo = hi
	}
}

// MaxMin is the dual of Min-min: commit the task whose best completion
// time is largest, so long tasks are placed early and short tasks fill
// the gaps.
//
// Each task's best (machine, completion) pair is cached. Committing a
// task changes exactly one machine's CT — and only upward, since ETC
// entries are positive — so a cached pair stays exact unless its
// machine is the one that just grew; only those tasks rescan the
// machine vector. Selection is O(T²) scans plus an expected O(T·M) of
// rescans, with assignments bit-identical to the uncached scan.
func MaxMin(inst *etc.Instance) *schedule.Schedule {
	s := schedule.New(inst)
	unassigned := make([]int, inst.T)
	for i := range unassigned {
		unassigned[i] = i
	}
	bestMac := make([]int, inst.T)
	bestCT := make([]float64, inst.T)
	for i := range bestMac {
		bestMac[i] = -1 // not yet computed
	}
	for len(unassigned) > 0 {
		chosenIdx, chosenMac := -1, -1
		chosenCT := math.Inf(-1)
		for idx, t := range unassigned {
			if bestMac[t] < 0 {
				bestMac[t], bestCT[t] = bestCompletion(s, t)
			}
			if bestCT[t] > chosenCT {
				chosenIdx, chosenMac, chosenCT = idx, bestMac[t], bestCT[t]
			}
		}
		t := unassigned[chosenIdx]
		s.Assign(t, chosenMac)
		unassigned[chosenIdx] = unassigned[len(unassigned)-1]
		unassigned = unassigned[:len(unassigned)-1]
		for _, u := range unassigned {
			if bestMac[u] == chosenMac {
				bestMac[u] = -1
			}
		}
	}
	return s
}

// MCT (Minimum Completion Time) assigns tasks in index order, each to the
// machine that completes it earliest given current loads.
func MCT(inst *etc.Instance) *schedule.Schedule {
	s := schedule.New(inst)
	for t := 0; t < inst.T; t++ {
		mac, _ := bestCompletion(s, t)
		s.Assign(t, mac)
	}
	return s
}

// MET (Minimum Execution Time) assigns each task to the machine with the
// smallest raw ETC, ignoring load — fast but prone to overloading the
// globally fastest machine on consistent instances.
func MET(inst *etc.Instance) *schedule.Schedule {
	s := schedule.New(inst)
	for t := 0; t < inst.T; t++ {
		tc := inst.TaskCosts(t)
		best := 0
		for m := 1; m < len(tc); m++ {
			if tc[m] < tc[best] {
				best = m
			}
		}
		s.Assign(t, best)
	}
	return s
}

// OLB (Opportunistic Load Balancing) assigns each task to the machine
// that becomes idle earliest, ignoring the task's ETC on it.
func OLB(inst *etc.Instance) *schedule.Schedule {
	s := schedule.New(inst)
	for t := 0; t < inst.T; t++ {
		best := 0
		for m := 1; m < inst.M; m++ {
			if s.CT[m] < s.CT[best] {
				best = m
			}
		}
		s.Assign(t, best)
	}
	return s
}

// Sufferage commits, at each step, the unassigned task that would
// "suffer" most if denied its best machine: the one with the largest gap
// between its best and second-best completion times. Like MaxMin it
// caches each task's (best, second-best) pair and rescans a task only
// when the machine that just grew is the task's cached best or
// second-best — any other machine's increase cannot change either value
// (completion times only grow, and the grown machine was strictly worse
// than the cached second).
func Sufferage(inst *etc.Instance) *schedule.Schedule {
	s := schedule.New(inst)
	unassigned := make([]int, inst.T)
	for i := range unassigned {
		unassigned[i] = i
	}
	type suffCache struct {
		bestMac, secondMac int
		best, second       float64
	}
	cache := make([]suffCache, inst.T)
	for i := range cache {
		cache[i].bestMac = -1 // not yet computed
	}
	for len(unassigned) > 0 {
		chosenIdx, chosenMac := -1, -1
		chosenSuff := math.Inf(-1)
		for idx, t := range unassigned {
			c := &cache[t]
			if c.bestMac < 0 {
				c.best, c.second = math.Inf(1), math.Inf(1)
				c.bestMac, c.secondMac = -1, -1
				tc := inst.TaskCosts(t)
				for m, cost := range tc {
					v := s.CT[m] + cost
					if v < c.best {
						c.second, c.secondMac = c.best, c.bestMac
						c.best, c.bestMac = v, m
					} else if v < c.second {
						c.second, c.secondMac = v, m
					}
				}
			}
			suff := c.second - c.best
			if inst.M == 1 {
				suff = 0
			}
			if suff > chosenSuff {
				chosenIdx, chosenMac, chosenSuff = idx, c.bestMac, suff
			}
		}
		t := unassigned[chosenIdx]
		s.Assign(t, chosenMac)
		unassigned[chosenIdx] = unassigned[len(unassigned)-1]
		unassigned = unassigned[:len(unassigned)-1]
		for _, u := range unassigned {
			if cache[u].bestMac == chosenMac || cache[u].secondMac == chosenMac {
				cache[u].bestMac = -1
			}
		}
	}
	return s
}

// LJFRSJFR (Longest Job to Fastest Resource / Shortest Job to Fastest
// Resource) alternates between assigning the longest remaining job and
// the shortest remaining job, both to the machine that completes them
// earliest. Job length is measured by mean ETC across machines.
func LJFRSJFR(inst *etc.Instance) *schedule.Schedule {
	s := schedule.New(inst)
	type job struct {
		task int
		size float64
	}
	jobs := make([]job, inst.T)
	for t := 0; t < inst.T; t++ {
		sum := 0.0
		for _, cost := range inst.TaskCosts(t) {
			sum += cost
		}
		jobs[t] = job{task: t, size: sum / float64(inst.M)}
	}
	// Selection by scan keeps the heuristic O(T^2); fine at benchmark size.
	takeExtreme := func(longest bool) job {
		bi := 0
		for i := 1; i < len(jobs); i++ {
			if (longest && jobs[i].size > jobs[bi].size) || (!longest && jobs[i].size < jobs[bi].size) {
				bi = i
			}
		}
		j := jobs[bi]
		jobs[bi] = jobs[len(jobs)-1]
		jobs = jobs[:len(jobs)-1]
		return j
	}
	longest := true
	for len(jobs) > 0 {
		j := takeExtreme(longest)
		mac, _ := bestCompletion(s, j.task)
		s.Assign(j.task, mac)
		longest = !longest
	}
	return s
}

// Random assigns every task to a uniformly random machine; the population
// initializer of the GA family and the weakest baseline.
func Random(inst *etc.Instance, r *rng.Rand) *schedule.Schedule {
	return schedule.NewRandom(inst, r)
}
