package heuristics

import (
	"fmt"
	"math"
	"testing"

	"gridsched/internal/etc"
	"gridsched/internal/rng"
	"gridsched/internal/schedule"
)

func testInstance(t testing.TB, cons etc.Consistency, tasks, machines int, seed uint64) *etc.Instance {
	t.Helper()
	in, err := etc.Generate(etc.GenSpec{
		Class: etc.Class{Consistency: cons, TaskHet: etc.High, MachineHet: etc.High},
		Tasks: tasks, Machines: machines, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func allHeuristics() map[string]Heuristic {
	return map[string]Heuristic{
		"minmin":    MinMin,
		"maxmin":    MaxMin,
		"mct":       MCT,
		"met":       MET,
		"olb":       OLB,
		"sufferage": Sufferage,
		"ljfr-sjfr": LJFRSJFR,
	}
}

func TestAllProduceCompleteValidSchedules(t *testing.T) {
	for _, cons := range []etc.Consistency{etc.Consistent, etc.SemiConsistent, etc.Inconsistent} {
		in := testInstance(t, cons, 64, 8, 42)
		for name, h := range allHeuristics() {
			s := h(in)
			if !s.Complete() {
				t.Fatalf("%s on %s: incomplete schedule", name, in.Name)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("%s on %s: %v", name, in.Name, err)
			}
		}
	}
}

func TestHeuristicsDeterministic(t *testing.T) {
	in := testInstance(t, etc.Inconsistent, 50, 6, 7)
	for name, h := range allHeuristics() {
		a, b := h(in), h(in)
		if a.HammingDistance(b) != 0 {
			t.Fatalf("%s is nondeterministic", name)
		}
	}
}

func TestMinMinBeatsRandomOnAverage(t *testing.T) {
	in := testInstance(t, etc.Inconsistent, 128, 16, 3)
	mm := MinMin(in).Makespan()
	r := rng.New(1)
	worse := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		if Random(in, r).Makespan() > mm {
			worse++
		}
	}
	if worse < trials-1 {
		t.Fatalf("Min-min (%v) beaten by random too often: %d/%d random were worse", mm, worse, trials)
	}
}

func TestMinMinBeatsOLBAndMET(t *testing.T) {
	// On heterogeneous inconsistent instances Min-min should dominate the
	// naive heuristics comfortably.
	in := testInstance(t, etc.Inconsistent, 256, 16, 5)
	mm := MinMin(in).Makespan()
	if olb := OLB(in).Makespan(); mm > olb {
		t.Fatalf("Min-min %v worse than OLB %v", mm, olb)
	}
	if met := MET(in).Makespan(); mm > met {
		t.Fatalf("Min-min %v worse than MET %v", mm, met)
	}
}

func TestMETPicksPerTaskMinimum(t *testing.T) {
	in := testInstance(t, etc.Inconsistent, 30, 5, 8)
	s := MET(in)
	for task := 0; task < in.T; task++ {
		for m := 0; m < in.M; m++ {
			if in.ETC(task, m) < in.ETC(task, s.S[task]) {
				t.Fatalf("MET assigned task %d to %d but machine %d is faster", task, s.S[task], m)
			}
		}
	}
}

func TestMETOverloadsFastMachineOnConsistent(t *testing.T) {
	// On a consistent matrix one machine is fastest for every task, so
	// MET piles everything on it: a known pathology worth pinning down.
	in := testInstance(t, etc.Consistent, 40, 4, 9)
	s := MET(in)
	first := s.S[0]
	for task := 1; task < in.T; task++ {
		if s.S[task] != first {
			t.Fatal("MET did not assign all tasks to the single fastest machine on a consistent instance")
		}
	}
}

func TestMCTNoWorseThanMETOnConsistent(t *testing.T) {
	in := testInstance(t, etc.Consistent, 100, 8, 10)
	if mct, met := MCT(in).Makespan(), MET(in).Makespan(); mct > met {
		t.Fatalf("MCT %v worse than MET %v on consistent instance", mct, met)
	}
}

func TestSufferageHandlesSingleMachine(t *testing.T) {
	in, err := etc.New("one", 5, 1, []float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	s := Sufferage(in)
	if !s.Complete() {
		t.Fatal("sufferage incomplete on single machine")
	}
}

func TestMinMinTinyHandComputed(t *testing.T) {
	// 2 tasks, 2 machines.
	// ETC: task0: [1, 10], task1: [2, 2].
	// Min-min: task0 has min completion 1 (m0); task1 has min 2 (m0 or
	// m1). Pick task0 -> m0 (CT0=1). Then task1: m0 gives 3, m1 gives 2,
	// so m1. Makespan 2.
	in, err := etc.New("tiny", 2, 2, []float64{1, 10, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	s := MinMin(in)
	if s.S[0] != 0 || s.S[1] != 1 {
		t.Fatalf("Min-min assignment %v, want [0 1]", s.S)
	}
	if got := s.Makespan(); got != 2 {
		t.Fatalf("makespan %v, want 2", got)
	}
}

func TestMaxMinTinyHandComputed(t *testing.T) {
	// Same instance: Max-min picks task1 first (its best completion, 2,
	// exceeds task0's 1). task1 -> m0 or m1 at 2 (m0 wins the scan tie
	// at equal CT? both CT=0: m0 first). Then task0: m0 gives 2+1=3, m1
	// gives 10; m0. Makespan 3.
	in, err := etc.New("tiny", 2, 2, []float64{1, 10, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	s := MaxMin(in)
	if got := s.Makespan(); got != 3 {
		t.Fatalf("makespan %v, want 3 (assignment %v)", got, s.S)
	}
}

func TestLJFRSJFRAssignsAllTasksOnce(t *testing.T) {
	in := testInstance(t, etc.SemiConsistent, 33, 7, 11)
	s := LJFRSJFR(in)
	count := 0
	for m := 0; m < in.M; m++ {
		count += s.CountOn(m)
	}
	if count != in.T {
		t.Fatalf("LJFR-SJFR assigned %d tasks, want %d", count, in.T)
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		h, err := ByName(name)
		if err != nil || h == nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("magic"); err == nil {
		t.Fatal("accepted bogus heuristic name")
	}
	// Aliases.
	for _, alias := range []string{"min-min", "max-min", "ljfrsjfr"} {
		if _, err := ByName(alias); err != nil {
			t.Fatalf("alias %q rejected: %v", alias, err)
		}
	}
}

func TestRandomUsesRNG(t *testing.T) {
	in := testInstance(t, etc.Inconsistent, 64, 8, 12)
	a := Random(in, rng.New(1))
	b := Random(in, rng.New(1))
	if a.HammingDistance(b) != 0 {
		t.Fatal("Random with same seed differs")
	}
	c := Random(in, rng.New(2))
	if a.HammingDistance(c) == 0 {
		t.Fatal("Random with different seed identical")
	}
}

func TestHeuristicRanking512x16(t *testing.T) {
	// Smoke-check the paper-scale instance: all heuristics complete and
	// Min-min / Sufferage land within sane bounds of each other.
	in := testInstance(t, etc.Inconsistent, 512, 16, 13)
	results := map[string]float64{}
	for name, h := range allHeuristics() {
		s := h(in)
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		results[name] = s.Makespan()
	}
	if results["minmin"] > 3*results["sufferage"] || results["sufferage"] > 3*results["minmin"] {
		t.Fatalf("minmin %v and sufferage %v suspiciously far apart", results["minmin"], results["sufferage"])
	}
}

// refMinMin is the textbook Min-min selection with cached per-task
// best completions: the bit-identity oracle for MinMin. Each step scans
// every unassigned task in its swap-remove list and keeps the first
// strictly smallest best completion time; a task's cached (machine,
// completion) pair is recomputed only after its machine grew.
func refMinMin(inst *etc.Instance) *schedule.Schedule {
	s := schedule.New(inst)
	unassigned := make([]int, inst.T)
	for i := range unassigned {
		unassigned[i] = i
	}
	bestMac := make([]int, inst.T)
	bestCT := make([]float64, inst.T)
	for i := range bestMac {
		bestMac[i] = -1
	}
	for len(unassigned) > 0 {
		chosenIdx, chosenMac := -1, -1
		chosenCT := math.Inf(1)
		for idx, t := range unassigned {
			if bestMac[t] < 0 {
				bestMac[t], bestCT[t] = bestCompletion(s, t)
			}
			if bestCT[t] < chosenCT {
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

// checkMinMinMatchesRef fails unless MinMin and refMinMin produce the
// same assignment and bit-equal makespans on in.
func checkMinMinMatchesRef(t testing.TB, in *etc.Instance) {
	t.Helper()
	got, want := MinMin(in), refMinMin(in)
	if d := got.HammingDistance(want); d != 0 {
		t.Fatalf("%s: MinMin differs from the reference on %d of %d tasks", in.Name, d, in.T)
	}
	if g, w := math.Float64bits(got.Makespan()), math.Float64bits(want.Makespan()); g != w {
		t.Fatalf("%s: makespan bits %#x, reference %#x", in.Name, g, w)
	}
}

// smallIntInstance builds a T×M instance with integer costs 1..4 (and,
// when withReady, integer ready times 0..2) from bytes: few distinct
// costs make equal completion times common, which exercises every
// tie-break.
func smallIntInstance(t testing.TB, tasks, machines int, data []byte, withReady bool) *etc.Instance {
	t.Helper()
	at := func(i int) int {
		if len(data) == 0 {
			return i
		}
		return int(data[i%len(data)])
	}
	row := make([]float64, tasks*machines)
	for i := range row {
		row[i] = float64(1 + at(i)%4)
	}
	in, err := etc.New(fmt.Sprintf("ints%dx%d", tasks, machines), tasks, machines, row)
	if err != nil {
		t.Fatal(err)
	}
	if withReady {
		ready := make([]float64, machines)
		for m := range ready {
			ready[m] = float64(at(len(row)+m) % 3)
		}
		if in, err = in.WithReady(ready); err != nil {
			t.Fatal(err)
		}
	}
	return in
}

func TestMinMinMatchesReference(t *testing.T) {
	for _, dims := range [][2]int{{64, 8}, {512, 16}, {2048, 32}} {
		for _, cl := range etc.AllClasses() {
			in, err := etc.Generate(etc.GenSpec{Class: cl, Tasks: dims[0], Machines: dims[1], Seed: etc.ClassSeed(cl)})
			if err != nil {
				t.Fatal(err)
			}
			checkMinMinMatchesRef(t, in)
		}
	}
	base := testInstance(t, etc.SemiConsistent, 256, 16, 21)
	ready := make([]float64, base.M)
	for m := range ready {
		ready[m] = float64(m%4) * 250
	}
	withReady, err := base.WithReady(ready)
	if err != nil {
		t.Fatal(err)
	}
	checkMinMinMatchesRef(t, withReady)

	r := rng.New(99)
	for i := 0; i < 200; i++ {
		tasks, machines := 1+r.Intn(48), 1+r.Intn(8)
		data := make([]byte, tasks*machines+machines)
		for j := range data {
			data[j] = byte(r.Intn(256))
		}
		checkMinMinMatchesRef(t, smallIntInstance(t, tasks, machines, data, i%2 == 1))
	}

	// Near ties: costs that differ only below the 32 high bits MinMin's
	// radix passes sort on, so the column order rests on the final
	// full-cost sweep.
	for i := 0; i < 50; i++ {
		tasks, machines := 1+r.Intn(48), 1+r.Intn(8)
		row := make([]float64, tasks*machines)
		for j := range row {
			row[j] = float64(1+r.Intn(2)) + float64(r.Intn(8))*0x1p-40
		}
		in, err := etc.New(fmt.Sprintf("near%d", i), tasks, machines, row)
		if err != nil {
			t.Fatal(err)
		}
		checkMinMinMatchesRef(t, in)
	}
}

func FuzzMinMinMatchesReference(f *testing.F) {
	f.Add(uint8(4), uint8(3), []byte{0, 1, 2, 3, 0, 0, 1, 1, 2, 2, 3, 3}, false)
	f.Add(uint8(17), uint8(5), []byte{7, 7, 7, 1}, true)
	f.Add(uint8(1), uint8(1), []byte{}, false)
	f.Add(uint8(40), uint8(8), []byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, true)
	f.Fuzz(func(t *testing.T, tasks, machines uint8, data []byte, withReady bool) {
		checkMinMinMatchesRef(t, smallIntInstance(t, 1+int(tasks)%64, 1+int(machines)%8, data, withReady))
	})
}

var benchSink *schedule.Schedule

func BenchmarkMinMin512x16(b *testing.B) {
	in := testInstance(b, etc.Inconsistent, 512, 16, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = MinMin(in)
	}
}

func BenchmarkSufferage512x16(b *testing.B) {
	in := testInstance(b, etc.Inconsistent, 512, 16, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = Sufferage(in)
	}
}

// BenchmarkHeuristics times the three selection heuristics on every
// consistency class at the paper's size and at the 2048×32 service
// size, e.g. BenchmarkHeuristics/minmin/c/2048x32.
func BenchmarkHeuristics(b *testing.B) {
	for _, h := range []struct {
		name string
		fn   Heuristic
	}{{"minmin", MinMin}, {"maxmin", MaxMin}, {"sufferage", Sufferage}} {
		for _, cons := range []etc.Consistency{etc.Consistent, etc.SemiConsistent, etc.Inconsistent} {
			for _, dims := range [][2]int{{512, 16}, {2048, 32}} {
				b.Run(fmt.Sprintf("%s/%s/%dx%d", h.name, cons, dims[0], dims[1]), func(b *testing.B) {
					in := testInstance(b, cons, dims[0], dims[1], 1)
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						benchSink = h.fn(in)
					}
				})
			}
		}
	}
}
