package core

import (
	"fmt"
	"testing"

	"gridsched/internal/etc"
	"gridsched/internal/schedule"
)

// BenchmarkPopulationInit times setup_pop and initial_evaluation of
// Algorithm 2 for the default 16×16 population: the Min-min seed, the
// random draws, the bulk load and the fitness pass.
func BenchmarkPopulationInit(b *testing.B) {
	makespan := func(s *schedule.Schedule) float64 { return s.Makespan() }
	for _, dims := range [][2]int{{512, 16}, {2048, 32}} {
		b.Run(fmt.Sprintf("%dx%d", dims[0], dims[1]), func(b *testing.B) {
			in, err := etc.Generate(etc.GenSpec{
				Class: etc.Class{Consistency: etc.Inconsistent, TaskHet: etc.High, MachineHet: etc.High},
				Tasks: dims[0], Machines: dims[1], Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				newPopulation(in, 256, rngForTest(uint64(i)), true, nil, makespan)
			}
		})
	}
}
