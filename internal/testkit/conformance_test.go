package testkit_test

import (
	"testing"

	"gridsched/internal/solver"
	"gridsched/internal/testkit"

	// Link every solver family so the registry the suite iterates is the
	// same full set the gridsched facade and the service see. A new
	// solver package added here (and to the facade) is conformance-
	// checked automatically — there is nothing else to write.
	_ "gridsched/internal/baselines"
	_ "gridsched/internal/core"
	_ "gridsched/internal/heuristics"
	_ "gridsched/internal/portfolio"
	_ "gridsched/internal/tabu"
)

// TestSolverConformance is the canonical all-solver conformance run:
// every name in solver.Names(), every property, no special cases.
func TestSolverConformance(t *testing.T) {
	testkit.RunConformance(t)
}

// TestRegistryCoversKnownFamilies fails loudly if a solver family
// drops out of the registry (a lost blank import, a renamed solver):
// the conformance suite iterating Names() would otherwise silently
// shrink with it.
func TestRegistryCoversKnownFamilies(t *testing.T) {
	for _, name := range []string{
		"pa-cga", "sync-cga", "struggle", "cma-lth", "generational",
		"islands", "tabu", "h2ll", "portfolio",
		"minmin", "maxmin", "sufferage", "mct", "met", "olb", "ljfr-sjfr",
	} {
		if _, err := solver.Lookup(name); err != nil {
			t.Errorf("expected solver %q missing from registry: %v", name, err)
		}
	}
}
