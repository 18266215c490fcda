package scenario

import (
	"testing"

	"cavenet/internal/sim"
)

// BenchmarkSweepEnsemble20 is the paper's ensemble unit of work: 20
// replications of one protocol scenario. The engine sizes its pool from
// GOMAXPROCS, so `go test -bench SweepEnsemble20 -cpu 1,2,4,8` produces
// the parallel-speedup column of PERF.md directly.
func BenchmarkSweepEnsemble20(b *testing.B) {
	grid := SweepConfig{
		Specs:     densitySpecs(10),
		Protocols: []Protocol{AODV},
		Trials:    20,
		Seed:      1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(grid); err != nil {
			b.Fatal(err)
		}
	}
}

// n1kSpec is the routing-scale end-to-end scenario: 1000 vehicles at
// highway density (1 per 15 m) on a 15 km circuit, 10 s of simulated time.
// At this scale the OLSR control plane used to dominate the run — see the
// "Routing control plane" section of PERF.md.
func n1kSpec() Spec {
	return Spec{
		Name:          "n1k",
		LaneVehicles:  []int{1000},
		CircuitMeters: 15000,
		SimTime:       10 * sim.Second,
		Flows:         flowsTo0(2*sim.Second, 8*sim.Second, 1, 2, 3, 4, 5, 6, 7, 8),
		CAWarmup:      50,
		Seed:          1,
	}
}

// BenchmarkCompareN1000 runs the paper's protocol comparison at N=1000
// over a shared mobility trace — the ROADMAP-scale sweep cell.
// Iteration-based benchtime only (the trace is rebuilt per iteration).
func BenchmarkCompareN1000(b *testing.B) {
	spec := n1kSpec()
	for i := 0; i < b.N; i++ {
		if _, err := Compare(spec, []Protocol{AODV, OLSR, DYMO}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioOLSRN1000 isolates the OLSR cell of the comparison (the
// control-plane-bound one; the trace build is excluded from the timing).
func BenchmarkScenarioOLSRN1000(b *testing.B) {
	spec := n1kSpec()
	spec.Protocol = OLSR
	trace, err := BuildTrace(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunOnTrace(spec, trace); err != nil {
			b.Fatal(err)
		}
	}
}
