package core

import (
	"testing"

	"cavenet/internal/scenario"
	"cavenet/internal/sim"
)

// lineScenario is a reduced Table I: 12 vehicles on 1200 m, 30 s, three
// senders to node 0 between 5 s and 25 s.
func lineScenario(p scenario.Protocol) scenario.Spec {
	var flows []scenario.Flow
	for s := 1; s <= 3; s++ {
		flows = append(flows, scenario.Flow{Src: s, Dst: 0, Start: 5 * sim.Second, Stop: 25 * sim.Second})
	}
	return scenario.Spec{
		Name:          "line",
		Protocol:      p,
		LaneVehicles:  []int{12},
		CircuitMeters: 1200,
		SimTime:       30 * sim.Second,
		Flows:         flows,
		CAWarmup:      100,
		Seed:          11,
	}
}

func TestStraightLineOption(t *testing.T) {
	tr, err := StraightLineTrace(lineScenario(scenario.AODV))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 12 {
		t.Fatalf("nodes = %d", tr.NumNodes())
	}
	if tr.NumSamples() != 32 {
		t.Fatalf("samples = %d, want simtime+2", tr.NumSamples())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Straight-line placement keeps everyone at the lane's y offset.
	for n := range tr.Positions {
		for _, p := range tr.Positions[n] {
			if p.Y != 10 {
				t.Fatalf("line lane y = %v", p.Y)
			}
		}
	}
	grid, _ := scenario.Get("manhattan")
	if _, err := StraightLineTrace(grid); err == nil {
		t.Fatal("a street grid has no straight-line variant")
	}
}

// TestRunScenarioAllProtocols hands the straight-line trace to the
// protocol simulator the way the §III-B ablation does — RunOnTrace over
// the spec the trace was built from — under each of the paper's protocols.
func TestRunScenarioAllProtocols(t *testing.T) {
	for _, p := range []scenario.Protocol{scenario.AODV, scenario.OLSR, scenario.DYMO} {
		t.Run(string(p), func(t *testing.T) {
			spec := lineScenario(p)
			tr, err := StraightLineTrace(spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := scenario.RunOnTrace(spec, tr)
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalPDR() < 0.3 {
				t.Fatalf("%s total PDR = %v; network should mostly work", p, res.TotalPDR())
			}
			for _, s := range res.Senders {
				if res.Sent[s] != 100 { // 20 s × 5 pkt/s
					t.Fatalf("sender %d sent %d, want 100", s, res.Sent[s])
				}
			}
			if res.ControlPackets == 0 || res.MACStats.DataTx == 0 {
				t.Fatalf("no routing overhead (%d) or MAC activity (%d) recorded", res.ControlPackets, res.MACStats.DataTx)
			}
		})
	}
}
