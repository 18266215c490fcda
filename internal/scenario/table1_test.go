package scenario

import (
	"math"
	"reflect"
	"testing"

	"cavenet/internal/sim"
)

// These tests cover the paper's experiment shape — Table I's circuit, one
// receiver, a density axis given as Specs, a shared trace per trial — on
// Spec → Grid → Result.

// flowsTo0 is Table I's workload shape with the traffic window pinned: a
// Flow's zero window follows SimTime instead.
func flowsTo0(start, stop sim.Time, senders ...int) []Flow {
	flows := make([]Flow, len(senders))
	for i, s := range senders {
		flows[i] = Flow{Src: s, Dst: 0, Start: start, Stop: stop}
	}
	return flows
}

// smallTable1 is a reduced Table I that keeps test runtime in check: 12
// vehicles on a 1200 m circuit, 30 s, 3 senders.
func smallTable1(p Protocol) Spec {
	return Spec{
		Name:          "small",
		Protocol:      p,
		LaneVehicles:  []int{12},
		CircuitMeters: 1200,
		SimTime:       30 * sim.Second,
		Flows:         flowsTo0(5*sim.Second, 25*sim.Second, 1, 2, 3),
		CAWarmup:      100,
		Seed:          11,
	}
}

// densitySpecs is the paper's density axis in miniature: the same 1 km
// circuit at each fleet size.
func densitySpecs(fleets ...int) []Spec {
	specs := make([]Spec, len(fleets))
	for i, n := range fleets {
		specs[i] = Spec{
			Name:          "density",
			LaneVehicles:  []int{n},
			CircuitMeters: 1000,
			SimTime:       10 * sim.Second,
			Flows:         flowsTo0(2*sim.Second, 8*sim.Second, 1, 2),
			CAWarmup:      50,
		}
	}
	return specs
}

func TestSpecValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Spec){
		"unknown protocol":       func(s *Spec) { s.Protocol = "ospf" },
		"receiver out of range":  func(s *Spec) { s.Flows[0].Dst = 99 },
		"sender is the receiver": func(s *Spec) { s.Flows[0].Src = 0 },
		"sender out of range":    func(s *Spec) { s.Flows[0].Src = 50 },
		// Nodes counts stations over the fleet, it does not size it.
		"more stations than vehicles": func(s *Spec) { s.Nodes = 13 },
		"empty lane":                  func(s *Spec) { s.LaneVehicles = []int{0} },
		"negative horizon":            func(s *Spec) { s.SimTime = -sim.Second },
		"inverted window":             func(s *Spec) { s.Flows[0].Stop = sim.Second },
	} {
		bad := smallTable1(AODV)
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: spec validated", name)
		}
		if _, err := Run(bad); err == nil {
			t.Errorf("%s: spec ran", name)
		}
	}
}

func TestGoodputConsistentWithDeliveries(t *testing.T) {
	res, err := Run(smallTable1(DYMO))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Senders {
		if res.Sent[s] != 100 { // 20 s × 5 pkt/s
			t.Fatalf("sender %d sent %d, want 100", s, res.Sent[s])
		}
		if len(res.Goodput[s]) != 31 {
			t.Fatalf("sender %d: %d goodput bins, want 31", s, len(res.Goodput[s]))
		}
		bits := 0.0
		for _, bps := range res.Goodput[s] {
			bits += bps // 1-second bins: bps == bits in the bin
		}
		if want := float64(res.Delivered[s] * 512 * 8); bits != want {
			t.Fatalf("sender %d: goodput integrates to %v bits, deliveries say %v", s, bits, want)
		}
	}
}

// TestCompareMatchesDirectRuns pins the parallel Compare to the loop it
// stands for: one result per protocol, each labelled with its protocol
// and deeply equal to a direct run over the same recorded trace.
func TestCompareMatchesDirectRuns(t *testing.T) {
	spec := densitySpecs(10)[0]
	spec.Seed = 5
	protocols := []Protocol{AODV, OLSR, DYMO}
	got, err := Compare(spec, protocols)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(protocols) {
		t.Fatalf("%d results for %d protocols", len(got), len(protocols))
	}
	trace, err := BuildTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range protocols {
		run := spec
		run.Protocol = p
		want, err := RunOnTrace(run, trace)
		if err != nil {
			t.Fatal(err)
		}
		if got[p].Spec.Protocol != p {
			t.Fatalf("%s result is labelled %s", p, got[p].Spec.Protocol)
		}
		if !reflect.DeepEqual(got[p], want) {
			t.Fatalf("%s: parallel Compare diverges from the direct run", p)
		}
	}
	if _, err := Compare(spec, []Protocol{AODV, "dsr"}); err == nil {
		t.Fatal("unknown protocol must fail")
	}
}

// TestGridSpecsShapeAndAggregation runs a density grid handed over as
// Specs: row order and labels, trial aggregation, and the two scalars the
// density view reads (summed goodput per 1-s bin, MAC retries) checked
// against a direct run of the same cell.
func TestGridSpecsShapeAndAggregation(t *testing.T) {
	g, err := NewGrid(SweepConfig{
		Specs:     densitySpecs(10, 8),
		Protocols: []Protocol{DYMO, AODV},
		Trials:    3,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := g.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	// Scenarios outermost in the order given, protocols in the order given.
	wantOrder := []struct {
		n int
		p Protocol
	}{{10, DYMO}, {10, AODV}, {8, DYMO}, {8, AODV}}
	if len(rows) != len(wantOrder) {
		t.Fatalf("%d rows, want 2 fleets × 2 protocols", len(rows))
	}
	for i, w := range wantOrder {
		r := rows[i]
		if r.Scenario != "density" || r.Nodes != w.n || r.Protocol != w.p {
			t.Fatalf("row %d = (%s, %d, %s), want (density, %d, %s)", i, r.Scenario, r.Nodes, r.Protocol, w.n, w.p)
		}
		if r.Trials != 3 || r.PDR.N != 3 || r.GoodputBPS.N != 3 || r.MACRetries.N != 3 {
			t.Fatalf("row %+v did not aggregate 3 trials", r)
		}
		if r.PDR.Mean <= 0 || r.GoodputBPS.Mean <= 0 {
			t.Fatalf("no traffic delivered for %+v", r)
		}
	}

	// A spec that leaves its fleet to the default still reports it.
	table1, err := NewGrid(SweepConfig{Specs: []Spec{{Name: "table1"}}, Protocols: []Protocol{AODV}})
	if err != nil {
		t.Fatal(err)
	}
	if row := table1.Aggregate([][]TrialResult{{{}}})[0]; row.Nodes != 30 {
		t.Fatalf("Table I row reports %d vehicles", row.Nodes)
	}

	spec, err := g.CellSpec(1)
	if err != nil {
		t.Fatal(err)
	}
	spec.Protocol = AODV
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	cell, err := g.RunCell(1, []Protocol{AODV})
	if err != nil {
		t.Fatal(err)
	}
	const bins = 11 // 10 s of 1-s bins, both ends included
	if want := float64(res.TotalDelivered()*512*8) / bins; math.Abs(cell[0].GoodputBPS-want) > 1e-9*want {
		t.Fatalf("goodput %v bps, deliveries over %d bins say %v", cell[0].GoodputBPS, bins, want)
	}
	if cell[0].MACRetries != float64(res.MACStats.Retries) || cell[0].PDR != res.TotalPDR() {
		t.Fatalf("cell %+v disagrees with the direct run (retries %d, PDR %v)", cell[0], res.MACStats.Retries, res.TotalPDR())
	}
}

// TestGridRejectsBeforeRunning: every way a Specs grid can be unrunnable
// is an error from NewGrid, not from a worker.
func TestGridRejectsBeforeRunning(t *testing.T) {
	ok := densitySpecs(10)
	emptyLane := densitySpecs(10, 0)
	ownProtocol := densitySpecs(10)
	ownProtocol[0].Protocol = "dsr"
	for name, cfg := range map[string]SweepConfig{
		"unknown protocol on the axis":   {Specs: ok, Protocols: []Protocol{"dsr"}},
		"unknown protocol in a spec":     {Specs: ownProtocol},
		"invalid second spec":            {Specs: emptyLane},
		"negative trials":                {Specs: ok, Trials: -1},
		"override below a flow endpoint": {Specs: ok, OverrideNodes: 1},
		"specs and names":                {Specs: ok, Scenarios: []string{"highway"}},
		"negative time override":         {Specs: ok, OverrideTimeSec: -5},
		"negative nodes override":        {Specs: ok, OverrideNodes: -3},
		// The run bound, on each axis, and a run count that would wrap.
		"one trial over the run bound": {Specs: ok, Protocols: []Protocol{AODV}, Trials: maxGridRuns + 1},
		"over the bound by protocols":  {Specs: ok, Protocols: AllProtocols(), Trials: maxGridRuns/4 + 1},
		"over the bound by scenarios":  {Specs: densitySpecs(10, 10), Protocols: AllProtocols(), Trials: maxGridRuns/8 + 1},
		"a wrapping run count":         {Specs: densitySpecs(10, 10), Protocols: AllProtocols(), Trials: math.MaxInt/4 + 1},
	} {
		if _, err := NewGrid(cfg); err == nil {
			t.Errorf("%s: grid accepted", name)
		}
	}
}

// TestGridRunBound: a grid of exactly maxGridRuns runs is accepted
// (TestGridRejectsBeforeRunning refuses one more, on every axis).
func TestGridRunBound(t *testing.T) {
	for _, cfg := range []SweepConfig{
		{Specs: densitySpecs(10), Protocols: []Protocol{AODV}, Trials: maxGridRuns},
		{Specs: densitySpecs(10, 10), Protocols: AllProtocols(), Trials: maxGridRuns / 8},
	} {
		g, err := NewGrid(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if runs := g.Cells() * len(g.Protocols); runs != maxGridRuns {
			t.Fatalf("grid of %d runs, want %d", runs, maxGridRuns)
		}
	}
}

// TestCellSpecIsNormalized: NewGrid normalizes each spec once and a cell
// only forks the seed, which is sound as long as no default depends on
// the seed — every cell spec must be a fixed point of normalization.
func TestCellSpecIsNormalized(t *testing.T) {
	g, err := NewGrid(SweepConfig{Scenarios: Names(), Trials: 2, Seed: 3, Shrunk: true, OverrideTimeSec: 7})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < g.Cells(); j++ {
		cell, err := g.CellSpec(j)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := cell.Normalized(); err != nil || !reflect.DeepEqual(cell, again) {
			t.Fatalf("cell %d (%s) changes under normalization (err %v)", j, cell.Name, err)
		}
	}
}
