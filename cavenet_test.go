package cavenet

import (
	"strings"
	"testing"

	"cavenet/internal/sim"
)

// flowsTo0 is Table I's workload shape — every sender to node 0 at the
// default rate and size — with the traffic window pinned. A Scenario's
// zero window follows SimTime (a tenth in from either end), which is the
// paper's 10 s / 90 s only at 100 s.
func flowsTo0(start, stop sim.Time, senders ...int) []ScenarioFlow {
	flows := make([]ScenarioFlow, len(senders))
	for i, s := range senders {
		flows[i] = ScenarioFlow{Src: s, Dst: 0, Start: start, Stop: stop}
	}
	return flows
}

// quickScenario is a reduced Table I. The fleet is LaneVehicles — Nodes
// would be the station count over the default 30 vehicles.
func quickScenario(p Protocol) Scenario {
	return Scenario{
		Protocol:      p,
		LaneVehicles:  []int{10},
		CircuitMeters: 1000,
		SimTime:       20 * sim.Second,
		Flows:         flowsTo0(5*sim.Second, 15*sim.Second, 1, 2),
		CAWarmup:      50,
		Seed:          3,
	}
}

func TestRunQuickstart(t *testing.T) {
	res, err := Run(quickScenario(DYMO))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPDR() <= 0 {
		t.Fatal("no packets delivered in quickstart scenario")
	}
}

func TestCompareFacade(t *testing.T) {
	out, err := Compare(quickScenario(AODV), []Protocol{AODV, OLSR, DYMO})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("results = %d", len(out))
	}
}

func TestNS2RoundTripThroughFacade(t *testing.T) {
	trace, err := CircuitTrace(quickScenario(AODV))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := ExportNS2(&sb, trace); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "$node_(0) set X_") {
		t.Fatal("export does not look like an ns-2 scenario")
	}
	back, err := ImportNS2(strings.NewReader(sb.String()), 1, trace.Duration())
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != trace.NumNodes() {
		t.Fatalf("round trip lost nodes: %d vs %d", back.NumNodes(), trace.NumNodes())
	}
	// Running the scenario on the re-imported trace must work end to end —
	// the paper's BA→file→CPS pipeline.
	res, err := RunOnTrace(quickScenario(DYMO), back)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPDR() <= 0 {
		t.Fatal("scenario on re-imported trace delivered nothing")
	}
}

func TestAnalysisFacade(t *testing.T) {
	fcfg := DefaultFundamental
	fcfg.LaneLength, fcfg.Trials, fcfg.Iterations, fcfg.Seed = 100, 2, 50, 1
	pts, err := FundamentalDiagram(fcfg)
	if err != nil || len(pts) == 0 {
		t.Fatalf("fundamental diagram: %v", err)
	}
	scfg := DefaultSpaceTime
	scfg.Density, scfg.SlowdownP, scfg.Steps, scfg.Seed = 0.2, 0.3, 10, 1
	rows, err := SpaceTime(scfg)
	if err != nil || len(rows) != 10 {
		t.Fatalf("space-time: %v", err)
	}
	vcfg := DefaultVelocity
	vcfg.Density, vcfg.SlowdownP, vcfg.Steps, vcfg.Seed = 0.1, 0.3, 100, 1
	series, err := VelocitySeries(vcfg)
	if err != nil || len(series) != 100 {
		t.Fatalf("velocity: %v", err)
	}
	if got := Autocorrelation(series, 10); len(got) != 11 {
		t.Fatalf("acf len = %d", len(got))
	}
	if h := Hurst(series); h <= 0 || h > 1.5 {
		t.Fatalf("hurst = %v", h)
	}
	if tau := TransientTime(series, 3); tau < 0 || tau > 100 {
		t.Fatalf("tau = %d", tau)
	}
	pcfg := DefaultPeriodogram
	pcfg.Density, pcfg.SlowdownP, pcfg.Steps, pcfg.Seed = 0.1, 0.5, 1024, 1
	spec, err := Periodogram(pcfg)
	if err != nil || len(spec.Spectrum.Freq) == 0 {
		t.Fatalf("periodogram: %v", err)
	}
	tcfg := DefaultTransient
	tcfg.Density, tcfg.SlowdownP, tcfg.Steps, tcfg.Seed = 0.1, 0, 500, 1
	res, err := Transient(tcfg)
	if err != nil || len(res.Series) != 500 {
		t.Fatalf("transient: %v", err)
	}
	rcfg := DefaultRWDecay
	rcfg.Nodes, rcfg.Duration, rcfg.Seed = 10, 100, 1
	tr, vel, err := RandomWaypointDecay(rcfg)
	if err != nil || tr.NumNodes() != 10 || len(vel) == 0 {
		t.Fatal("rw decay facade broken")
	}
}
