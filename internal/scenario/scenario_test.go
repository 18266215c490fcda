package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"cavenet/internal/scenario/check"
	"cavenet/internal/sim"
)

// TestCatalogue asserts the registry ships the promised workloads and that
// every spec validates.
func TestCatalogue(t *testing.T) {
	names := Names()
	if len(names) < 7 {
		t.Fatalf("catalogue has %d scenarios, want >= 7: %v", len(names), names)
	}
	for _, want := range []string{"highway", "multilane", "signalized", "rushhour", "bidirectional", "sparse", "metro"} {
		if _, ok := Get(want); !ok {
			t.Errorf("catalogue is missing %q", want)
		}
	}
	for _, s := range Specs() {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %s does not validate: %v", s.Name, err)
		}
		if s.Description == "" {
			t.Errorf("spec %s has no description", s.Name)
		}
	}
}

// TestRegistryCopies asserts Get hands out isolated copies: mutating a
// returned spec (or a Shrunk derivative) must not corrupt the catalogue.
func TestRegistryCopies(t *testing.T) {
	a, ok := Get("highway")
	if !ok {
		t.Fatal("highway not registered")
	}
	sh := a.Shrunk()
	if len(sh.Flows) == 0 {
		t.Fatal("shrunk spec has no flows")
	}
	sh.Flows[0].Rate = 999
	sh.LaneVehicles[0] = 1
	b, _ := Get("highway")
	if len(b.Flows) > 0 && b.Flows[0].Rate == 999 {
		t.Fatal("Shrunk aliases the registered spec's flows")
	}
	if b.LaneVehicles != nil && b.LaneVehicles[0] == 1 {
		t.Fatal("Shrunk aliases the registered spec's lane vehicles")
	}
}

// TestRegisterRejects covers duplicate and invalid registrations.
func TestRegisterRejects(t *testing.T) {
	if err := Register(Spec{Name: "highway"}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := Register(Spec{}); err == nil {
		t.Fatal("nameless registration accepted")
	}
	if err := Register(Spec{Name: "bad", Flows: []Flow{{Src: 3, Dst: 3}}}); err == nil {
		t.Fatal("self-flow registration accepted")
	}
}

// invariantSeeds reports the seed bank for the property suite: ≥ 20 seeds
// normally, trimmed in -short mode.
func invariantSeeds() []int64 {
	n := 20
	if testing.Short() {
		n = 3
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

// propertyNames lists the catalogue entries the exhaustive property
// suites cover: everything except Heavy scale workloads, which get
// targeted scaled coverage (see streaming_test.go) instead of the full
// scenario × protocol × seed grid.
func propertyNames(t *testing.T) []string {
	t.Helper()
	var names []string
	for _, name := range Names() {
		spec, ok := Get(name)
		if !ok {
			t.Fatalf("catalogue entry %q vanished", name)
		}
		if !spec.Heavy {
			names = append(names, name)
		}
	}
	return names
}

// TestCatalogueInvariants is the property-based suite of the issue: every
// registered scenario × every protocol × a bank of random seeds, run under
// the full invariant harness. Any violation — a vanished packet, a TTL
// anomaly, a routing loop, a CA collision or teleport, a missed metric
// floor — fails the test with the full report.
func TestCatalogueInvariants(t *testing.T) {
	for _, name := range propertyNames(t) {
		spec, _ := Get(name)
		for _, proto := range AllProtocols() {
			t.Run(fmt.Sprintf("%s/%s", name, proto), func(t *testing.T) {
				t.Parallel()
				for _, seed := range invariantSeeds() {
					run := spec.Shrunk()
					run.Protocol = proto
					run.Seed = seed
					res, report, err := RunChecked(run)
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if !report.Ok() {
						t.Errorf("seed %d: invariants violated:\n%s", seed, report)
					}
					if res == nil || len(res.Senders) == 0 {
						t.Fatalf("seed %d: empty result", seed)
					}
				}
			})
		}
	}
}

// TestCheckedRunMatchesUnchecked: the invariant harness only reads, so a
// checked run of every catalogue scenario under every protocol is deeply
// equal to the unchecked run, and does the same work: the same kernel,
// channel and OLSR counts, so not one routing table more is built.
func TestCheckedRunMatchesUnchecked(t *testing.T) {
	for _, name := range propertyNames(t) {
		spec, _ := Get(name)
		for _, proto := range AllProtocols() {
			t.Run(fmt.Sprintf("%s/%s", name, proto), func(t *testing.T) {
				t.Parallel()
				for _, seed := range []int64{1, 2} {
					run := spec.Shrunk()
					run.Protocol = proto
					run.Seed = seed
					plain, plainWork, err := workedRun(run, nil)
					if err != nil {
						t.Fatal(err)
					}
					checked, checkedWork, err := workedRun(run, check.NewReport())
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(plain, checked) {
						t.Fatalf("seed %d: the checked run differs from the unchecked one", seed)
					}
					if plainWork != checkedWork {
						t.Fatalf("seed %d: the checked run did other work than the unchecked one:\n got %+v\nwant %+v", seed, checkedWork, plainWork)
					}
				}
			})
		}
	}
}

// TestHighwayDYMONoLoopAtAnyWrite is the directed regression test for the
// loops an unknown sequence number opened (ROADMAP "One reactive router",
// loop defect 1): before that fix this shrunk highway/DYMO cell looped
// 9 ↔ 11 toward 7 from 2.1 s to 3.0 s and was clean again at the horizon,
// so only the write-time check sees it.
func TestHighwayDYMONoLoopAtAnyWrite(t *testing.T) {
	spec, _ := Get("highway")
	run := spec.Shrunk()
	run.Protocol = DYMO
	run.Seed = 1453492984902081475
	_, report, err := RunChecked(run)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Ok() {
		t.Fatalf("invariants violated:\n%s", report)
	}
}

// TestScenarioDeterminism is the determinism regression: every scenario
// replayed twice must produce deeply equal results, extending the PR 2
// bit-identical contract to the registry.
func TestScenarioDeterminism(t *testing.T) {
	for _, name := range propertyNames(t) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, _ := Get(name)
			run := spec.Shrunk()
			run.Seed = 42
			a, err := Run(run)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(run)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("scenario %s replay diverged", name)
			}
		})
	}
}

// TestSweepBitIdenticalAcrossWorkers extends the experiment engine's
// determinism contract to the scenario grid: the JSON-serialized sweep
// output must be byte-identical for 1 and 8 workers.
func TestSweepBitIdenticalAcrossWorkers(t *testing.T) {
	scenarios := []string{"highway", "sparse"}
	if testing.Short() {
		scenarios = scenarios[:1]
	}
	encode := func(workers int) []byte {
		rows, err := Sweep(SweepConfig{
			Scenarios: scenarios,
			Protocols: []Protocol{AODV, DYMO},
			Trials:    2,
			Seed:      7,
			Workers:   workers,
			Shrunk:    true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(rows); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one := encode(1)
	eight := encode(8)
	if !bytes.Equal(one, eight) {
		t.Fatalf("sweep output differs between 1 and 8 workers:\n%s\nvs\n%s", one, eight)
	}
}

// TestSweepChecked asserts the checked sweep counts zero violations over
// the catalogue cells it covers.
func TestSweepChecked(t *testing.T) {
	rows, err := Sweep(SweepConfig{
		Scenarios: []string{"signalized"},
		Protocols: []Protocol{OLSR},
		Trials:    1,
		Seed:      3,
		Shrunk:    true,
		Checked:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Violations != 0 {
			t.Errorf("%s/%s: %d invariant violations in sweep", row.Scenario, row.Protocol, row.Violations)
		}
	}
}

// TestShrunkPreservesIdentity asserts shrinking rescales time without
// touching the scenario's structure.
func TestShrunkPreservesIdentity(t *testing.T) {
	spec, _ := Get("multilane")
	sh := spec.Shrunk()
	if sh.SimTime != 20*sim.Second {
		t.Fatalf("shrunk sim time = %v", sh.SimTime)
	}
	if sh.Lanes != 3 || sh.LaneChangeP != 0.3 {
		t.Fatalf("shrinking changed the road structure: %+v", sh)
	}
	if got, want := len(sh.Flows), 6; got != want {
		t.Fatalf("shrunk flow count = %d, want %d", got, want)
	}
	for _, f := range sh.Flows {
		if f.Stop > sh.SimTime {
			t.Fatalf("shrunk flow window %v..%v exceeds sim time %v", f.Start, f.Stop, sh.SimTime)
		}
	}
}

// TestRampClampedToHorizon pins the fix for shortened rush-hour runs: a
// ramp longer than half the horizon is clamped so every vehicle activates
// within the run instead of being silently stranded in staging.
func TestRampClampedToHorizon(t *testing.T) {
	s, err := Spec{Name: "r", LaneVehicles: []int{10}, RampSeconds: 40, SimTime: 15 * sim.Second}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if s.RampSeconds != 7.5 {
		t.Fatalf("RampSeconds = %v, want 7.5", s.RampSeconds)
	}
	for i, at := range s.activationSteps() {
		if at > int(s.SimTime.Seconds()) {
			t.Fatalf("node %d activates at step %d, beyond the %v horizon", i, at, s.SimTime)
		}
	}
}

// TestEmptyFlowsMeansNoTraffic pins the nil-vs-empty Flows contract: nil
// defaults to the Table I workload, an explicit empty slice is a
// traffic-free (control-overhead-only) scenario.
func TestEmptyFlowsMeansNoTraffic(t *testing.T) {
	withDefault, err := Spec{Name: "d"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if len(withDefault.Flows) != 8 {
		t.Fatalf("nil flows -> %d flows, want the 8 Table I defaults", len(withDefault.Flows))
	}
	quiet, err := Spec{Name: "q", Flows: []Flow{}, SimTime: 5 * sim.Second}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if len(quiet.Flows) != 0 {
		t.Fatalf("explicit empty flows resurrected %d flows", len(quiet.Flows))
	}
	res, err := Run(quiet)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Senders) != 0 || res.ControlPackets == 0 {
		t.Fatalf("traffic-free run: senders=%v ctrl=%d", res.Senders, res.ControlPackets)
	}
}
