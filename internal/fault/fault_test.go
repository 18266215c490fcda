package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"cavenet/internal/geometry"
	"cavenet/internal/metrics"
	"cavenet/internal/netsim"
	"cavenet/internal/routing/aodv"
	"cavenet/internal/sim"
)

// fullSpec exercises every generator at once.
func fullSpec() Spec {
	return Spec{
		ChurnRatePerMin:  3,
		ChurnDownSec:     2,
		BlackoutStartSec: 5,
		BlackoutDurSec:   3,
		BlackoutFraction: 0.4,
		Impairs: []Impair{
			{A: 0, B: 1, StartSec: 2, DurSec: 6, Loss: 0.3, AttenDB: 2},
		},
	}
}

func TestBuildDeterministic(t *testing.T) {
	const nodes = 12
	horizon := 30 * sim.Second
	a, err := fullSpec().Build(42, nodes, horizon)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fullSpec().Build(42, nodes, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two Builds from identical inputs diverged")
	}
	if a.Empty() {
		t.Fatal("full spec built an empty plan; the determinism check is vacuous")
	}
	c, err := fullSpec().Build(43, nodes, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("changing the seed left the plan unchanged")
	}
	if err := a.Validate(nodes); err != nil {
		t.Fatalf("built plan fails its own validation: %v", err)
	}
}

func TestBuildChurnAlternatesWithinHorizon(t *testing.T) {
	const nodes = 8
	horizon := 60 * sim.Second
	plan, err := Spec{ChurnRatePerMin: 6, ChurnDownSec: 1}.Build(7, nodes, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Empty() {
		t.Fatal("6 outages/min over 60 s produced no events")
	}
	down := make(map[int]bool)
	downs := 0
	for i, e := range plan.Events {
		if e.At < 0 || e.At >= horizon {
			t.Fatalf("event %d at %v outside [0, %v)", i, e.At, horizon)
		}
		switch e.Kind {
		case NodeDown:
			if down[e.Node] {
				t.Fatalf("event %d downs node %d twice", i, e.Node)
			}
			down[e.Node] = true
			downs++
		case NodeUp:
			if !down[e.Node] {
				t.Fatalf("event %d ups node %d while up", i, e.Node)
			}
			down[e.Node] = false
		default:
			t.Fatalf("churn-only spec produced %v", e.Kind)
		}
	}
	if downs < nodes {
		t.Fatalf("only %d outages across %d nodes; expected churn on most of the fleet", downs, nodes)
	}
}

func TestValidateRejects(t *testing.T) {
	ev := func(es ...Event) Plan { return Plan{Events: es} }
	cases := []struct {
		name string
		plan Plan
		want string
	}{
		{"negative time", ev(Event{At: -1, Kind: NodeDown, Node: 0}), "negative time"},
		{"out of order", ev(
			Event{At: 2 * sim.Second, Kind: NodeDown, Node: 0},
			Event{At: sim.Second, Kind: NodeUp, Node: 0}), "out of order"},
		{"node out of range", ev(Event{Kind: NodeDown, Node: 9}), "of 4"},
		{"double down", ev(
			Event{At: 1, Kind: NodeDown, Node: 1},
			Event{At: 2, Kind: NodeDown, Node: 1}), "already down"},
		{"up while up", ev(Event{At: 1, Kind: NodeUp, Node: 1}), "already up"},
		{"self link", ev(Event{Kind: ImpairOn, A: 2, B: 2}), "self-link"},
		{"loss out of range", ev(Event{Kind: ImpairOn, A: 0, B: 1, Loss: 1.5}), "outside [0,1]"},
		{"negative attenuation", ev(Event{Kind: ImpairOn, A: 0, B: 1, AttenDB: -3}), "negative attenuation"},
		{"double impair", ev(
			Event{At: 1, Kind: ImpairOn, A: 0, B: 1},
			Event{At: 2, Kind: ImpairOn, A: 1, B: 0}), "already impaired"},
		{"clear unimpaired", ev(Event{At: 1, Kind: ImpairOff, A: 0, B: 1}), "unimpaired"},
		{"unknown kind", ev(Event{Kind: Kind(99)}), "unknown kind"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.plan.Validate(4)
			if err == nil {
				t.Fatalf("plan validated; want error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestWindowsMergeAndDowntime(t *testing.T) {
	p := Plan{Events: []Event{
		{At: 1 * sim.Second, Kind: NodeDown, Node: 0},
		{At: 2 * sim.Second, Kind: NodeDown, Node: 1},
		{At: 3 * sim.Second, Kind: NodeUp, Node: 0},
		{At: 4 * sim.Second, Kind: NodeUp, Node: 1},
		{At: 10 * sim.Second, Kind: ImpairOn, A: 0, B: 1, Loss: 1},
		{At: 12 * sim.Second, Kind: ImpairOff, A: 0, B: 1},
		// Open at the horizon: node 2 never recovers.
		{At: 18 * sim.Second, Kind: NodeDown, Node: 2},
	}}
	horizon := 20 * sim.Second
	if err := p.Validate(3); err != nil {
		t.Fatal(err)
	}
	got := p.Windows(horizon)
	want := []Window{
		{From: 1 * sim.Second, To: 4 * sim.Second},
		{From: 10 * sim.Second, To: 12 * sim.Second},
		{From: 18 * sim.Second, To: 20 * sim.Second},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Windows = %v, want %v", got, want)
	}
	// Node downtime: (1..3) + (2..4) + (18..20 clipped) = 6 node-seconds;
	// impairments are not node downtime.
	if d := p.DowntimeNodeSec(horizon); d != 6 {
		t.Fatalf("DowntimeNodeSec = %v, want 6", d)
	}
	if rec := p.Recoveries(); len(rec) != 2 || rec[0] != 3*sim.Second || rec[1] != 4*sim.Second {
		t.Fatalf("Recoveries = %v", rec)
	}
}

func TestParseSpec(t *testing.T) {
	good := []struct {
		text string
		want Spec
	}{
		{"churn:1.5", Spec{ChurnRatePerMin: 1.5}},
		{"churn:2,6,graceful", Spec{ChurnRatePerMin: 2, ChurnDownSec: 6, ChurnGraceful: true}},
		{"blackout:10,8", Spec{BlackoutStartSec: 10, BlackoutDurSec: 8}},
		{"blackout:10,8,0.7", Spec{BlackoutStartSec: 10, BlackoutDurSec: 8, BlackoutFraction: 0.7}},
		{"partition:5,20", Spec{PartitionStartSec: 5, PartitionDurSec: 20}},
		{"impair:0-3,4,12,0.5,3", Spec{Impairs: []Impair{{A: 0, B: 3, StartSec: 4, DurSec: 12, Loss: 0.5, AttenDB: 3}}}},
		{" churn:1 ; partition:5,5 ", Spec{ChurnRatePerMin: 1, PartitionStartSec: 5, PartitionDurSec: 5}},
		{"", Spec{}},
	}
	for _, c := range good {
		got, err := ParseSpec(c.text)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.text, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.text, got, c.want)
		}
	}
	bad := []string{
		"churn",                              // no colon
		"churn:x",                            // not a number
		"churn:1;churn:2",                    // duplicate clause
		"churn:-1",                           // negative
		"churn:1e9",                          // over cap
		"churn:NaN",                          // not finite
		"blackout:10",                        // too few args
		"blackout:10,8,1.5",                  // fraction over 1
		"partition:1,2,3",                    // too many args
		"impair:03,1,1",                      // pair lacks '-'
		"impair:0-0,1,1",                     // self link
		"impair:0-1,1,1,2",                   // loss over 1
		"impair:0-1,1,1,0.5,999",             // attenuation over cap
		"warp:1",                             // unknown kind
		strings.Repeat("churn:1;", 100),      // too many clauses
		"churn:" + strings.Repeat("1", 5000), // too long
	}
	for _, text := range bad {
		if _, err := ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q) accepted; want error", text)
		}
	}
}

// buildTrafficWorld wires a small static AODV world with scheduled CBR-like
// sends, returning the world after Run. apply lets the caller touch the
// world between construction and Run.
func buildTrafficWorld(t *testing.T, apply func(w *netsim.World)) *netsim.World {
	t.Helper()
	const n = 9
	pos := make([]geometry.Vec2, n)
	for i := range pos {
		pos[i] = geometry.Vec2{X: float64(i%3) * 180, Y: float64(i/3) * 180}
	}
	w, err := netsim.NewWorld(netsim.WorldConfig{
		Nodes: n, Seed: 21, Static: pos,
	}, func(node *netsim.Node) netsim.Router { return aodv.New(node, aodv.Config{}) })
	if err != nil {
		t.Fatal(err)
	}
	w.Node(0).AttachPort(netsim.PortCBR, netsim.PortFunc(func(p *netsim.Packet, at sim.Time) {}))
	for s := 1; s < n; s++ {
		src := w.Node(s)
		for at := sim.Time(s) * 100 * sim.Millisecond; at < 8*sim.Second; at += 400 * sim.Millisecond {
			w.Kernel.Schedule(at, func() {
				src.SendData(src.NewPacket(0, netsim.PortCBR, 128))
			})
		}
	}
	if apply != nil {
		apply(w)
	}
	w.Run(10 * sim.Second)
	return w
}

// TestEmptyPlanIsByteIdenticalNoOp is the differential gate: applying the
// empty Plan must leave a run indistinguishable from one that never called
// into the fault package at all.
func TestEmptyPlanIsByteIdenticalNoOp(t *testing.T) {
	plain := buildTrafficWorld(t, nil)
	empty := buildTrafficWorld(t, func(w *netsim.World) {
		if err := Apply(w, Plan{}); err != nil {
			t.Fatal(err)
		}
	})
	if a, b := plain.Kernel.Processed(), empty.Kernel.Processed(); a != b {
		t.Fatalf("kernel processed %d events without the fault layer, %d with an empty plan", a, b)
	}
	for i := 0; i < plain.NumNodes(); i++ {
		if a, b := plain.Node(i).Counters(), empty.Node(i).Counters(); a != b {
			t.Fatalf("node %d counters diverged: %+v vs %+v", i, a, b)
		}
		if a, b := plain.Node(i).MAC().Stats(), empty.Node(i).MAC().Stats(); a != b {
			t.Fatalf("node %d MAC stats diverged: %+v vs %+v", i, a, b)
		}
	}
}

// TestApplyChurnPerturbs is the non-vacuity partner of the empty-plan gate:
// a real plan must actually change the run.
func TestApplyChurnPerturbs(t *testing.T) {
	plan, err := Spec{ChurnRatePerMin: 8, ChurnDownSec: 2}.Build(21, 9, 10*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Empty() {
		t.Fatal("churn plan is empty")
	}
	plain := buildTrafficWorld(t, nil)
	churned := buildTrafficWorld(t, func(w *netsim.World) {
		if err := Apply(w, plan); err != nil {
			t.Fatal(err)
		}
	})
	downs := 0
	for i := 0; i < churned.NumNodes(); i++ {
		downs += int(churned.Node(i).MAC().Stats().DownDrops)
	}
	if plain.Kernel.Processed() == churned.Kernel.Processed() && downs == 0 {
		t.Fatal("churn plan left the run untouched")
	}
}

// TestCrashKeepsControlOverhead: a crash replaces the node's router, but
// the control packets the discarded router sent stay counted at the node,
// so the run's routing overhead keeps them.
func TestCrashKeepsControlOverhead(t *testing.T) {
	const k = 4
	var before, after netsim.NodeCounters
	w := buildTrafficWorld(t, func(w *netsim.World) {
		w.Kernel.Schedule(4*sim.Second, func() {
			before = w.Node(k).Counters()
			w.Node(k).Down(false)
			after = w.Node(k).Counters()
		})
		w.Kernel.Schedule(6*sim.Second, func() { w.Node(k).Up() })
	})
	// The pin is what the discarded router itself counted by then: its
	// HELLOs, RREQs and unicast RREPs.
	if before.ControlPackets != 8 || before.ControlBytes != 328 {
		t.Fatalf("node %d sent %d/%d control packets/bytes before the crash, want 8/328",
			k, before.ControlPackets, before.ControlBytes)
	}
	if after.ControlPackets != before.ControlPackets || after.ControlBytes != before.ControlBytes {
		t.Fatalf("the crash reset node %d's control count: %d/%d before, %d/%d after",
			k, before.ControlPackets, before.ControlBytes, after.ControlPackets, after.ControlBytes)
	}
	end := w.Node(k).Counters()
	if end.ControlPackets <= before.ControlPackets {
		t.Fatalf("the recovered router's traffic was not counted: %d control packets at the crash, %d at the end",
			before.ControlPackets, end.ControlPackets)
	}
	var pkts, bytes uint64
	for _, n := range w.Nodes() {
		pkts += n.Counters().ControlPackets
		bytes += n.Counters().ControlBytes
	}
	if gp, gb := metrics.RoutingOverhead(w); gp != pkts || gb != bytes || pkts != 140 {
		t.Fatalf("RoutingOverhead = %d/%d, per-node sum %d/%d, want 140 packets", gp, gb, pkts, bytes)
	}
}

func TestApplyRejectsInvalidPlan(t *testing.T) {
	w, err := netsim.NewWorld(netsim.WorldConfig{
		Nodes: 2, Seed: 1, Static: []geometry.Vec2{{X: 0, Y: 0}, {X: 50, Y: 0}},
	}, func(node *netsim.Node) netsim.Router { return aodv.New(node, aodv.Config{}) })
	if err != nil {
		t.Fatal(err)
	}
	bad := Plan{Events: []Event{{Kind: NodeDown, Node: 7}}}
	if err := Apply(w, bad); err == nil {
		t.Fatal("Apply accepted a plan targeting a node outside the world")
	}
}

func TestMeterClassifiesByWindow(t *testing.T) {
	p := Plan{Events: []Event{
		{At: 4 * sim.Second, Kind: NodeDown, Node: 0},
		{At: 6 * sim.Second, Kind: NodeUp, Node: 0},
	}}
	m := NewMeter(p, 10*sim.Second)
	if got := m.Result(); got.Windows != 1 || got.DowntimeNodeSec != 2 || got.Recoveries != 1 {
		t.Fatalf("meter header = %+v", got)
	}
	if m.during(3 * sim.Second) {
		t.Fatal("t=3s classified as inside the [4,6) window")
	}
	if !m.during(4 * sim.Second) {
		t.Fatal("t=4s classified as outside the [4,6) window")
	}
	if m.during(6 * sim.Second) {
		t.Fatal("t=6s classified as inside the half-open [4,6) window")
	}
}

// TestImpairErrorsPinned pins the error of each impairment clause byte for
// byte (the clause's name is formatted only on failure), and a spec that
// validates costs no allocation however many clauses it has.
func TestImpairErrorsPinned(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	ok := Impair{A: 0, B: 3, StartSec: 4, DurSec: 12, Loss: 0.5, AttenDB: 3}
	for _, c := range []struct {
		bad  Impair
		want string
	}{
		{Impair{A: 0, B: 3, StartSec: -1, DurSec: 12, Loss: 0.5, AttenDB: 3}, "fault: impair 1 start -1 is negative"},
		{Impair{A: 0, B: 3, StartSec: 4, DurSec: nan, Loss: 0.5, AttenDB: 3}, "fault: impair 1 duration NaN is not finite"},
		{Impair{A: 0, B: 3, StartSec: 4, DurSec: 12, Loss: 2, AttenDB: 3}, "fault: impair 1 loss 2 exceeds cap 1"},
		{Impair{A: 0, B: 3, StartSec: 4, DurSec: 12, Loss: 0.5, AttenDB: inf}, "fault: impair 1 attenuation dB +Inf is not finite"},
	} {
		err := Spec{Impairs: []Impair{ok, c.bad}}.Validate()
		if err == nil || err.Error() != c.want {
			t.Errorf("Validate = %v, want %q", err, c.want)
		}
	}
	s := Spec{Impairs: []Impair{ok, ok, ok, ok}}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Validate of a valid spec allocates %.1f times, want 0", allocs)
	}
}
