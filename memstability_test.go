package cavenet

import (
	"math/rand"
	"runtime"
	"testing"

	"cavenet/internal/ca"
	"cavenet/internal/fault"
	"cavenet/internal/geometry"
	"cavenet/internal/mobility"
	"cavenet/internal/netsim"
	"cavenet/internal/routing/aodv"
	"cavenet/internal/routing/dymo"
	"cavenet/internal/routing/olsr"
	"cavenet/internal/scenario/check"
	"cavenet/internal/sim"
	"cavenet/internal/traffic"
)

// Memory-stability tests for the lazy-expiry control plane: over a long
// run at fixed density, dedup and topology table sizes (and the expiry-heap
// backlogs behind them) must hold steady — the lazy heaps actually reclaim
// entries between purges instead of letting seen/dups grow without bound.

// gridPositions lays nodes on a connected grid at the given spacing.
func gridPositions(n int, cols int, spacing float64) []geometry.Vec2 {
	out := make([]geometry.Vec2, n)
	for i := range out {
		out[i] = geometry.Vec2{X: float64(i%cols) * spacing, Y: float64(i/cols) * spacing}
	}
	return out
}

// retainedHeap runs f, garbage-collects, and reports how much heap the
// value f returned keeps retained (net of the pre-existing baseline).
func retainedHeap(t *testing.T, f func() any) (any, uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	keep := f()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc < before.HeapAlloc {
		return keep, 0
	}
	return keep, after.HeapAlloc - before.HeapAlloc
}

// metroRoad builds a 10k-vehicle single-ring road (40k cells keeps the
// same 0.25 density regime as the metro workload) with a fixed seed so
// the recorded and streamed measurements drive identical CA dynamics.
func metroRoad(t *testing.T) *ca.Road {
	t.Helper()
	road, err := ca.NewRoad([]ca.LaneSpec{{
		Config: ca.Config{Length: 40000, Vehicles: 10000, SlowdownP: 0.3, Boundary: ca.RingBoundary},
		Placement: geometry.Ring{
			Center:        geometry.Vec2{X: 150000, Y: 150000},
			Circumference: 300000,
		},
	}}, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	return road
}

// TestMobilityMemoryScalesWithNodesNotSamples is the streaming-mobility
// memory claim at N=10k: driving a live road source across a 300 s
// horizon retains O(nodes) heap (two interpolation rows plus the CA
// state), while recording the same road grows O(nodes × samples). The
// recorded trace for this configuration is ~10k × 301 positions ≈ 48 MB;
// the source must stay at least an order of magnitude below it.
func TestMobilityMemoryScalesWithNodesNotSamples(t *testing.T) {
	const steps = 300
	const horizon = float64(steps) // seconds; CA samples are 1 s apart

	recordedKeep, recordedBytes := retainedHeap(t, func() any {
		return mobility.RecordRoad(metroRoad(t), steps)
	})

	streamedKeep, streamedBytes := retainedHeap(t, func() any {
		src, err := mobility.NewRoadSource(mobility.RoadSourceConfig{Road: metroRoad(t), Steps: steps})
		if err != nil {
			t.Fatal(err)
		}
		// Drive the source across the whole horizon at the world's tick
		// granularity, like a live run would.
		for tick := 0; float64(tick)*0.1 <= horizon; tick++ {
			tsec := float64(tick) * 0.1
			for n := 0; n < src.NumNodes(); n++ {
				src.At(n, tsec)
			}
		}
		return src
	})

	trace := recordedKeep.(*mobility.SampledTrace)
	if trace.NumNodes() != 10000 || trace.NumSamples() != steps+1 {
		t.Fatalf("recorded trace is %d x %d, expected 10000 x %d", trace.NumNodes(), trace.NumSamples(), steps+1)
	}
	// Sanity-floor the recorded measurement against its known payload so a
	// GC accounting glitch cannot make the comparison vacuous.
	if minRecorded := uint64(trace.NumNodes()*trace.NumSamples()) * 16; recordedBytes < minRecorded {
		t.Fatalf("recorded path retained %d B, below its own %d B position payload — measurement broken", recordedBytes, minRecorded)
	}
	if streamedBytes*10 > recordedBytes {
		t.Fatalf("streamed mobility retained %d B vs %d B recorded — not O(nodes) anymore", streamedBytes, recordedBytes)
	}
	runtime.KeepAlive(streamedKeep)
	runtime.KeepAlive(recordedKeep)
}

func TestOLSRTableSizesSteadyOverLongRun(t *testing.T) {
	const n = 12
	w, err := netsim.NewWorld(netsim.WorldConfig{
		Nodes: n, Seed: 5, Static: gridPositions(n, 4, 180),
	}, func(node *netsim.Node) netsim.Router {
		return olsr.New(node, olsr.Config{})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Measure from 60 s, twice DUP_HOLD_TIME (30 s), so the dedup table is
	// already in its steady state.
	var mid [n]olsr.TableStats
	w.Kernel.Schedule(60*sim.Second, func() {
		for i := 0; i < n; i++ {
			mid[i] = w.Node(i).Router().(*olsr.Router).TableStats()
		}
	})
	w.Run(120 * sim.Second)

	for i := 0; i < n; i++ {
		end := w.Node(i).Router().(*olsr.Router).TableStats()
		if mid[i].Dups == 0 || mid[i].Topology == 0 {
			t.Fatalf("node %d: no control state at mid-run: %+v", i, mid[i])
		}
		// Steady state: a fixed topology holds table sizes flat; allow a
		// small slack for tick phase.
		checks := []struct {
			name     string
			mid, end int
		}{
			{"dups", mid[i].Dups, end.Dups},
			{"topology", mid[i].Topology, end.Topology},
			{"twohop", mid[i].TwoHop, end.TwoHop},
			{"links", mid[i].Links, end.Links},
			{"items", mid[i].Items, end.Items},
		}
		for _, c := range checks {
			if c.end > c.mid+c.mid/2+4 {
				t.Errorf("node %d: %s grew %d → %d over the second half of the run",
					i, c.name, c.mid, c.end)
			}
		}
	}
}

// dataPlaneSteadyAtScale is the N=1000 steady-state pin behind
// TestAODVDataPlaneSteadyAtScale and TestDYMODataPlaneSteadyAtScale: on a
// static 25×40 grid with four long-lived CBR flows, the second minute of
// the run must allocate no more than the first (discovery floods, table
// growth and pool fills all happen up front; steady forwarding reuses
// dense table slots and pooled packets) and must not grow the retained
// heap beyond a small settle margin.
func dataPlaneSteadyAtScale(t *testing.T, factory netsim.RouterFactory) {
	const (
		n      = 1000
		window = 60 * sim.Second
	)
	w, err := netsim.NewWorld(netsim.WorldConfig{
		Nodes: n, Seed: 7, Static: gridPositions(n, 25, 180),
	}, factory)
	if err != nil {
		t.Fatal(err)
	}
	sink := &traffic.Sink{}
	w.Node(0).AttachPort(netsim.PortCBR, sink)
	// Senders 2–10 hops out; every flow outlives both windows, so the
	// traffic offered to the second minute is identical to the first.
	for _, s := range []int{55, 130, 260, 380} {
		traffic.NewCBR(w.Node(s), traffic.CBRConfig{
			Dst: 0, PacketBytes: 128, Rate: 5, Stop: 2 * window,
		}).Start()
	}

	var ms runtime.MemStats
	measure := func() (mallocs uint64, retained uint64) {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.Mallocs, ms.HeapAlloc
	}
	m0, _ := measure()
	w.Run(window)
	m1, r1 := measure()
	w.Run(2 * window)
	m2, r2 := measure()

	if sink.Received == 0 {
		t.Fatal("no packets delivered; the pin is vacuous")
	}
	warm, steady := m1-m0, m2-m1
	if steady > warm+warm/10 {
		t.Fatalf("steady minute allocated %d objects vs %d during warm-up — the data plane is allocating per packet", steady, warm)
	}
	if r2 > r1+r1/4+1<<20 {
		t.Fatalf("retained heap grew %d B → %d B over the steady minute", r1, r2)
	}
}

func TestAODVDataPlaneSteadyAtScale(t *testing.T) {
	dataPlaneSteadyAtScale(t, func(node *netsim.Node) netsim.Router {
		return aodv.New(node, aodv.Config{})
	})
}

func TestDYMODataPlaneSteadyAtScale(t *testing.T) {
	dataPlaneSteadyAtScale(t, func(node *netsim.Node) netsim.Router {
		return dymo.New(node, dymo.Config{})
	})
}

// TestLedgerMemoryBoundedUnderChurn pins the invariant harness's own
// streaming discipline in the regime fault injection makes hardest: node
// churn keeps crashing custodians mid-flow, so packets terminate through
// every path the ledger knows — deliveries, link failures, node:down
// flushes. The live entry count must track packets in flight (plus the
// settle-grace tail), not packets ever sent, and compaction must actually
// retire entries while the run is still churning.
func TestLedgerMemoryBoundedUnderChurn(t *testing.T) {
	const (
		n       = 16
		horizon = 120 * sim.Second
	)
	w, err := netsim.NewWorld(netsim.WorldConfig{
		Nodes: n, Seed: 3, Static: gridPositions(n, 4, 180),
	}, func(node *netsim.Node) netsim.Router {
		return dymo.New(node, dymo.Config{})
	})
	if err != nil {
		t.Fatal(err)
	}
	report := check.NewReport()
	ledger := check.NewLedger(report)
	w.Observe(ledger.Observe)

	plan, err := fault.Spec{ChurnRatePerMin: 4, ChurnDownSec: 2}.Build(3, n, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Empty() {
		t.Fatal("churn plan is empty; the test is vacuous")
	}
	if err := fault.Apply(w, plan); err != nil {
		t.Fatal(err)
	}

	sink := &traffic.Sink{}
	w.Node(0).AttachPort(netsim.PortCBR, sink)
	for _, s := range []int{3, 6, 10, 15} {
		traffic.NewCBR(w.Node(s), traffic.CBRConfig{
			Dst: 0, PacketBytes: 128, Rate: 5, Stop: horizon,
		}).Start()
	}

	peak := 0
	var tick func()
	tick = func() {
		if a := ledger.Active(); a > peak {
			peak = a
		}
		if w.Kernel.Now() < horizon {
			w.Kernel.After(sim.Second, tick)
		}
	}
	w.Kernel.Schedule(0, tick)
	w.Run(horizon)
	ledger.Finish(w)

	if !report.Ok() {
		t.Fatalf("churn run violates conservation:\n%s", report)
	}
	var sent uint64
	for _, node := range w.Nodes() {
		sent += node.Counters().DataOriginated
	}
	if sent < 1000 {
		t.Fatalf("only %d packets originated; the pin is vacuous", sent)
	}
	if ledger.Retired() == 0 {
		t.Fatal("compaction retired nothing over a two-minute churn run")
	}
	// In flight plus the 10 s settle-grace tail at 20 packets/s is a few
	// hundred entries; O(packets ever sent) would be several thousand.
	if bound := int(sent / 3); peak > bound {
		t.Fatalf("ledger peaked at %d live entries for %d sent packets — growing with history, not in-flight", peak, sent)
	}
	if peak > 900 {
		t.Fatalf("ledger peaked at %d live entries; want the in-flight+grace envelope (<= 900)", peak)
	}
}
