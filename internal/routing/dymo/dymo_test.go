package dymo

import (
	"testing"

	"cavenet/internal/geometry"
	"cavenet/internal/mobility"
	"cavenet/internal/netsim"
	"cavenet/internal/sim"
	"cavenet/internal/traffic"
)

func chainWorld(t *testing.T, n int, spacing float64, cfg Config) *netsim.World {
	t.Helper()
	positions := make([]geometry.Vec2, n)
	for i := range positions {
		positions[i] = geometry.Vec2{X: float64(i) * spacing}
	}
	w, err := netsim.NewWorld(netsim.WorldConfig{
		Nodes:  n,
		Seed:   1,
		Static: positions,
	}, func(node *netsim.Node) netsim.Router { return New(node, cfg) })
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func sendAt(w *netsim.World, at sim.Time, src, dst, size int) {
	w.Kernel.Schedule(at, func() {
		n := w.Node(src)
		n.SendData(n.NewPacket(netsim.NodeID(dst), netsim.PortCBR, size))
	})
}

func TestDiscoveryAndDelivery(t *testing.T) {
	w := chainWorld(t, 4, 200, Config{})
	sink := &traffic.Sink{}
	w.Node(3).AttachPort(netsim.PortCBR, sink)
	sendAt(w, sim.Second, 0, 3, 512)
	w.Run(5 * sim.Second)
	if sink.Received != 1 {
		t.Fatalf("delivered %d, want 1", sink.Received)
	}
	r := w.Node(0).Router().(*Router)
	if next, hops, ok := r.Table(3); !ok || next != 1 || hops != 3 {
		t.Fatalf("route = %d/%d/%v", next, hops, ok)
	}
}

// TestPathAccumulationLearnsIntermediates pins the paper's "major
// difference between DYMO and AODV": after one discovery 0→3, the source
// must know routes to ALL intermediate hops, not just the target.
func TestPathAccumulationLearnsIntermediates(t *testing.T) {
	w := chainWorld(t, 4, 200, Config{})
	sink := &traffic.Sink{}
	w.Node(3).AttachPort(netsim.PortCBR, sink)
	sendAt(w, sim.Second, 0, 3, 512)
	w.Run(5 * sim.Second)
	r := w.Node(0).Router().(*Router)
	for dst := 1; dst <= 3; dst++ {
		next, hops, ok := r.Table(netsim.NodeID(dst))
		if !ok {
			t.Fatalf("no route to intermediate %d after path accumulation", dst)
		}
		if next != 1 || hops != dst {
			t.Fatalf("route to %d = next %d hops %d", dst, next, hops)
		}
	}
	// Intermediate node 2 must also have learned both directions.
	r2 := w.Node(2).Router().(*Router)
	if _, _, ok := r2.Table(0); !ok {
		t.Fatal("intermediate lacks route to originator")
	}
	if _, _, ok := r2.Table(3); !ok {
		t.Fatal("intermediate lacks route to target")
	}
}

func TestPathAccumulationDisabledLearnsLess(t *testing.T) {
	off := false
	w := chainWorld(t, 5, 200, Config{PathAccumulation: &off})
	sink := &traffic.Sink{}
	w.Node(4).AttachPort(netsim.PortCBR, sink)
	sendAt(w, sim.Second, 0, 4, 512)
	w.Run(5 * sim.Second)
	if sink.Received != 1 {
		t.Fatalf("delivery failed without path accumulation: %d", sink.Received)
	}
	r := w.Node(0).Router().(*Router)
	// Route to target and 1-hop neighbor exist; a mid-chain node that is
	// neither should be unknown.
	if _, _, ok := r.Table(4); !ok {
		t.Fatal("no route to target")
	}
	if _, _, ok := r.Table(2); ok {
		t.Fatal("mid-chain route learned despite accumulation off")
	}
}

func TestBufferingThroughDiscovery(t *testing.T) {
	w := chainWorld(t, 4, 200, Config{})
	sink := &traffic.Sink{}
	w.Node(3).AttachPort(netsim.PortCBR, sink)
	for i := 0; i < 10; i++ {
		sendAt(w, sim.Second, 0, 3, 512)
	}
	w.Run(5 * sim.Second)
	if sink.Received != 10 {
		t.Fatalf("delivered %d/10", sink.Received)
	}
}

func TestUnreachableDropsAfterTries(t *testing.T) {
	w := chainWorld(t, 2, 5000, Config{})
	var drops int
	w.SetHooks(netsim.Hooks{DataDropped: func(n *netsim.Node, p *netsim.Packet, reason string) {
		if reason == "dymo:no-route" {
			drops++
		}
	}})
	sendAt(w, sim.Second, 0, 1, 512)
	w.Run(20 * sim.Second)
	if drops != 1 {
		t.Fatalf("drops = %d, want 1", drops)
	}
}

func TestVanishingDestinationRecovery(t *testing.T) {
	// Chain 0-1-2-3 with CBR from 0 to 3; node 3 vanishes mid-run and
	// returns. DYMO must detect the break (MAC feedback on the 2→3 hop),
	// flood RERRs, and rediscover once node 3 is back.
	positions := make([][]geometry.Vec2, 4)
	for i := 0; i < 4; i++ {
		col := make([]geometry.Vec2, 41)
		for s := range col {
			col[s] = geometry.Vec2{X: float64(i) * 200}
			if i == 3 && s >= 10 && s < 25 {
				col[s] = geometry.Vec2{X: 600, Y: 100000} // vanish t=10..25
			}
		}
		positions[i] = col
	}
	tr := &mobility.SampledTrace{Interval: 1, Positions: positions}
	w, err := netsim.NewWorld(netsim.WorldConfig{
		Nodes: 4, Seed: 2, Mobility: tr,
	}, func(node *netsim.Node) netsim.Router { return New(node, Config{}) })
	if err != nil {
		t.Fatal(err)
	}
	sink := &traffic.Sink{}
	w.Node(3).AttachPort(netsim.PortCBR, sink)
	cbr := traffic.NewCBR(w.Node(0), traffic.CBRConfig{
		Dst: 3, Rate: 2, Start: 2 * sim.Second, Stop: 38 * sim.Second,
	})
	cbr.Start()
	w.Run(40 * sim.Second)
	if sink.Received < 15 {
		t.Fatalf("delivered %d packets; want both phases served", sink.Received)
	}
	if sink.LastAt < 30*sim.Second {
		t.Fatalf("no deliveries after the destination returned (last %v)", sink.LastAt)
	}
}

func TestRouterName(t *testing.T) {
	w := chainWorld(t, 2, 100, Config{})
	if w.Node(0).Router().Name() != "dymo" {
		t.Fatal("Name() should be dymo")
	}
}

func TestHelloMaintainsNeighbors(t *testing.T) {
	w := chainWorld(t, 2, 100, Config{})
	w.Run(5 * sim.Second)
	r := w.Node(0).Router().(*Router)
	if len(r.neighbors) != 1 {
		t.Fatalf("neighbors = %d, want 1", len(r.neighbors))
	}
	if _, _, ok := r.Table(1); !ok {
		t.Fatal("hello should install a 1-hop route")
	}
}

func TestSequenceMonotone(t *testing.T) {
	w := chainWorld(t, 3, 200, Config{})
	r := w.Node(0).Router().(*Router)
	before := r.seq
	sendAt(w, sim.Second, 0, 2, 512)
	w.Run(5 * sim.Second)
	if r.seq <= before {
		t.Fatal("sequence number must grow")
	}
}

// TestRouteUpdateRules checks the draft's sequence-number rules on the
// table routers hold and on the map reference, then — on a router — that a
// route to self is refused before it reaches the table.
func TestRouteUpdateRules(t *testing.T) {
	rules := func(t *testing.T, tbl routeTable) {
		tbl.update(5, 10, true, 3, 1)
		tbl.update(5, 9, true, 1, 2) // stale seq: rejected
		if next, _, ok := tbl.validNext(5); !ok || next != 1 {
			t.Fatalf("stale update accepted: next=%d ok=%v", next, ok)
		}
		tbl.update(5, 10, true, 2, 3) // same seq shorter: accepted
		if next, hops, ok := tbl.validNext(5); !ok || next != 3 || hops != 2 {
			t.Fatalf("shorter path rejected: next=%d hops=%d ok=%v", next, hops, ok)
		}
		tbl.update(5, 11, true, 9, 4) // newer seq: accepted
		if next, _, ok := tbl.validNext(5); !ok || next != 4 {
			t.Fatalf("newer seq rejected: next=%d ok=%v", next, ok)
		}
	}
	t.Run("dense", func(t *testing.T) {
		w := chainWorld(t, 2, 100, Config{})
		r := w.Node(0).Router().(*Router)
		rules(t, r.table)
		// Routes to self are never installed.
		r.updateRoute(0, 1, true, 1, 1)
		if _, _, ok := r.Table(0); ok {
			t.Fatal("route to self must be refused")
		}
	})
	t.Run("oracle", func(t *testing.T) {
		rules(t, newMapTable(sim.NewKernel(), 5*sim.Second))
	})
}

func TestLinkBrokenFloodsRERR(t *testing.T) {
	w := chainWorld(t, 3, 200, Config{})
	sink := &traffic.Sink{}
	w.Node(2).AttachPort(netsim.PortCBR, sink)
	sendAt(w, sim.Second, 0, 2, 512)
	w.Run(4 * sim.Second)
	if sink.Received != 1 {
		t.Fatal("precondition: delivery works")
	}
	r1 := w.Node(1).Router().(*Router)
	if _, _, ok := r1.Table(2); !ok {
		t.Fatal("precondition: relay has route to 2")
	}
	// Simulate MAC feedback at the relay for the 1→2 hop.
	w.Kernel.Schedule(w.Kernel.Now(), func() {
		r1.LinkFailure(2, &netsim.Packet{Kind: netsim.KindData, Dst: 2})
	})
	w.Kernel.RunUntil(w.Kernel.Now() + sim.Second)
	if _, _, ok := r1.Table(2); ok {
		t.Fatal("relay route should be invalidated")
	}
	// The RERR flood must have reached node 0 and killed its route too.
	r0 := w.Node(0).Router().(*Router)
	if _, _, ok := r0.Table(2); ok {
		t.Fatal("upstream route survived the RERR flood")
	}
}

func TestControlTrafficCounted(t *testing.T) {
	w := chainWorld(t, 2, 100, Config{})
	w.Run(5 * sim.Second)
	pkts, bytes := w.Node(0).Router().ControlTraffic()
	if pkts == 0 || bytes == 0 {
		t.Fatal("hello traffic should be counted")
	}
}

// TestSeenEntriesExpire: RREQ dedup entries are reclaimed by the lazy
// expiry heap once their hold passes, instead of accumulating forever.
func TestSeenEntriesExpire(t *testing.T) {
	w := chainWorld(t, 3, 200, Config{})
	sendAt(w, sim.Second, 0, 2, 128)
	w.Run(3 * sim.Second)
	r1 := w.Node(1).Router().(*Router)
	if r1.SeenEntries() == 0 {
		t.Fatal("precondition: relay recorded no RREQ dedup entries")
	}
	// Advance well past seenHold with no new discoveries; the purge ticker
	// only runs while routers run, so keep the world alive.
	w.Kernel.RunUntil(w.Kernel.Now() + 2*seenHold)
	r1.purge()
	if got := r1.SeenEntries(); got != 0 {
		t.Fatalf("seen entries after expiry window = %d, want 0", got)
	}
}
