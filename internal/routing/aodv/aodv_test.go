package aodv

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

func TestRouteDiscoveryOverChain(t *testing.T) {
	w := chainWorld(t, 4, 200, Config{})
	sink := &traffic.Sink{}
	w.Node(3).AttachPort(netsim.PortCBR, sink)
	sendAt(w, sim.Second, 0, 3, 512)
	w.Run(5 * sim.Second)
	if sink.Received != 1 {
		t.Fatalf("delivered %d, want 1", sink.Received)
	}
	r := w.Node(0).Router().(*Router)
	next, hops, ok := r.Table(3)
	if !ok {
		t.Fatal("source has no route after successful delivery")
	}
	if next != 1 || hops != 3 {
		t.Fatalf("route = next %d hops %d, want next 1 hops 3", next, hops)
	}
	// The destination must have learned the reverse route.
	rd := w.Node(3).Router().(*Router)
	if _, hops, ok := rd.Table(0); !ok || hops != 3 {
		t.Fatalf("reverse route hops=%d ok=%v", hops, ok)
	}
}

func TestDirectNeighborNoFlood(t *testing.T) {
	w := chainWorld(t, 2, 100, Config{})
	sink := &traffic.Sink{}
	w.Node(1).AttachPort(netsim.PortCBR, sink)
	sendAt(w, 500*sim.Millisecond, 0, 1, 512)
	w.Run(3 * sim.Second)
	if sink.Received != 1 {
		t.Fatalf("delivered %d", sink.Received)
	}
}

func TestBufferedPacketsFlushAfterDiscovery(t *testing.T) {
	w := chainWorld(t, 4, 200, Config{})
	sink := &traffic.Sink{}
	w.Node(3).AttachPort(netsim.PortCBR, sink)
	// Burst of 10 packets before any route exists: all must be buffered
	// through discovery and delivered afterwards — the AODV behaviour
	// behind the paper's Fig. 8 goodput spikes.
	for i := 0; i < 10; i++ {
		sendAt(w, sim.Second, 0, 3, 512)
	}
	w.Run(10 * sim.Second)
	if sink.Received != 10 {
		t.Fatalf("delivered %d/10 buffered packets", sink.Received)
	}
}

func TestNoRouteDropsAfterRetries(t *testing.T) {
	// Destination 5 km away: unreachable.
	w := chainWorld(t, 2, 5000, Config{})
	var drops int
	w.SetHooks(netsim.Hooks{DataDropped: func(n *netsim.Node, p *netsim.Packet, reason string) {
		if reason == "aodv:no-route" {
			drops++
		}
	}})
	sendAt(w, sim.Second, 0, 1, 512)
	w.Run(30 * sim.Second)
	if drops != 1 {
		t.Fatalf("drops = %d, want 1 after RREQ retries exhaust", drops)
	}
}

func TestLinkBreakTriggersRediscovery(t *testing.T) {
	// 3-node chain where the middle node moves away mid-run, breaking
	// 0→1→2; node 0 must rediscover when node 1 returns.
	positions := [][]geometry.Vec2{
		// node 0 static
		repeatVec(geometry.Vec2{X: 0}, 41),
		// node 1: at 200 m until t=10, then gone (y=10000) until t=25, back after
		nil,
		// node 2 static at 400 m
		repeatVec(geometry.Vec2{X: 400}, 41),
	}
	mid := make([]geometry.Vec2, 41)
	for i := range mid {
		switch {
		case i < 10:
			mid[i] = geometry.Vec2{X: 200}
		case i < 25:
			mid[i] = geometry.Vec2{X: 200, Y: 10000}
		default:
			mid[i] = geometry.Vec2{X: 200}
		}
	}
	positions[1] = mid
	tr := &mobility.SampledTrace{Interval: 1, Positions: positions}
	w, err := netsim.NewWorld(netsim.WorldConfig{
		Nodes: 3, Seed: 2, Mobility: tr,
	}, func(node *netsim.Node) netsim.Router { return New(node, Config{}) })
	if err != nil {
		t.Fatal(err)
	}
	sink := &traffic.Sink{}
	w.Node(2).AttachPort(netsim.PortCBR, sink)
	cbr := traffic.NewCBR(w.Node(0), traffic.CBRConfig{
		Dst: 2, Rate: 2, Start: 2 * sim.Second, Stop: 38 * sim.Second,
	})
	cbr.Start()
	w.Run(40 * sim.Second)
	// Deliveries must happen both before the break and after the repair.
	if sink.Received < 20 {
		t.Fatalf("delivered %d packets; want most of both phases", sink.Received)
	}
	if sink.LastAt < 30*sim.Second {
		t.Fatalf("no deliveries after repair (last at %v)", sink.LastAt)
	}
}

func repeatVec(v geometry.Vec2, n int) []geometry.Vec2 {
	out := make([]geometry.Vec2, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestExpandingRingVsFlood(t *testing.T) {
	// On a long chain, expanding-ring search should transmit no MORE RREQ
	// control packets than full flooding for a nearby destination.
	run := func(expanding bool) uint64 {
		cfg := Config{ExpandingRing: &expanding}
		w := chainWorld(t, 8, 200, cfg)
		sink := &traffic.Sink{}
		w.Node(1).AttachPort(netsim.PortCBR, sink)
		sendAt(w, sim.Second, 0, 1, 512)
		w.Run(5 * sim.Second)
		if sink.Received != 1 {
			t.Fatalf("expanding=%v: delivery failed", expanding)
		}
		var pkts uint64
		for _, n := range w.Nodes() {
			p, _ := n.Router().ControlTraffic()
			pkts += p
		}
		return pkts
	}
	ring := run(true)
	flood := run(false)
	if ring > flood {
		t.Fatalf("expanding ring used %d control packets, flood used %d", ring, flood)
	}
}

func TestSequenceNumbersMonotone(t *testing.T) {
	w := chainWorld(t, 3, 200, Config{})
	r := w.Node(0).Router().(*Router)
	before := r.seq
	sendAt(w, sim.Second, 0, 2, 512)
	w.Run(5 * sim.Second)
	if r.seq <= before {
		t.Fatal("originator sequence number must increase with discoveries")
	}
}

func TestControlTrafficCounted(t *testing.T) {
	w := chainWorld(t, 3, 200, Config{})
	w.Run(5 * sim.Second)
	pkts, bytes := w.Node(0).Router().ControlTraffic()
	if pkts == 0 || bytes == 0 {
		t.Fatal("hello emission should count as control traffic")
	}
}

func TestBufferCapDropsExcess(t *testing.T) {
	w := chainWorld(t, 2, 5000, Config{BufferCap: 4})
	var drops int
	w.SetHooks(netsim.Hooks{DataDropped: func(n *netsim.Node, p *netsim.Packet, reason string) {
		if reason == "aodv:buffer-full" {
			drops++
		}
	}})
	for i := 0; i < 10; i++ {
		sendAt(w, sim.Second, 0, 1, 512)
	}
	w.Run(3 * sim.Second)
	if drops != 6 {
		t.Fatalf("buffer-full drops = %d, want 6", drops)
	}
}

func TestRouterName(t *testing.T) {
	w := chainWorld(t, 2, 100, Config{})
	if w.Node(0).Router().Name() != "aodv" {
		t.Fatal("Name() should be aodv")
	}
}

// Unit tests for the routing-table rules, run against both the dense fast
// path and the map oracle.

func eachTable(t *testing.T, f func(t *testing.T, k *sim.Kernel, tbl routeTable)) {
	t.Helper()
	t.Run("dense", func(t *testing.T) {
		k := sim.NewKernel()
		f(t, k, newDenseTable(k))
	})
	t.Run("oracle", func(t *testing.T) {
		k := sim.NewKernel()
		f(t, k, newMapTable(k))
	})
}

func TestTableSequenceRules(t *testing.T) {
	eachTable(t, func(t *testing.T, k *sim.Kernel, tbl routeTable) {
		tbl.update(5, 10, true, 3, 1, sim.Second)
		// Older sequence number must not overwrite.
		tbl.update(5, 9, true, 1, 2, sim.Second)
		if next, hops, ok := tbl.validNext(5); !ok || next != 1 || hops != 3 {
			t.Fatalf("stale update accepted: next=%d hops=%d ok=%v", next, hops, ok)
		}
		// Same seq, shorter path wins.
		tbl.update(5, 10, true, 2, 3, sim.Second)
		if next, hops, ok := tbl.validNext(5); !ok || next != 3 || hops != 2 {
			t.Fatalf("shorter path rejected: next=%d hops=%d ok=%v", next, hops, ok)
		}
		// Newer seq always wins, even when longer.
		tbl.update(5, 11, true, 7, 4, sim.Second)
		if next, hops, ok := tbl.validNext(5); !ok || next != 4 || hops != 7 {
			t.Fatalf("newer seq rejected: next=%d hops=%d ok=%v", next, hops, ok)
		}
	})
}

func TestTableExpiry(t *testing.T) {
	eachTable(t, func(t *testing.T, k *sim.Kernel, tbl routeTable) {
		tbl.update(5, 1, true, 1, 1, sim.Second)
		if _, _, ok := tbl.validNext(5); !ok {
			t.Fatal("fresh route should be valid")
		}
		k.Schedule(2*sim.Second, func() {})
		k.Run()
		if _, _, ok := tbl.validNext(5); ok {
			t.Fatal("expired route should be invalid")
		}
	})
}

func TestTableBreakViaBumpsSeq(t *testing.T) {
	eachTable(t, func(t *testing.T, k *sim.Kernel, tbl routeTable) {
		tbl.update(5, 7, true, 1, 1, sim.Second)
		got := tbl.breakVia(1, nil)
		if len(got) != 1 || got[0].Dst != 5 || got[0].Seq != 8 {
			t.Fatalf("breakVia should bump seq: %+v", got)
		}
		if got := tbl.breakVia(1, nil); len(got) != 0 {
			t.Fatalf("double breakVia should find nothing: %+v", got)
		}
	})
}

func TestTableBreakVia(t *testing.T) {
	eachTable(t, func(t *testing.T, k *sim.Kernel, tbl routeTable) {
		tbl.update(5, 1, true, 2, 9, sim.Second)
		tbl.update(6, 1, true, 3, 9, sim.Second)
		tbl.update(7, 1, true, 1, 8, sim.Second)
		if via := tbl.breakVia(9, nil); len(via) != 2 {
			t.Fatalf("breakVia = %d entries, want 2", len(via))
		}
		if _, _, ok := tbl.validNext(7); !ok {
			t.Fatal("route via another neighbor must survive")
		}
	})
}

func TestSeqWraparound(t *testing.T) {
	eachTable(t, func(t *testing.T, k *sim.Kernel, tbl routeTable) {
		// Near-wraparound: 2^32-1 then 1 — signed comparison must treat 1
		// as newer.
		tbl.update(5, ^uint32(0), true, 2, 1, sim.Second)
		tbl.update(5, 1, true, 5, 2, sim.Second)
		if next, _, ok := tbl.validNext(5); !ok || next != 2 {
			t.Fatalf("wraparound comparison failed: next=%d ok=%v", next, ok)
		}
	})
}

// TestSeenEntriesExpire guards the fix for the unbounded RREQ dedup table:
// the seed implementation never retired seen entries; they must now expire
// after PATH_DISCOVERY_TIME via the lazy heap.
func TestSeenEntriesExpire(t *testing.T) {
	w := chainWorld(t, 3, 200, Config{})
	sendAt(w, sim.Second, 0, 2, 128)
	w.Run(3 * sim.Second)
	r1 := w.Node(1).Router().(*Router)
	if r1.SeenEntries() == 0 {
		t.Fatal("precondition: relay recorded no RREQ dedup entries")
	}
	w.Kernel.RunUntil(w.Kernel.Now() + 3*r1.cfg.netTraversalTime())
	r1.purge()
	if got := r1.SeenEntries(); got != 0 {
		t.Fatalf("seen entries after PATH_DISCOVERY_TIME = %d, want 0", got)
	}
}
