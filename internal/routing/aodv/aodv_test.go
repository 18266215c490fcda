package aodv

import (
	"slices"
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
	var droppedAt sim.Time
	w.Observe(func(e netsim.PacketEvent) {
		if e.Cause == netsim.CauseNoRoute {
			drops++
			droppedAt = e.At
		}
	})
	sendAt(w, sim.Second, 0, 1, 512)
	w.Run(30 * sim.Second)
	if drops != 1 {
		t.Fatalf("drops = %d, want 1 after RREQ retries exhaust", drops)
	}
	// RREQ_RETRIES 2: three searches, at TTL 5 and 7 (ring start 5, step
	// 2, threshold 7) and then NET_DIAMETER 35, each waiting
	// 2 · 40 ms · (TTL + 2).
	if want := sim.Second + 560*sim.Millisecond + 720*sim.Millisecond + 2960*sim.Millisecond; droppedAt != want {
		t.Fatalf("dropped at %v, want %v: the ring search or its timeouts changed", droppedAt, want)
	}
}

// TestRecycledSearchRestartsRing runs two searches for the same unreachable
// destination on one router, the second on the record the first released:
// it must start its ring at TTL_START again, not at the TTL the first one
// ended on, so both give up after the same 4.24 s.
func TestRecycledSearchRestartsRing(t *testing.T) {
	w := chainWorld(t, 2, 5000, Config{})
	var dropped []sim.Time
	w.Observe(func(e netsim.PacketEvent) {
		if e.Cause == netsim.CauseNoRoute {
			dropped = append(dropped, e.At)
		}
	})
	sendAt(w, sim.Second, 0, 1, 512)
	sendAt(w, 6*sim.Second, 0, 1, 512)
	w.Run(20 * sim.Second)
	search := 560*sim.Millisecond + 720*sim.Millisecond + 2960*sim.Millisecond
	want := []sim.Time{sim.Second + search, 6*sim.Second + search}
	if !slices.Equal(dropped, want) {
		t.Fatalf("no-route drops at %v, want %v", dropped, want)
	}
}

// TestGracefulRestartResumesSearch shuts the source down gracefully in the
// middle of a search and brings it back: the search must go on from where
// it stopped, so the packets parked before and after the outage end as
// no-route drops instead of staying parked, and the 64-packet buffer
// empties for later traffic.
func TestGracefulRestartResumesSearch(t *testing.T) {
	w := chainWorld(t, 2, 5000, Config{})
	drops := map[string]int{}
	var noRouteAt sim.Time
	w.Observe(func(e netsim.PacketEvent) {
		if e.Kind == netsim.Dropped {
			drops[e.Cause.Reason(e.Node.Router().Name())]++
			if e.Cause == netsim.CauseNoRoute {
				noRouteAt = e.At
			}
		}
	})
	sendAt(w, sim.Second, 0, 1, 512)
	w.Kernel.Schedule(1100*sim.Millisecond, func() { w.Node(0).Down(true) })
	w.Kernel.Schedule(1200*sim.Millisecond, func() { w.Node(0).Up() })
	for i := 0; i < 70; i++ {
		sendAt(w, 2*sim.Second, 0, 1, 512)
	}
	w.Run(60 * sim.Second)
	var parked int
	w.Node(0).EachBuffered(func(*netsim.Packet) { parked++ })
	if parked != 0 || drops["aodv:no-route"] != 64 || drops["aodv:buffer-full"] != 7 {
		t.Fatalf("at 60 s: %d parked, drops %v; want 0 parked, 64 no-route, 7 buffer-full", parked, drops)
	}
	// The search resumes with a TTL 7 ring, then floods at NET_DIAMETER:
	// 1.2 s + 720 ms + 2960 ms.
	want := 1200*sim.Millisecond + 720*sim.Millisecond + 2960*sim.Millisecond
	if noRouteAt != want {
		t.Fatalf("no-route drops at %v, want %v", noRouteAt, want)
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

// helloWatch is a router that reports every HELLO it is handed before
// processing it.
type helloWatch struct {
	*Router
	heard func(from netsim.NodeID)
}

func (h helloWatch) Receive(p *netsim.Packet, from netsim.NodeID) {
	if m, ok := p.Payload.(*RREP); ok && m.Hello {
		h.heard(from)
	}
	h.Router.Receive(p, from)
}

// TestNeighbourLossInstant pins when HELLO liveness declares a link lost
// (RFC 3561 §6.9): on a static chain 0–1–2 with a route 0→2 through 1, node
// 1 goes silent, and node 0 must invalidate its routes through 1 and send
// the RERR at exactly the last HELLO it heard from 1 plus
// (ALLOWED_HELLO_LOSS+1)·HELLO_INTERVAL — not a nanosecond early or late.
func TestNeighbourLossInstant(t *testing.T) {
	var lastHello sim.Time
	w, err := netsim.NewWorld(netsim.WorldConfig{
		Nodes:  3,
		Seed:   1,
		Static: []geometry.Vec2{{X: 0}, {X: 200}, {X: 400}},
	}, func(node *netsim.Node) netsim.Router {
		r := New(node, Config{})
		if node.ID() != 0 {
			return r
		}
		return helloWatch{r, func(from netsim.NodeID) {
			if from == 1 {
				lastHello = node.Kernel().Now()
			}
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range w.Nodes() {
		n.Router().Start()
	}
	sendAt(w, sim.Second, 0, 2, 512)
	sendAt(w, 2500*sim.Millisecond, 0, 2, 512)
	w.Kernel.Schedule(3*sim.Second, func() { w.Node(1).Down(true) })
	w.Kernel.RunUntil(3 * sim.Second)
	if lastHello == 0 {
		t.Fatal("precondition: node 0 heard no HELLO from node 1")
	}

	loss := lastHello + (allowedHelloLoss+1)*helloInterval
	r := w.Node(0).Router().(helloWatch).Router
	type view struct {
		c     netsim.NodeCounters
		valid [3]bool
	}
	probe := func(v *view) func() {
		return func() {
			v.c = w.Node(0).Counters()
			for dst := 1; dst <= 2; dst++ {
				_, _, v.valid[dst] = r.Table(netsim.NodeID(dst))
			}
		}
	}
	var before, after view
	w.Kernel.Schedule(loss-1, probe(&before))
	// Scheduled after the last HELLO re-armed the loss deadline, so at the
	// same instant this runs after it.
	w.Kernel.Schedule(loss, probe(&after))
	w.Kernel.RunUntil(loss + sim.Second)

	if !before.valid[1] || !before.valid[2] {
		t.Fatalf("1 ns before the loss: routes to 1, 2 valid = %v, %v; want both", before.valid[1], before.valid[2])
	}
	if after.valid[1] || after.valid[2] {
		t.Fatalf("at the loss (%v): routes to 1, 2 valid = %v, %v; want neither", loss, after.valid[1], after.valid[2])
	}
	if n, b := after.c.ControlPackets-before.c.ControlPackets, after.c.ControlBytes-before.c.ControlBytes; n != 1 ||
		b != uint64(rerrSize(2)+netsim.IPHeaderBytes) {
		t.Fatalf("in (loss-1ns, loss] node 0 sent %d control packets, %d bytes; want one two-destination RERR", n, b)
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
		w := chainWorld(t, 8, 200, Config{NoExpandingRing: !expanding})
		sink := &traffic.Sink{}
		w.Node(1).AttachPort(netsim.PortCBR, sink)
		sendAt(w, sim.Second, 0, 1, 512)
		w.Run(5 * sim.Second)
		if sink.Received != 1 {
			t.Fatalf("expanding=%v: delivery failed", expanding)
		}
		var pkts uint64
		for _, n := range w.Nodes() {
			pkts += n.Counters().ControlPackets
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
	before := r.Seq
	sendAt(w, sim.Second, 0, 2, 512)
	w.Run(5 * sim.Second)
	if r.Seq <= before {
		t.Fatal("originator sequence number must increase with discoveries")
	}
}

func TestControlOverheadCounted(t *testing.T) {
	w := chainWorld(t, 3, 200, Config{})
	w.Run(5 * sim.Second)
	c := w.Node(0).Counters()
	if c.ControlPackets == 0 || c.ControlBytes == 0 {
		t.Fatal("hello emission should count as control traffic")
	}
}

func TestBufferCapDropsExcess(t *testing.T) {
	w := chainWorld(t, 2, 5000, Config{})
	var drops int
	w.Observe(func(e netsim.PacketEvent) {
		if e.Cause == netsim.CauseBufferFull {
			drops++
		}
	})
	// ns-2's 64-packet send buffer holds the first 64; 6 overflow.
	for i := 0; i < 70; i++ {
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

// Unit tests for the routing-table rules, run against both netsim.Routes
// (the table routers hold) and the map oracle.

func eachTable(t *testing.T, f func(t *testing.T, k *sim.Kernel, tbl routeTable)) {
	t.Helper()
	t.Run("dense", func(t *testing.T) {
		k := sim.NewKernel()
		f(t, k, netsim.NewRoutes(k))
	})
	t.Run("oracle", func(t *testing.T) {
		k := sim.NewKernel()
		f(t, k, newMapTable(k))
	})
}

func TestTableSequenceRules(t *testing.T) {
	eachTable(t, func(t *testing.T, k *sim.Kernel, tbl routeTable) {
		tbl.Update(5, 10, true, 3, 1, sim.Second)
		// Older sequence number must not overwrite.
		tbl.Update(5, 9, true, 1, 2, sim.Second)
		if next, hops, ok := tbl.Next(5); !ok || next != 1 || hops != 3 {
			t.Fatalf("stale update accepted: next=%d hops=%d ok=%v", next, hops, ok)
		}
		// Same seq, shorter path wins.
		tbl.Update(5, 10, true, 2, 3, sim.Second)
		if next, hops, ok := tbl.Next(5); !ok || next != 3 || hops != 2 {
			t.Fatalf("shorter path rejected: next=%d hops=%d ok=%v", next, hops, ok)
		}
		// Newer seq always wins, even when longer.
		tbl.Update(5, 11, true, 7, 4, sim.Second)
		if next, hops, ok := tbl.Next(5); !ok || next != 4 || hops != 7 {
			t.Fatalf("newer seq rejected: next=%d hops=%d ok=%v", next, hops, ok)
		}
	})
}

func TestTableExpiry(t *testing.T) {
	eachTable(t, func(t *testing.T, k *sim.Kernel, tbl routeTable) {
		tbl.Update(5, 1, true, 1, 1, sim.Second)
		if _, _, ok := tbl.Next(5); !ok {
			t.Fatal("fresh route should be valid")
		}
		k.Schedule(2*sim.Second, func() {})
		for k.Step() {
		}
		if _, _, ok := tbl.Next(5); ok {
			t.Fatal("expired route should be invalid")
		}
	})
}

func TestTableBreakViaBumpsSeq(t *testing.T) {
	eachTable(t, func(t *testing.T, k *sim.Kernel, tbl routeTable) {
		tbl.Update(5, 7, true, 1, 1, sim.Second)
		got := tbl.BreakVia(1, nil)
		if len(got) != 1 || got[0].Dst != 5 || got[0].Seq != 8 {
			t.Fatalf("breakVia should bump seq: %+v", got)
		}
		if got := tbl.BreakVia(1, nil); len(got) != 0 {
			t.Fatalf("double breakVia should find nothing: %+v", got)
		}
	})
}

func TestTableBreakVia(t *testing.T) {
	eachTable(t, func(t *testing.T, k *sim.Kernel, tbl routeTable) {
		tbl.Update(5, 1, true, 2, 9, sim.Second)
		tbl.Update(6, 1, true, 3, 9, sim.Second)
		tbl.Update(7, 1, true, 1, 8, sim.Second)
		if via := tbl.BreakVia(9, nil); len(via) != 2 {
			t.Fatalf("breakVia = %d entries, want 2", len(via))
		}
		if _, _, ok := tbl.Next(7); !ok {
			t.Fatal("route via another neighbor must survive")
		}
	})
}

func TestSeqWraparound(t *testing.T) {
	eachTable(t, func(t *testing.T, k *sim.Kernel, tbl routeTable) {
		// Near-wraparound: 2^32-1 then 1 — signed comparison must treat 1
		// as newer.
		tbl.Update(5, ^uint32(0), true, 2, 1, sim.Second)
		tbl.Update(5, 1, true, 5, 2, sim.Second)
		if next, _, ok := tbl.Next(5); !ok || next != 2 {
			t.Fatalf("wraparound comparison failed: next=%d ok=%v", next, ok)
		}
	})
}

// TestSeenEntriesExpire guards the fix for the unbounded RREQ dedup table:
// the seed implementation never retired seen entries; they must now expire
// after PATH_DISCOVERY_TIME. A relay re-floods a request the first time,
// refuses it while the hold lasts and re-floods it once the hold has
// passed and a purge tick has run.
func TestSeenEntriesExpire(t *testing.T) {
	w := chainWorld(t, 3, 200, Config{})
	for _, n := range w.Nodes() {
		n.Router().Start()
	}
	relay := w.Node(1)
	// The request asks for a fresher route to 2 than any the relay holds,
	// so the relay never answers it (§6.6.2) and only re-floods.
	msg := &RREQ{ID: 1, Dst: 2, DstSeq: 1000, DstSeqKnown: true, Src: 0, SrcSeq: 1}
	floods := func() uint64 {
		before := relay.Counters().ControlPackets
		relay.Router().Receive(&netsim.Packet{Kind: netsim.KindControl, TTL: 5, Payload: msg}, 0)
		return relay.Counters().ControlPackets - before
	}
	const hold = 2 * netTraversalTime
	t0 := w.Kernel.Now()
	for _, step := range []struct {
		at   sim.Time
		want uint64
	}{{t0, 1}, {t0, 0}, {t0 + hold - sim.Second, 0}, {t0 + hold + sim.Second, 1}} {
		w.Kernel.RunUntil(step.at)
		if got := floods(); got != step.want {
			t.Fatalf("t=%v: relay re-flooded %d times, want %d", step.at, got, step.want)
		}
	}
}

// TestEachBufferedAscendingDestinations pins the custody walk's order: a
// crash drops the packets of every open discovery in this order, so it must
// not follow map iteration.
func TestEachBufferedAscendingDestinations(t *testing.T) {
	w := chainWorld(t, 10, 10000, Config{}) // nobody hears anybody
	dsts := []int{9, 3, 7, 1, 5}
	for _, d := range dsts {
		sendAt(w, sim.Second, 0, d, 64)
	}
	w.Run(sim.Second + sim.Millisecond)
	r := w.Node(0).Router().(*Router)
	for call := 0; call < 20; call++ {
		var got []netsim.NodeID
		r.EachBuffered(func(p *netsim.Packet) { got = append(got, p.Dst) })
		if len(got) != len(dsts) || !slices.IsSorted(got) {
			t.Fatalf("call %d visited destinations %v, want %d in ascending order", call, got, len(dsts))
		}
	}
}

// TestRebootWaitsDeletePeriod pins RFC 3561 §6.13 on a static line 0–1–2:
// node 1 crashes at 2 s and comes back at 3 s with a fresh router, which
// sends nothing of its own for DELETE_PERIOD (15 s). A data packet handed
// to it for 2 at 10 s is dropped as aodv:reboot-wait, answered with one
// RERR, and restarts the wait, so node 1 is silent again until 25 s and
// HELLOs once it is over.
func TestRebootWaitsDeletePeriod(t *testing.T) {
	w := chainWorld(t, 3, 200, Config{})
	for _, n := range w.Nodes() {
		n.Router().Start()
	}
	relay := w.Node(1)
	var drops []string
	w.Observe(func(e netsim.PacketEvent) {
		if e.Kind == netsim.Dropped && e.Node == relay {
			drops = append(drops, e.Cause.Reason(e.Node.Router().Name()))
		}
	})
	w.Kernel.RunUntil(2 * sim.Second)
	relay.Down(false)
	w.Kernel.RunUntil(3 * sim.Second)
	relay.Up()
	sent := relay.Counters().ControlPackets
	for _, c := range []struct {
		at   sim.Time
		want uint64 // control packets node 1 has sent since it came up
	}{{10 * sim.Second, 0}, {10 * sim.Second, 1}, {25*sim.Second - 1, 1}} {
		w.Kernel.RunUntil(c.at)
		if c.want == 1 && len(drops) == 0 {
			relay.Router().Receive(w.Node(0).NewPacket(2, netsim.PortCBR, 128), 0)
		}
		if got := relay.Counters().ControlPackets - sent; got != c.want {
			t.Fatalf("t=%v: node 1 sent %d control packets since it came up, want %d", c.at, got, c.want)
		}
	}
	if !slices.Equal(drops, []string{"aodv:reboot-wait"}) {
		t.Fatalf("node 1 dropped %v, want one aodv:reboot-wait", drops)
	}
	w.Kernel.RunUntil(27 * sim.Second)
	if got := relay.Counters().ControlPackets - sent; got <= 1 {
		t.Fatalf("node 1 sent %d control packets by 27 s, want HELLOs after its wait", got)
	}
}
