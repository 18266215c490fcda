package dymo

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
	w := chainWorld(t, 5, 200, Config{NoPathAccumulation: true})
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
	var droppedAt sim.Time
	w.Observe(func(e netsim.PacketEvent) {
		if e.Cause == netsim.CauseNoRoute {
			drops++
			droppedAt = e.At
		}
	})
	sendAt(w, sim.Second, 0, 1, 512)
	w.Run(20 * sim.Second)
	if drops != 1 {
		t.Fatalf("drops = %d, want 1", drops)
	}
	// RREQ_TRIES 3, each waiting RREQ_WAIT_TIME doubled per retry: 1, 2
	// and 4 s after the first request at 1 s.
	if want := 8 * sim.Second; droppedAt != want {
		t.Fatalf("dropped at %v, want %v: the try count or the backoff changed", droppedAt, want)
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
	// The 64-packet discovery buffer holds the first 64; 6 overflow.
	for i := 0; i < 70; i++ {
		sendAt(w, sim.Second, 0, 1, 512)
	}
	w.Run(3 * sim.Second)
	if drops != 6 {
		t.Fatalf("buffer-full drops = %d, want 6", drops)
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
	if parked != 0 || drops["dymo:no-route"] != 64 || drops["dymo:buffer-full"] != 7 {
		t.Fatalf("at 60 s: %d parked, drops %v; want 0 parked, 64 no-route, 7 buffer-full", parked, drops)
	}
	// The search resumes with its second request, waiting 2 s, then its
	// third, waiting 4 s: 1.2 s + 2 s + 4 s.
	want := 7200 * sim.Millisecond
	if noRouteAt != want {
		t.Fatalf("no-route drops at %v, want %v", noRouteAt, want)
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
	for _, n := range w.Nodes() {
		n.Router().Start()
	}
	w.Kernel.RunUntil(5 * sim.Second) // World.Run would stop the routers
	// HELLO liveness itself is pinned to the nanosecond by
	// TestNeighbourLossInstant.
	r := w.Node(0).Router().(*Router)
	if next, hops, ok := r.Table(1); !ok || next != 1 || hops != 1 {
		t.Fatalf("route to 1 = (%d, %d, %v), hello should install a 1-hop route", next, hops, ok)
	}
	if seq, known, _ := r.Routes.LastSeq(1); !known || seq != w.Node(1).Router().(*Router).Seq {
		t.Fatalf("route to 1 holds seq (%d, %v), want node 1's own, known", seq, known)
	}
	if _, _, ok := r.Table(0); ok {
		t.Fatal("hello installed a route to self")
	}
}

// helloWatch is a router that reports every HELLO it is handed before
// processing it.
type helloWatch struct {
	*Router
	heard func(from netsim.NodeID)
}

func (h helloWatch) Receive(p *netsim.Packet, from netsim.NodeID) {
	if _, ok := p.Payload.(*Hello); ok {
		h.heard(from)
	}
	h.Router.Receive(p, from)
}

// TestNeighbourLossInstant pins when HELLO liveness declares a link lost:
// on a static chain 0–1–2 with a route 0→2 through 1, node 1 goes silent,
// and node 0 must invalidate its routes through 1 and flood the RERR at
// exactly the last HELLO it heard from 1 plus
// (allowedHelloLoss+1)·helloInterval — not a nanosecond early or late. Both
// routes would still be valid by lifetime (ROUTE_TIMEOUT is 5 s), so only
// the liveness deadline can flip them.
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
		b != uint64(rerrBytes(2)+netsim.IPHeaderBytes) {
		t.Fatalf("in (loss-1ns, loss] node 0 sent %d control packets, %d bytes; want one two-destination RERR", n, b)
	}
}

func TestSequenceMonotone(t *testing.T) {
	w := chainWorld(t, 3, 200, Config{})
	r := w.Node(0).Router().(*Router)
	before := r.Seq
	sendAt(w, sim.Second, 0, 2, 512)
	w.Run(5 * sim.Second)
	if r.Seq <= before {
		t.Fatal("sequence number must grow")
	}
}

// TestRouteUpdateRules checks the draft's sequence-number rules on the
// table routers hold and on the map reference, then — on a router — that a
// route to self is refused before it reaches the table.
func TestRouteUpdateRules(t *testing.T) {
	rules := func(t *testing.T, tbl routeTable) {
		tbl.Update(5, 10, true, 3, 1, routeTimeout)
		tbl.Update(5, 9, true, 1, 2, routeTimeout) // stale seq: rejected
		if next, _, ok := tbl.Next(5); !ok || next != 1 {
			t.Fatalf("stale update accepted: next=%d ok=%v", next, ok)
		}
		tbl.Update(5, 10, true, 2, 3, routeTimeout) // same seq shorter: accepted
		if next, hops, ok := tbl.Next(5); !ok || next != 3 || hops != 2 {
			t.Fatalf("shorter path rejected: next=%d hops=%d ok=%v", next, hops, ok)
		}
		tbl.Update(5, 11, true, 9, 4, routeTimeout) // newer seq: accepted
		if next, _, ok := tbl.Next(5); !ok || next != 4 {
			t.Fatalf("newer seq rejected: next=%d ok=%v", next, ok)
		}
	}
	t.Run("dense", func(t *testing.T) {
		w := chainWorld(t, 2, 100, Config{})
		r := w.Node(0).Router().(*Router)
		rules(t, r.Routes)
		// Routes to self are never installed.
		r.updateRoute(0, 1, true, 1, 1)
		if _, _, ok := r.Table(0); ok {
			t.Fatal("route to self must be refused")
		}
	})
	t.Run("oracle", func(t *testing.T) {
		rules(t, newMapTable(sim.NewKernel()))
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

func TestControlOverheadCounted(t *testing.T) {
	w := chainWorld(t, 2, 100, Config{})
	w.Run(5 * sim.Second)
	c := w.Node(0).Counters()
	if c.ControlPackets == 0 || c.ControlBytes == 0 {
		t.Fatal("hello traffic should be counted")
	}
}

// TestSeenEntriesExpire: RREQ dedup entries are retired once their hold
// passes, instead of accumulating forever. A relay re-floods a request the
// first time, refuses it while the hold lasts and re-floods it once the
// hold has passed and a purge tick has run.
func TestSeenEntriesExpire(t *testing.T) {
	w := chainWorld(t, 3, 200, Config{})
	for _, n := range w.Nodes() {
		n.Router().Start()
	}
	relay := w.Node(1)
	msg := &RM{Target: 2, Orig: AddrBlock{Addr: 0, Seq: 1}}
	floods := func() uint64 {
		before := relay.Counters().ControlPackets
		relay.Router().Receive(&netsim.Packet{Kind: netsim.KindControl, TTL: 5, Payload: msg}, 0)
		return relay.Counters().ControlPackets - before
	}
	t0 := w.Kernel.Now()
	for _, step := range []struct {
		at   sim.Time
		want uint64
	}{{t0, 1}, {t0, 0}, {t0 + seenHold - sim.Second, 0}, {t0 + seenHold + sim.Second, 1}} {
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

// TestRebootWaitsRouteDeleteTimeout pins draft-14's rule for a router that
// has lost its OwnSeqNum on a static line 0–1–2: node 1 crashes at 2 s and
// comes back at 3 s with a fresh router, which sends nothing of its own
// for ROUTE_DELETE_TIMEOUT (10 s). A data packet handed to it for 2 at 8 s
// is dropped as dymo:reboot-wait, answered with one RERR, and restarts the
// wait, so node 1 is silent again until 18 s and HELLOs once it is over.
func TestRebootWaitsRouteDeleteTimeout(t *testing.T) {
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
	}{{8 * sim.Second, 0}, {8 * sim.Second, 1}, {18*sim.Second - 1, 1}} {
		w.Kernel.RunUntil(c.at)
		if c.want == 1 && len(drops) == 0 {
			relay.Router().Receive(w.Node(0).NewPacket(2, netsim.PortCBR, 128), 0)
		}
		if got := relay.Counters().ControlPackets - sent; got != c.want {
			t.Fatalf("t=%v: node 1 sent %d control packets since it came up, want %d", c.at, got, c.want)
		}
	}
	if !slices.Equal(drops, []string{"dymo:reboot-wait"}) {
		t.Fatalf("node 1 dropped %v, want one dymo:reboot-wait", drops)
	}
	w.Kernel.RunUntil(20 * sim.Second)
	if got := relay.Counters().ControlPackets - sent; got <= 1 {
		t.Fatalf("node 1 sent %d control packets by 20 s, want HELLOs after its wait", got)
	}
}
