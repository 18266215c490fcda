package olsr

import (
	"testing"

	"cavenet/internal/geometry"
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

// Route reports the computed next hop toward dst, materializing the
// routing table first as a data-plane lookup does.
func (r *Router) Route(dst netsim.NodeID) (next netsim.NodeID, hops int, ok bool) {
	r.materialize(partRoutes)
	e, found := r.routeFor(dst)
	if !found {
		return 0, 0, false
	}
	return e.next, e.hops, true
}

// TestRouteBuildsWatched: a watcher is told of every routing-table build,
// those a HELLO under ETX asks for included, and EachRoute then visits
// exactly the entries a lookup finds, without building anything itself.
func TestRouteBuildsWatched(t *testing.T) {
	for _, cfg := range []Config{{}, {ETX: true}} {
		w := chainWorld(t, 5, 200, cfg)
		for i := 0; i < 10; i++ {
			sendAt(w, sim.Time(i+5)*sim.Second, 0, 4, 512)
			sendAt(w, sim.Time(i+5)*sim.Second+sim.Millisecond, 4, 1, 512)
		}
		builds := make([]uint64, 5)
		for i := range builds {
			r := w.Node(i).Router().(*Router)
			r.WatchRouteBuilds(func() {
				builds[i]++
				runs, n := r.routeRuns, 0
				r.EachRoute(func(dst, next netsim.NodeID, hops int) {
					n++
					if e, ok := r.routeFor(dst); !ok || e.next != next || e.hops != hops {
						t.Fatalf("ETX=%v node %d visits %d via %d in %d hops, the table holds %+v (%v)", cfg.ETX, i, dst, next, hops, e, ok)
					}
				})
				for id := netsim.NodeID(0); id < 5; id++ {
					if _, ok := r.routeFor(id); ok {
						n--
					}
				}
				if n != 0 || r.routeRuns != runs {
					t.Fatalf("ETX=%v node %d: EachRoute visits %d entries the table lacks, and builds %d times", cfg.ETX, i, n, r.routeRuns-runs)
				}
			})
		}
		w.Run(16 * sim.Second)
		for i, b := range builds {
			if runs := w.Node(i).Router().(*Router).TableStats().RouteRuns; b != runs || b == 0 {
				t.Fatalf("ETX=%v node %d: the watcher was told of %d builds, the router ran %d", cfg.ETX, i, b, runs)
			}
		}
	}
}

func TestNeighborSensingSymmetric(t *testing.T) {
	w := chainWorld(t, 2, 100, Config{})
	w.Run(5 * sim.Second)
	r := w.Node(0).Router().(*Router)
	sym := r.symNeighbors()
	if len(sym) != 1 || sym[0] != 1 {
		t.Fatalf("symmetric neighbors = %v, want [1]", sym)
	}
}

func TestRoutesToTwoHop(t *testing.T) {
	w := chainWorld(t, 3, 200, Config{})
	w.Run(6 * sim.Second)
	r := w.Node(0).Router().(*Router)
	next, hops, ok := r.Route(2)
	if !ok || next != 1 || hops != 2 {
		t.Fatalf("route to 2-hop: next=%d hops=%d ok=%v", next, hops, ok)
	}
}

func TestRoutesViaTopology(t *testing.T) {
	// 5-node chain: reaching node 4 from node 0 needs TC dissemination.
	w := chainWorld(t, 5, 200, Config{})
	w.Run(15 * sim.Second)
	r := w.Node(0).Router().(*Router)
	next, hops, ok := r.Route(4)
	if !ok {
		t.Fatal("no route to far node after convergence")
	}
	if next != 1 || hops != 4 {
		t.Fatalf("route = next %d hops %d, want 1/4", next, hops)
	}
}

func TestDataDeliveryAfterConvergence(t *testing.T) {
	w := chainWorld(t, 4, 200, Config{})
	sink := &traffic.Sink{}
	w.Node(3).AttachPort(netsim.PortCBR, sink)
	sendAt(w, 10*sim.Second, 0, 3, 512)
	w.Run(12 * sim.Second)
	if sink.Received != 1 {
		t.Fatalf("delivered %d, want 1", sink.Received)
	}
}

func TestNoRouteBeforeConvergenceDrops(t *testing.T) {
	w := chainWorld(t, 4, 200, Config{})
	var drops int
	w.Observe(func(e netsim.PacketEvent) {
		if e.Cause == netsim.CauseNoRoute {
			drops++
		}
	})
	// Send before any HELLO has been exchanged: proactive protocol must
	// drop (no buffering) — the behaviour visible in the paper's Fig. 9.
	sendAt(w, sim.Millisecond, 0, 3, 512)
	w.Run(2 * sim.Second)
	if drops != 1 {
		t.Fatalf("drops = %d, want 1", drops)
	}
}

func TestMPRSelectionChainMiddle(t *testing.T) {
	// In a 3-node chain the middle node is the only path to the far node,
	// so both ends must select it as MPR.
	w := chainWorld(t, 3, 200, Config{})
	w.Run(8 * sim.Second)
	r0 := w.Node(0).Router().(*Router)
	mprs := r0.MPRSet()
	if len(mprs) != 1 || mprs[0] != 1 {
		t.Fatalf("node 0 MPRs = %v, want [1]", mprs)
	}
	// The middle node should know it was selected.
	r1 := w.Node(1).Router().(*Router)
	if len(r1.selectors) == 0 {
		t.Fatal("middle node has empty MPR-selector set")
	}
}

func TestMPRNotNeededInClique(t *testing.T) {
	// Three mutually-connected nodes: no strict 2-hop neighbors, so the
	// MPR set must be empty.
	positions := []geometry.Vec2{{X: 0}, {X: 100}, {X: 50, Y: 50}}
	w, err := netsim.NewWorld(netsim.WorldConfig{
		Nodes: 3, Seed: 1, Static: positions,
	}, func(node *netsim.Node) netsim.Router { return New(node, Config{}) })
	if err != nil {
		t.Fatal(err)
	}
	w.Run(8 * sim.Second)
	for i := 0; i < 3; i++ {
		r := w.Node(i).Router().(*Router)
		if mprs := r.MPRSet(); len(mprs) != 0 {
			t.Fatalf("node %d MPRs = %v in a clique", i, mprs)
		}
	}
}

func TestMPRCoverageProperty(t *testing.T) {
	// Star-with-fringe: center node 0; ring of neighbors; fringe nodes
	// reachable through subsets of them. After convergence, every strict
	// 2-hop neighbor of node 0 must be covered by at least one MPR.
	positions := []geometry.Vec2{
		{X: 0, Y: 0},     // 0 center
		{X: 200, Y: 0},   // 1
		{X: 0, Y: 200},   // 2
		{X: 400, Y: 0},   // 3: via 1 only
		{X: 0, Y: 400},   // 4: via 2 only
		{X: 200, Y: 200}, // 5: via 1 and 2
	}
	w, err := netsim.NewWorld(netsim.WorldConfig{
		Nodes: 6, Seed: 3, Static: positions,
	}, func(node *netsim.Node) netsim.Router { return New(node, Config{}) })
	if err != nil {
		t.Fatal(err)
	}
	w.Run(10 * sim.Second)
	r := w.Node(0).Router().(*Router)
	mprs := make(map[netsim.NodeID]bool)
	for _, m := range r.MPRSet() {
		mprs[m] = true
	}
	now := w.Kernel.Now()
	sym := make(map[netsim.NodeID]bool)
	for _, s := range r.symNeighbors() {
		sym[s] = true
	}
	coveredBy := make(map[netsim.NodeID]bool)
	r.eachTwoHop(func(nbr, th netsim.NodeID, until sim.Time) {
		if mprs[nbr] {
			coveredBy[th] = true
		}
	})
	r.eachTwoHop(func(nbr, th netsim.NodeID, until sim.Time) {
		if until <= now || sym[th] || th == 0 {
			return
		}
		if !coveredBy[th] {
			t.Fatalf("2-hop node %d not covered by MPR set %v", th, r.MPRSet())
		}
	})
	if !mprs[1] || !mprs[2] {
		t.Fatalf("sole providers must be MPRs; got %v", r.MPRSet())
	}
}

func TestTCOnlyWithSelectors(t *testing.T) {
	// Two isolated nodes: no 2-hop topology → nobody selects MPRs → no TC
	// traffic at all.
	w := chainWorld(t, 2, 100, Config{})
	w.Run(10 * sim.Second)
	for i := 0; i < 2; i++ {
		r := w.Node(i).Router().(*Router)
		if r.topoExp.Len() != 0 {
			t.Fatalf("node %d learned %d topology tuples without any TC generator", i, r.topoExp.Len())
		}
	}
}

// tapRouter hands every control message its router receives to heard
// before the router sees it.
type tapRouter struct {
	*Router
	heard func(msg any, from netsim.NodeID)
}

func (t tapRouter) Receive(p *netsim.Packet, from netsim.NodeID) {
	if p.Kind == netsim.KindControl {
		t.heard(p.Payload, from)
	}
	t.Router.Receive(p, from)
}

// TestForwardSharesMessage: a forwarded TC or HNA carries the message it
// was received with, not a copy. On a 4-node chain whose far end is a
// gateway, TCs and HNAs are forwarded by MPRs, and every reception of one
// message, first hand or forwarded, must see the same pointer.
func TestForwardSharesMessage(t *testing.T) {
	type key struct {
		hna    bool
		origin netsim.NodeID
		seq    uint16
	}
	seen := make(map[key]any)
	forwarded := map[bool]int{}
	heard := func(msg any, from netsim.NodeID) {
		var k key
		switch m := msg.(type) {
		case *TC:
			k = key{false, m.Origin, m.Seq}
		case *HNA:
			k = key{true, m.Origin, m.Seq}
		default:
			return
		}
		if first, ok := seen[k]; ok && first != msg {
			t.Fatalf("%+v arrives from %d as %p, first as %p", k, from, msg, first)
		}
		seen[k] = msg
		if from != k.origin {
			forwarded[k.hna]++
		}
	}
	positions := make([]geometry.Vec2, 4)
	for i := range positions {
		positions[i] = geometry.Vec2{X: float64(i) * 200}
	}
	w, err := netsim.NewWorld(netsim.WorldConfig{Nodes: 4, Seed: 1, Static: positions},
		func(node *netsim.Node) netsim.Router { return tapRouter{New(node, Config{}), heard} })
	if err != nil {
		t.Fatal(err)
	}
	w.Node(3).Router().(tapRouter).AdvertiseNetwork(NetworkAssoc{From: 1000, To: 1999})
	w.Run(15 * sim.Second)
	if forwarded[false] == 0 || forwarded[true] == 0 {
		t.Fatalf("%d forwarded TCs and %d forwarded HNAs received, want some of each", forwarded[false], forwarded[true])
	}
}

func TestLinkFailureFeedbackExpiresLink(t *testing.T) {
	w := chainWorld(t, 2, 100, Config{})
	w.Run(5 * sim.Second)
	r := w.Node(0).Router().(*Router)
	if len(r.symNeighbors()) != 1 {
		t.Fatal("precondition: link up")
	}
	r.LinkFailure(1, &netsim.Packet{Kind: netsim.KindData})
	if len(r.symNeighbors()) != 0 {
		t.Fatal("link-layer failure should expire the link immediately")
	}
}

func TestExpiryPurgesDeadNeighbor(t *testing.T) {
	cfg := Config{}
	w := chainWorld(t, 2, 100, cfg)
	w.Run(5 * sim.Second)
	r := w.Node(0).Router().(*Router)
	if len(r.symNeighbors()) != 1 {
		t.Fatal("precondition failed")
	}
	// Stop node 1's router so its HELLOs cease, then advance well past the
	// neighbor hold time.
	w.Node(1).Router().Stop()
	w.Kernel.Schedule(w.Kernel.Now()+10*sim.Second, func() {})
	for w.Kernel.Step() {
	}
	r.purge()
	if len(r.symNeighbors()) != 0 {
		t.Fatal("dead neighbor not purged")
	}
	// The purge reports the expiry: the next read recomputes without it.
	if next, _, ok := r.Route(1); ok {
		t.Fatalf("route to the purged neighbor survived the purge (via %d)", next)
	}
}

func TestETXPrefersReliableRoute(t *testing.T) {
	// Unit-level: with ETX, a 2-edge topology path of quality 1.0 must beat
	// a 1-hop-plus-edge path with terrible quality.
	cost := etxCost(1, 1)
	if cost != 1 {
		t.Fatalf("perfect link ETX = %v, want 1", cost)
	}
	bad := etxCost(0.2, 0.2)
	if bad < 24.9 || bad > 25.1 {
		t.Fatalf("lossy link ETX = %v, want ≈25", bad)
	}
	if etxCost(0, 0) <= 0 {
		t.Fatal("unmeasured link cost must stay positive (clamped)")
	}
}

func TestLQEstimatorWindow(t *testing.T) {
	e := newLQEstimator(4)
	if e.ratio() != 1 {
		t.Fatal("optimistic prior should be 1")
	}
	// Pattern: heard, missed, heard, missed → ratio 0.5.
	e.heard()
	e.tick()
	e.tick()
	e.heard()
	e.tick()
	e.tick()
	if got := e.ratio(); got != 0.5 {
		t.Fatalf("ratio = %v, want 0.5", got)
	}
	// Window slides: four straight hits push the misses out.
	for i := 0; i < 4; i++ {
		e.heard()
		e.tick()
	}
	if got := e.ratio(); got != 1 {
		t.Fatalf("ratio after window slide = %v, want 1", got)
	}
}

func TestETXModeEndToEnd(t *testing.T) {
	w := chainWorld(t, 3, 200, Config{ETX: true})
	sink := &traffic.Sink{}
	w.Node(2).AttachPort(netsim.PortCBR, sink)
	sendAt(w, 10*sim.Second, 0, 2, 512)
	w.Run(12 * sim.Second)
	if sink.Received != 1 {
		t.Fatalf("ETX mode delivery failed: %d", sink.Received)
	}
}

func TestControlOverheadGrows(t *testing.T) {
	w := chainWorld(t, 3, 200, Config{})
	w.Run(10 * sim.Second)
	c := w.Node(1).Counters()
	if c.ControlPackets < 5 || c.ControlBytes == 0 {
		t.Fatalf("control traffic = %d pkts %d bytes", c.ControlPackets, c.ControlBytes)
	}
}

func TestRouterName(t *testing.T) {
	w := chainWorld(t, 2, 100, Config{})
	if w.Node(0).Router().Name() != "olsr" {
		t.Fatal("Name() should be olsr")
	}
}

func TestDataForwardTTLExpiry(t *testing.T) {
	w := chainWorld(t, 3, 200, Config{})
	w.Run(8 * sim.Second)
	var ttlDrops int
	w.Observe(func(e netsim.PacketEvent) {
		if e.Cause == netsim.CauseTTL {
			ttlDrops++
		}
	})
	// Inject a packet with TTL 1 at node 0 toward node 2; the relay must
	// kill it.
	w.Kernel.Schedule(w.Kernel.Now(), func() {
		p := w.Node(0).NewPacket(2, netsim.PortCBR, 100)
		p.TTL = 1
		w.Node(0).SendData(p)
	})
	w.Kernel.RunUntil(w.Kernel.Now() + 2*sim.Second)
	if ttlDrops != 1 {
		t.Fatalf("ttl drops = %d, want 1", ttlDrops)
	}
}

// MPRSet returns the current multipoint relays (for tests and analysis).
func (r *Router) MPRSet() []netsim.NodeID {
	r.materialize(partMPR)
	return append([]netsim.NodeID(nil), r.mprList...)
}

// TestANSNBumpsOnlyWhenSelectorsChange: RFC 3626 §9.3 increments the ANSN
// when the advertised neighbour set — the router's MPR selectors — changes.
// A steady selector re-sending its HELLO every second leaves the ANSN where
// its first HELLO put it; a new selector bumps it exactly once, and so does
// a selector whose tuple expired and that selects us again.
func TestANSNBumpsOnlyWhenSelectorsChange(t *testing.T) {
	w, r := newBareRouter(t, Config{})
	hello := func(at sim.Time, from netsim.NodeID) uint16 {
		w.Kernel.RunUntil(at)
		r.handleHello(&Hello{From: from, Links: []HelloLink{{Neighbor: 0, Code: LinkMPR}}}, from)
		return r.ansn
	}
	base := r.ansn
	steps := []struct {
		from netsim.NodeID
		want uint16 // bumps since base
	}{
		{1, 1}, {1, 1}, {1, 1}, {1, 1}, // steady selector 1
		{2, 2}, {1, 2}, {2, 2}, {1, 2}, // selector 2 joins once
	}
	at := sim.Time(0)
	for i, s := range steps {
		at += sim.Second
		if got := hello(at, s.from) - base; got != s.want {
			t.Fatalf("HELLO %d (from %d at %v): ANSN moved %d times, want %d", i, s.from, at, got, s.want)
		}
	}
	// Selector 2 falls silent: its tuple expires (one bump), and its next
	// selecting HELLO makes it a selector again (one more).
	at += 2 * neighborHold
	for t0 := at - 2*neighborHold + sim.Second; t0 < at; t0 += sim.Second {
		hello(t0, 1)
	}
	w.Kernel.RunUntil(at)
	r.purge()
	if got := r.ansn - base; got != 3 {
		t.Fatalf("after selector 2 expired: ANSN moved %d times, want 3", got)
	}
	if got := hello(at, 2) - base; got != 4 {
		t.Fatalf("selector 2 back: ANSN moved %d times, want 4", got)
	}
}
