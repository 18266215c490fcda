package check

import (
	"strings"
	"testing"

	"cavenet/internal/geometry"
	"cavenet/internal/mobility"
	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

func TestReportCapsPerCheck(t *testing.T) {
	r := NewReport()
	for i := 0; i < maxPerCheck+10; i++ {
		r.Add("ttl", "violation %d", i)
	}
	if got := len(r.Violations()); got != maxPerCheck {
		t.Fatalf("recorded %d violations, want cap %d", got, maxPerCheck)
	}
	if !strings.Contains(r.String(), "and 10 more") {
		t.Fatalf("truncation summary missing:\n%s", r.String())
	}
	if r.Ok() {
		t.Fatal("report with violations claims Ok")
	}
}

// mkPacket builds a data packet as an observer would see it.
func mkPacket(uid uint64, ttl, hops int) *netsim.Packet {
	return &netsim.Packet{UID: uid, Kind: netsim.KindData, TTL: ttl, Hops: hops}
}

// eventNode is where synthetic events happen: the one node of a world
// whose router, a treeRouter, names the drops it renders.
var eventNode = func() *netsim.Node {
	w, err := netsim.NewWorld(netsim.WorldConfig{Nodes: 1, Static: []geometry.Vec2{{}}},
		func(*netsim.Node) netsim.Router { return &treeRouter{} })
	if err != nil {
		panic(err)
	}
	return w.Node(0)
}()

// sent, delivered and dropped build synthetic events at time 0.
func sent(p *netsim.Packet) netsim.PacketEvent {
	return netsim.PacketEvent{Kind: netsim.Sent, Node: eventNode, Packet: p}
}

func delivered(p *netsim.Packet) netsim.PacketEvent {
	return netsim.PacketEvent{Kind: netsim.Delivered, Node: eventNode, Packet: p}
}

func dropped(p *netsim.Packet, c netsim.Cause) netsim.PacketEvent {
	return netsim.PacketEvent{Kind: netsim.Dropped, Node: eventNode, Packet: p, Cause: c}
}

func TestLedgerCleanLifecycles(t *testing.T) {
	rep := NewReport()
	l := NewLedger(rep)

	// Delivered after 3 hops: TTL decremented twice at forwarders.
	l.Observe(sent(mkPacket(1, netsim.DefaultTTL, 0)))
	l.Observe(delivered(mkPacket(1, netsim.DefaultTTL-2, 3)))

	// Dropped for TTL expiry exactly at zero.
	l.Observe(sent(mkPacket(2, netsim.DefaultTTL, 0)))
	l.Observe(dropped(mkPacket(2, 0, netsim.DefaultTTL), netsim.CauseTTL))

	// ACK-loss fork: link-failure drop then delivery of the live copy.
	l.Observe(sent(mkPacket(3, netsim.DefaultTTL, 0)))
	l.Observe(dropped(mkPacket(3, netsim.DefaultTTL-1, 1), netsim.CauseLinkFailure))
	l.Observe(delivered(mkPacket(3, netsim.DefaultTTL-1, 2)))

	// Still in flight, held in custody.
	l.Observe(sent(mkPacket(4, netsim.DefaultTTL, 0)))
	l.finish(map[uint64]bool{4: true})

	if !rep.Ok() {
		t.Fatalf("clean lifecycles flagged:\n%s", rep)
	}
	if got := l.Active(); got != 4 {
		t.Fatalf("%d live entries, want one per packet: nothing retires at a frozen clock", got)
	}
}

// TestLedgerCompactsSettledEntries pins the compaction contract: fully
// accounted packets are retired settleGrace after their last event, so
// the live entry count tracks packets in flight, not packets ever sent —
// while a late ACK-loss fork inside the grace window still reconciles
// against its entry.
func TestLedgerCompactsSettledEntries(t *testing.T) {
	rep := NewReport()
	l := NewLedger(rep)
	var now sim.Time
	at := func(e netsim.PacketEvent) netsim.PacketEvent {
		e.At = now
		return e
	}

	const packets = 500
	for i := 0; i < packets; i++ {
		uid := uint64(i + 1)
		now = sim.Time(i) * sim.Second
		l.Observe(at(sent(mkPacket(uid, netsim.DefaultTTL, 0))))
		if i%3 == 0 {
			// Loss-heavy fate: the packet's only terminal is the ACK-loss
			// fork's link-failure drop — these must retire too, or the map
			// grows O(total packets) in exactly the partition workloads.
			l.Observe(at(dropped(mkPacket(uid, netsim.DefaultTTL-1, 1), netsim.CauseLinkFailure)))
		} else {
			l.Observe(at(delivered(mkPacket(uid, netsim.DefaultTTL-1, 2))))
		}
	}
	// Every entry beyond the grace window must be retired; the live count
	// is bounded by the packets settled within the last settleGrace.
	live := int(settleGrace/sim.Second) + 2
	if l.Active() > live {
		t.Fatalf("ledger holds %d live entries after %d settled packets (want <= %d): compaction not reclaiming", l.Active(), packets, live)
	}
	if l.Retired() == 0 {
		t.Fatal("no entries retired")
	}
	if !rep.Ok() {
		t.Fatalf("clean settled lifecycles flagged:\n%s", rep)
	}

	// A late ACK-loss fork within the grace window must still reconcile:
	// deliver, then the sender's link-failure drop arrives a little later.
	forkUID := uint64(packets + 1)
	l.Observe(at(sent(mkPacket(forkUID, netsim.DefaultTTL, 0))))
	l.Observe(at(delivered(mkPacket(forkUID, netsim.DefaultTTL-1, 2))))
	now += 2 * sim.Second
	l.Observe(at(dropped(mkPacket(forkUID, netsim.DefaultTTL-1, 1), netsim.CauseLinkFailure)))
	if !rep.Ok() {
		t.Fatalf("in-grace ACK-loss fork flagged:\n%s", rep)
	}

	// Retirement never hides a vanished packet: an unterminated entry
	// survives compaction and still fails custody settlement.
	l.Observe(at(sent(mkPacket(uint64(packets+2), netsim.DefaultTTL, 0))))
	now += settleGrace * 3
	l.Observe(at(sent(mkPacket(uint64(packets+3), netsim.DefaultTTL, 0))))
	l.finish(map[uint64]bool{uint64(packets + 3): true})
	if rep.Ok() || !strings.Contains(rep.String(), "vanished") {
		t.Fatalf("compaction hid a vanished packet:\n%s", rep)
	}
}

func TestLedgerCatchesVanishedPacket(t *testing.T) {
	rep := NewReport()
	l := NewLedger(rep)
	l.Observe(sent(mkPacket(9, netsim.DefaultTTL, 0)))
	l.finish(nil) // no terminal event, no custody
	if rep.Ok() || !strings.Contains(rep.String(), "vanished") {
		t.Fatalf("vanished packet not caught:\n%s", rep)
	}
}

func TestLedgerCatchesDuplicateDelivery(t *testing.T) {
	rep := NewReport()
	l := NewLedger(rep)
	l.Observe(sent(mkPacket(1, netsim.DefaultTTL, 0)))
	l.Observe(delivered(mkPacket(1, netsim.DefaultTTL, 1)))
	l.Observe(delivered(mkPacket(1, netsim.DefaultTTL, 1)))
	if rep.Ok() || !strings.Contains(rep.String(), "delivered 2 times") {
		t.Fatalf("duplicate delivery not caught:\n%s", rep)
	}
}

func TestLedgerCatchesUnexplainedDropAfterDelivery(t *testing.T) {
	rep := NewReport()
	l := NewLedger(rep)
	l.Observe(sent(mkPacket(1, netsim.DefaultTTL, 0)))
	l.Observe(delivered(mkPacket(1, netsim.DefaultTTL, 1)))
	// A no-route drop after delivery has no ACK-loss fork to explain it.
	l.Observe(dropped(mkPacket(1, netsim.DefaultTTL-1, 1), netsim.CauseNoForwardRoute))
	if rep.Ok() {
		t.Fatal("unexplained second terminal not caught")
	}
}

func TestLedgerCatchesTTLAnomalies(t *testing.T) {
	rep := NewReport()
	l := NewLedger(rep)
	// Originated with a pre-decremented TTL.
	l.Observe(sent(mkPacket(1, netsim.DefaultTTL-1, 0)))
	// Delivered with an impossible TTL/hop combination (skipped decrement).
	l.Observe(sent(mkPacket(2, netsim.DefaultTTL, 0)))
	l.Observe(delivered(mkPacket(2, netsim.DefaultTTL, 3)))
	// TTL-expiry drop with TTL still positive.
	l.Observe(sent(mkPacket(3, netsim.DefaultTTL, 0)))
	l.Observe(dropped(mkPacket(3, 4, netsim.DefaultTTL-4), netsim.CauseTTL))
	if got := len(rep.Violations()); got < 3 {
		t.Fatalf("expected >= 3 TTL violations, got %d:\n%s", got, rep)
	}
}

// treeRouter is a stub link-state router: a table the test writes, and a
// build that tells the watcher as an OLSR routing-table build does.
type treeRouter struct {
	routes map[netsim.NodeID][2]int // dst -> (next, hops)
	built  func()
}

func (r *treeRouter) Name() string                                     { return "tree" }
func (r *treeRouter) Start()                                           {}
func (r *treeRouter) Stop()                                            {}
func (r *treeRouter) Origin(p *netsim.Packet)                          {}
func (r *treeRouter) Receive(p *netsim.Packet, from netsim.NodeID)     {}
func (r *treeRouter) LinkFailure(next netsim.NodeID, p *netsim.Packet) {}
func (r *treeRouter) WatchRouteBuilds(f func())                        { r.built = f }
func (r *treeRouter) EachRoute(visit func(dst, next netsim.NodeID, hops int)) {
	for dst, e := range r.routes {
		visit(dst, netsim.NodeID(e[0]), e[1])
	}
}

// build replaces the table and tells the watcher.
func (r *treeRouter) build(routes map[netsim.NodeID][2]int) {
	r.routes = routes
	r.built()
}

func staticWorld(t *testing.T, n int, factory netsim.RouterFactory) *netsim.World {
	t.Helper()
	pos := make([]geometry.Vec2, n)
	for i := range pos {
		pos[i] = geometry.Vec2{X: float64(100 * i)}
	}
	w, err := netsim.NewWorld(netsim.WorldConfig{Nodes: n, Static: pos}, factory)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// treeWorld is four treeRouters whose builds a WriteLoops watches.
func treeWorld(t *testing.T) (*Report, *WriteLoops, *netsim.World) {
	rep := NewReport()
	l := NewWriteLoops(rep)
	w := staticWorld(t, 4, l.Wrap(func(*netsim.Node) netsim.Router { return &treeRouter{} }))
	l.Bind(w)
	return rep, l, w
}

// TestTreeCatchesInconsistentTable: node 0's table after a build must be
// a self-consistent shortest-path tree, entry by entry.
func TestTreeCatchesInconsistentTable(t *testing.T) {
	for _, c := range []struct {
		name   string
		routes map[netsim.NodeID][2]int
		want   string // "" for a clean table
	}{
		{"clean tree", map[netsim.NodeID][2]int{1: {1, 1}, 2: {1, 2}, 3: {1, 3}}, ""},
		{"via a node without a route", map[netsim.NodeID][2]int{2: {1, 2}}, "node 0 routes to 2 via 1, which is not a 1-hop neighbor route"},
		{"via a node two hops away", map[netsim.NodeID][2]int{1: {3, 2}, 3: {3, 1}, 2: {1, 3}}, "node 0 routes to 2 via 1, which is not a 1-hop neighbor route"},
		{"1-hop route via another node", map[netsim.NodeID][2]int{1: {1, 1}, 2: {1, 1}}, "node 0's 1-hop route to 2 goes via 1"},
		{"via itself", map[netsim.NodeID][2]int{2: {0, 2}}, "node 0 routes to 2 via itself"},
		{"in zero hops", map[netsim.NodeID][2]int{2: {2, 0}}, "node 0 routes to 2 in 0 hops"},
		{"out of the world", map[netsim.NodeID][2]int{2: {7, 2}}, "node 0 routes to 2 via out-of-world next hop 7"},
	} {
		rep, _, w := treeWorld(t)
		w.Node(0).Router().(*treeRouter).build(c.routes)
		if c.want == "" && !rep.Ok() {
			t.Errorf("%s flagged:\n%s", c.name, rep)
		}
		if c.want != "" && !strings.Contains(rep.String(), c.want) {
			t.Errorf("%s not caught (want %q):\n%s", c.name, c.want, rep)
		}
	}
}

// TestTreeForgetsEarlierBuilds: a 1-hop route of node 0's earlier build,
// or of another node's table, does not vouch for a route of this one.
func TestTreeForgetsEarlierBuilds(t *testing.T) {
	rep, _, w := treeWorld(t)
	w.Node(0).Router().(*treeRouter).build(map[netsim.NodeID][2]int{1: {1, 1}})
	w.Node(2).Router().(*treeRouter).build(map[netsim.NodeID][2]int{1: {1, 1}})
	if !rep.Ok() {
		t.Fatalf("clean tables flagged:\n%s", rep)
	}
	w.Node(0).Router().(*treeRouter).build(map[netsim.NodeID][2]int{3: {1, 2}})
	if !strings.Contains(rep.String(), "node 0 routes to 3 via 1, which is not a 1-hop neighbor route") {
		t.Fatalf("a route via an earlier build's neighbor passed:\n%s", rep)
	}
}

// TestTreeSettleCountsBuilds: Settle holds the builds the check inspected
// to the routers' count, and a router a crash rebuilds starts its count
// afresh, as its TableStats do.
func TestTreeSettleCountsBuilds(t *testing.T) {
	rep, l, w := treeWorld(t)
	clean := map[netsim.NodeID][2]int{}
	w.Node(0).Router().(*treeRouter).build(clean)
	w.Node(0).Router().(*treeRouter).build(clean)
	w.Node(1).Router().(*treeRouter).build(clean)
	l.Settle(3)
	if !rep.Ok() {
		t.Fatalf("three builds of three flagged:\n%s", rep)
	}
	w.Node(0).Down(false)
	l.Settle(1)
	if !rep.Ok() {
		t.Fatalf("the crashed router's builds still count:\n%s", rep)
	}
	l.Settle(2)
	if !strings.Contains(rep.String(), "the tree check inspected 1 routing-table builds, the routers ran 2") {
		t.Fatalf("a build the check missed passed:\n%s", rep)
	}
}

// seqRouter is the reactive machine with no messages of its own: tests
// write its routes directly, as a protocol's handlers would.
type seqRouter struct{ *netsim.Reactive }

func (r *seqRouter) Receive(p *netsim.Packet, from netsim.NodeID) {}

func newSeqRouter(n *netsim.Node) netsim.Router {
	return &seqRouter{netsim.NewReactive(n, netsim.ReactiveProtocol{
		Name:          "seq",
		RouteLifetime: 5 * sim.Second,
		HelloInterval: sim.Second,
		NeighbourHold: 3 * sim.Second,
		SeenHold:      sim.Second,
		SendRREQ:      func(*netsim.Discovery) sim.Time { return sim.Second },
		SendHello:     func() {},
		SendRERR:      func([]netsim.Unreachable) {},
	})}
}

// writeLoopWorld is four seqRouters whose route writes a WriteLoops
// watches, and a way to write node i's route at a given instant.
func writeLoopWorld(t *testing.T) (*Report, func(at sim.Time, i int, dst netsim.NodeID, seq uint32, hops int, next netsim.NodeID, life sim.Time)) {
	rep := NewReport()
	l := NewWriteLoops(rep)
	w := staticWorld(t, 4, l.Wrap(newSeqRouter))
	l.Bind(w)
	return rep, func(at sim.Time, i int, dst netsim.NodeID, seq uint32, hops int, next netsim.NodeID, life sim.Time) {
		w.Kernel.RunUntil(at)
		w.Node(i).Router().(*seqRouter).Routes.Update(dst, seq, true, hops, next, life)
	}
}

// TestWriteLoopsCatchesCycleAtWrite: 1 → 2 and 2 → 0 toward 3 are clean
// writes; 0 → 1 closes the three-node cycle, and the walk from 1 must
// take two hops to find it.
func TestWriteLoopsCatchesCycleAtWrite(t *testing.T) {
	rep, write := writeLoopWorld(t)
	write(0, 1, 3, 1, 2, 2, 10*sim.Second)
	write(0, 2, 3, 1, 2, 0, 10*sim.Second)
	if !rep.Ok() {
		t.Fatalf("clean writes flagged:\n%s", rep)
	}
	write(0, 0, 3, 1, 3, 1, 10*sim.Second)
	if rep.Ok() || !strings.Contains(rep.String(), "node 0's route to 3 via 1 closes a routing loop") {
		t.Fatalf("the write closing 0 → 1 → 2 → 0 was not caught:\n%s", rep)
	}
}

// TestWriteLoopsCatchesOutOfWorldHop: a route whose next hop names no
// node of the world is reported at its write.
func TestWriteLoopsCatchesOutOfWorldHop(t *testing.T) {
	rep, write := writeLoopWorld(t)
	write(0, 0, 3, 1, 2, 7, 10*sim.Second)
	if rep.Ok() || !strings.Contains(rep.String(), "node 0 routes to 3 via out-of-world next hop 7") {
		t.Fatalf("the write via node 7 of a 4-node world was not caught:\n%s", rep)
	}
}

// TestWriteLoopsCatchesKeepBranch: node 0's route to 3 via 1 passes its
// deadline at 1 s with no purge to flip it, so 1 → 2 → 0 close nothing
// at 2 s. An update with the same number and more hops takes the keep
// branch, and stretching the old entry's lifetime brings 0 → 1 back: the
// write that closes the cycle.
func TestWriteLoopsCatchesKeepBranch(t *testing.T) {
	rep, write := writeLoopWorld(t)
	write(0, 0, 3, 5, 1, 1, sim.Second)
	write(2*sim.Second, 1, 3, 5, 2, 2, 10*sim.Second)
	write(2*sim.Second, 2, 3, 5, 2, 0, 10*sim.Second)
	if !rep.Ok() {
		t.Fatalf("writes around an expired route flagged:\n%s", rep)
	}
	write(2*sim.Second, 0, 3, 5, 3, 2, 10*sim.Second)
	if rep.Ok() || !strings.Contains(rep.String(), "node 0's route to 3 via 1 closes a routing loop") {
		t.Fatalf("the keep-branch write reviving 0 → 1 was not caught:\n%s", rep)
	}
}

func TestTraceCatchesTeleport(t *testing.T) {
	tr := &mobility.SampledTrace{
		Interval: 1,
		Positions: [][]geometry.Vec2{
			{{X: 0}, {X: 10}, {X: 500}}, // 490 m in one second
		},
	}
	rep := NewReport()
	Trace(tr, 42.5, nil, rep)
	if rep.Ok() || !strings.Contains(rep.String(), "teleported") {
		t.Fatalf("teleport not caught:\n%s", rep)
	}
}

func TestTraceExemptsDeclaredActivation(t *testing.T) {
	tr := &mobility.SampledTrace{
		Interval: 1,
		Positions: [][]geometry.Vec2{
			{{X: -600}, {X: -600}, {X: 1000}, {X: 1010}},
		},
	}
	rep := NewReport()
	Trace(tr, 42.5, []int{2}, rep)
	if !rep.Ok() {
		t.Fatalf("declared activation jump flagged:\n%s", rep)
	}
}

// TestTraceHandlesRaggedTrace pins graceful handling of hand-built
// traces with unequal per-node sample counts: report (or ignore), never
// panic.
func TestTraceHandlesRaggedTrace(t *testing.T) {
	tr := &mobility.SampledTrace{
		Interval: 1,
		Positions: [][]geometry.Vec2{
			{{X: 0}, {X: 10}, {X: 20}},
			{}, // node with no samples at all
			{{X: 5}},
		},
	}
	rep := NewReport()
	Trace(tr, 42.5, nil, rep)
	if !rep.Ok() {
		t.Fatalf("ragged but teleport-free trace flagged:\n%s", rep)
	}
}

func TestReportTotalCountsBeyondCap(t *testing.T) {
	r := NewReport()
	for i := 0; i < maxPerCheck+10; i++ {
		r.Add("conservation", "violation %d", i)
	}
	r.Add("ttl", "one more")
	if got := r.Total(); got != maxPerCheck+11 {
		t.Fatalf("Total = %d, want %d", got, maxPerCheck+11)
	}
}

// Trace validates a fully materialized mobility trace by feeding it
// through a TraceWatcher row by row — one code path for the recorded and
// streamed checks. activationStep may be nil when no ramp is in play.
func Trace(tr *mobility.SampledTrace, maxStepMeters float64, activationStep []int, report *Report) {
	w := WatchTrace(maxStepMeters, activationStep, report)
	row := make([]geometry.Vec2, tr.NumNodes())
	for k := 0; k < tr.NumSamples(); k++ {
		row = tr.Row(k, row[:0])
		w.OnSample(k, row)
	}
}
