package netsim

import (
	"fmt"
	"slices"
	"testing"

	"cavenet/internal/geometry"
	"cavenet/internal/mobility"
	"cavenet/internal/sim"
)

// floodRouter is a trivial Router used to exercise the node plumbing: data
// packets are link-broadcast with duplicate suppression; every node that
// sees a packet addressed to it delivers it.
type floodRouter struct {
	node *Node
	seen map[uint64]bool
}

func newFloodRouter(n *Node) Router {
	return &floodRouter{node: n, seen: make(map[uint64]bool)}
}

func (f *floodRouter) Name() string { return "flood" }
func (f *floodRouter) Start()       {}
func (f *floodRouter) Stop()        {}

func (f *floodRouter) Origin(p *Packet) {
	f.seen[p.UID] = true
	f.node.SendFrame(BroadcastID, p)
}

func (f *floodRouter) Receive(p *Packet, from NodeID) {
	if f.seen[p.UID] {
		return
	}
	f.seen[p.UID] = true
	if p.Dst == f.node.ID() {
		f.node.DeliverLocal(p)
		return
	}
	p.TTL--
	if p.TTL <= 0 {
		f.node.DropData(p, CauseTTL)
		return
	}
	f.node.SendFrame(BroadcastID, p)
}

func (f *floodRouter) LinkFailure(NodeID, *Packet) {}

func staticPositions(n int, spacing float64) []geometry.Vec2 {
	out := make([]geometry.Vec2, n)
	for i := range out {
		out[i] = geometry.Vec2{X: float64(i) * spacing}
	}
	return out
}

func TestWorldValidation(t *testing.T) {
	if _, err := NewWorld(WorldConfig{Nodes: 0}, newFloodRouter); err == nil {
		t.Fatal("zero nodes must error")
	}
	if _, err := NewWorld(WorldConfig{Nodes: 3, Static: staticPositions(2, 10)}, newFloodRouter); err == nil {
		t.Fatal("missing static positions must error")
	}
	bad := &mobility.SampledTrace{Interval: 1, Positions: nil}
	if _, err := NewWorld(WorldConfig{Nodes: 3, Mobility: bad}, newFloodRouter); err == nil {
		t.Fatal("invalid trace must error")
	}
	short := &mobility.SampledTrace{
		Interval:  1,
		Positions: [][]geometry.Vec2{{{X: 1}}},
	}
	if _, err := NewWorld(WorldConfig{Nodes: 3, Mobility: short}, newFloodRouter); err == nil {
		t.Fatal("trace with fewer nodes than scenario must error")
	}
	if _, err := NewWorld(WorldConfig{Nodes: 1, Static: staticPositions(1, 0)},
		func(*Node) Router { return nil }); err == nil {
		t.Fatal("nil router must error")
	}
}

func TestEndToEndFloodDelivery(t *testing.T) {
	w, err := NewWorld(WorldConfig{
		Nodes:  4,
		Static: staticPositions(4, 200), // chain: only neighbors in range
	}, newFloodRouter)
	if err != nil {
		t.Fatal(err)
	}
	// Delivery is terminal custody: p is pooled after the observer returns, so
	// snapshot the value rather than retaining the pointer.
	var delivered []Packet
	w.Observe(func(e PacketEvent) {
		if e.Kind == Delivered {
			delivered = append(delivered, *e.Packet)
		}
	})
	sink := PortFunc(func(p *Packet, at sim.Time) {})
	w.Node(3).AttachPort(PortCBR, sink)

	p := w.Node(0).NewPacket(3, PortCBR, 512)
	w.Kernel.Schedule(0, func() { w.Node(0).SendData(p) })
	w.Run(sim.Second)

	if len(delivered) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(delivered))
	}
	if delivered[0].Hops != 3 {
		t.Fatalf("hops = %d, want 3 (flood over a 4-node chain)", delivered[0].Hops)
	}
	if w.Node(0).Counters().DataOriginated != 1 {
		t.Fatal("originator counter wrong")
	}
	if w.Node(3).Counters().DataDelivered != 1 {
		t.Fatal("destination counter wrong")
	}
	// The relays forward once each; the originator's and the
	// destination's frames are not forwards, and a flood of data sends no
	// control traffic.
	for i, want := range []uint64{0, 1, 1, 0} {
		c := w.Node(i).Counters()
		if c.DataForwarded != want {
			t.Fatalf("node %d forwarded %d, want %d", i, c.DataForwarded, want)
		}
		if c.ControlPackets != 0 || c.ControlBytes != 0 {
			t.Fatalf("node %d counted control traffic %d/%d", i, c.ControlPackets, c.ControlBytes)
		}
	}
}

func TestLocalDelivery(t *testing.T) {
	w, err := NewWorld(WorldConfig{Nodes: 1, Static: staticPositions(1, 0)}, newFloodRouter)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	w.Node(0).AttachPort(7, PortFunc(func(*Packet, sim.Time) { got++ }))
	p := w.Node(0).NewPacket(0, 7, 10)
	w.Kernel.Schedule(0, func() { w.Node(0).SendData(p) })
	w.Run(sim.Second)
	if got != 1 {
		t.Fatal("self-addressed packet must deliver locally without radio")
	}
}

func TestDuplicatePortPanics(t *testing.T) {
	w, err := NewWorld(WorldConfig{Nodes: 1, Static: staticPositions(1, 0)}, newFloodRouter)
	if err != nil {
		t.Fatal(err)
	}
	w.Node(0).AttachPort(7, PortFunc(func(*Packet, sim.Time) {}))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AttachPort must panic")
		}
	}()
	w.Node(0).AttachPort(7, PortFunc(func(*Packet, sim.Time) {}))
}

func TestMobilityUpdatesPositions(t *testing.T) {
	tr := &mobility.SampledTrace{
		Interval: 1,
		Positions: [][]geometry.Vec2{
			{{X: 0}, {X: 100}, {X: 200}},
			{{X: 50}, {X: 50}, {X: 50}},
		},
	}
	w, err := NewWorld(WorldConfig{Nodes: 2, Mobility: tr}, newFloodRouter)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Node(0).Position(); got.X != 0 {
		t.Fatalf("initial position = %v", got)
	}
	w.Run(2 * sim.Second)
	if got := w.Node(0).Position(); got.X < 190 {
		t.Fatalf("node 0 at %v after 2 s, want ≈200", got)
	}
	if got := w.Node(1).Position(); got.X != 50 {
		t.Fatalf("stationary node moved: %v", got)
	}
}

// TestNodePacketCopiesIntoPool: Node.Packet copies its value into a
// record of the world's pool, shares no mutable field with its source, and
// takes back the record a release returned.
func TestNodePacketCopiesIntoPool(t *testing.T) {
	w, err := NewWorld(WorldConfig{Nodes: 1, Static: staticPositions(1, 0)}, newFloodRouter)
	if err != nil {
		t.Fatal(err)
	}
	n := w.Node(0)
	p := n.Packet(Packet{UID: 9, Kind: KindControl, TTL: 5, Size: 100})
	c := n.Packet(*p)
	c.TTL = 1
	if p.TTL != 5 || c.UID != 9 || c == p {
		t.Fatalf("copy %v shares state with %v", c, p)
	}
	if p.String() == "" {
		t.Fatal("String should format")
	}
	w.releasePacket(c)
	if *c != (Packet{}) {
		t.Fatalf("released record still holds %v", c)
	}
	if got := n.Packet(Packet{Kind: KindData}); got != c {
		t.Fatal("Packet did not reuse the released record")
	}
}

func TestDropHook(t *testing.T) {
	w, err := NewWorld(WorldConfig{Nodes: 1, Static: staticPositions(1, 0)}, newFloodRouter)
	if err != nil {
		t.Fatal(err)
	}
	var reasons []string
	w.Observe(func(e PacketEvent) {
		if e.Kind == Dropped {
			reasons = append(reasons, e.Cause.Reason(e.Node.Router().Name()))
		}
	})
	w.Node(0).DropData(&Packet{}, CauseTTL)
	if len(reasons) != 1 || reasons[0] != "flood:ttl" {
		t.Fatalf("reasons = %v", reasons)
	}
	if w.Node(0).Counters().DataDropped != 1 {
		t.Fatal("drop counter not incremented")
	}
}

// TestCauseReasons pins how a drop is written: "<router>:<cause>", with
// the MAC's queue-full and a node's outage under their fixed prefixes.
func TestCauseReasons(t *testing.T) {
	want := []string{"aodv:ttl", "aodv:no-route", "aodv:no-forward-route", "aodv:link-failure",
		"aodv:reboot-wait", "aodv:buffer-full", "aodv:no-location", "aodv:unreachable",
		"mac:queue-full", "node:down"}
	var got []string
	for c := CauseTTL; c <= CauseNodeDown; c++ {
		got = append(got, c.Reason("aodv"))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("reasons = %q, want %q", got, want)
	}
}

// TestObserveChains pins install order: every observer sees every event,
// earlier observers first, each with the event's kind, clock, node and
// cause.
func TestObserveChains(t *testing.T) {
	w, err := NewWorld(WorldConfig{Nodes: 1, Static: staticPositions(1, 0)}, newFloodRouter)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		w.Observe(func(e PacketEvent) {
			if e.Node != w.Node(0) || e.At != w.Kernel.Now() {
				t.Errorf("%s saw node %v at %v", name, e.Node, e.At)
			}
			order = append(order, fmt.Sprintf("%s.%d/%d", name, e.Kind, e.Cause))
		})
	}
	n := w.Node(0)
	w.Kernel.Schedule(sim.Second, func() {
		n.SendData(n.NewPacket(0, PortCBR, 10)) // self: sent then delivered
		n.DropData(&Packet{}, CauseNodeDown)
	})
	for w.Kernel.Step() {
	}
	want := []string{"a.1/0", "b.1/0", "c.1/0", "a.2/0", "b.2/0", "c.2/0", "a.3/10", "b.3/10", "c.3/10"}
	if !slices.Equal(order, want) {
		t.Fatalf("observer calls = %v, want %v", order, want)
	}
}

// TestMACQueueDropReachesHooks pins the conservation fix: a data packet
// lost to the MAC's drop-tail queue must surface as a data-plane drop, not
// vanish. The MAC queue is overflowed by sending while the kernel is not
// running (nothing drains).
func TestMACQueueDropReachesHooks(t *testing.T) {
	w, err := NewWorld(WorldConfig{Nodes: 2, Static: staticPositions(2, 10)}, newFloodRouter)
	if err != nil {
		t.Fatal(err)
	}
	drops := map[Cause]int{}
	w.Observe(func(e PacketEvent) {
		if e.Kind == Dropped {
			drops[e.Cause]++
		}
	})
	n := w.Node(0)
	for i := 0; i < 55; i++ {
		n.SendFrame(1, n.NewPacket(1, PortCBR, 10))
	}
	// One job is in service, 50 are queued (ns-2's ifq), 4 dropped.
	if got := drops[CauseQueueFull]; got != 4 {
		t.Fatalf("mac:queue-full drops = %d, want 4", got)
	}
	if got := w.Node(0).Counters().DataDropped; got != 4 {
		t.Fatalf("node drop counter = %d, want 4", got)
	}
}
