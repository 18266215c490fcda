package metrics

import (
	"math"
	"testing"

	"cavenet/internal/geometry"
	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// directRouter delivers everything locally on the destination node without
// radio, so metric timing is fully controlled by the test.
type directRouter struct {
	n   *netsim.Node
	dst *netsim.Node
}

func (r *directRouter) Name() string { return "direct" }
func (r *directRouter) Start()       {}
func (r *directRouter) Stop()        {}
func (r *directRouter) Origin(p *netsim.Packet) {
	p.Hops = 2
	r.dst.DeliverLocal(p)
}
func (r *directRouter) Receive(*netsim.Packet, netsim.NodeID)     {}
func (r *directRouter) LinkFailure(netsim.NodeID, *netsim.Packet) {}

func TestCollectorGoodputAndPDR(t *testing.T) {
	var world *netsim.World
	factory := func(n *netsim.Node) netsim.Router { return &directRouter{n: n} }
	world, err := netsim.NewWorld(netsim.WorldConfig{
		Nodes:  2,
		Static: []geometry.Vec2{{X: 0}, {X: 10}},
	}, factory)
	if err != nil {
		t.Fatal(err)
	}
	// Wire the direct routers to the destination node.
	for i := 0; i < 2; i++ {
		if dr, ok := world.Node(i).Router().(*directRouter); ok {
			dr.dst = world.Node(1)
		}
	}
	c := NewCollector(sim.Second, 10*sim.Second)
	c.Bind(world)

	send := func(at sim.Time) {
		world.Kernel.Schedule(at, func() {
			p := world.Node(0).NewPacket(1, netsim.PortCBR, 512)
			world.Node(0).SendData(p)
		})
	}
	send(500 * sim.Millisecond)  // bin 0
	send(1500 * sim.Millisecond) // bin 1
	send(1800 * sim.Millisecond) // bin 1
	world.Run(10 * sim.Second)

	if got := c.Sent(0); got != 3 {
		t.Fatalf("Sent = %d", got)
	}
	if got := c.Delivered(0); got != 3 {
		t.Fatalf("Delivered = %d", got)
	}
	if got := c.PDR(0); got != 1 {
		t.Fatalf("PDR = %v", got)
	}
	gp := c.GoodputBPS(0)
	if gp[0] != 512*8 {
		t.Fatalf("bin 0 goodput = %v, want %d", gp[0], 512*8)
	}
	if gp[1] != 2*512*8 {
		t.Fatalf("bin 1 goodput = %v, want %d", gp[1], 2*512*8)
	}
	if gp[2] != 0 {
		t.Fatalf("bin 2 goodput = %v, want 0", gp[2])
	}
	if got := c.MeanHops(0); got != 2 {
		t.Fatalf("MeanHops = %v", got)
	}
	if d := c.MeanDelay(0); d != 0 {
		t.Fatalf("MeanDelay = %v, want 0 (instant delivery)", d)
	}
}

func TestCollectorUnknownSender(t *testing.T) {
	c := NewCollector(sim.Second, 5*sim.Second)
	if c.PDR(42) != 0 || c.Sent(42) != 0 || c.MeanDelay(42) != 0 || c.MeanHops(42) != 0 {
		t.Fatal("unknown sender should report zeros")
	}
	gp := c.GoodputBPS(42)
	if len(gp) != 6 {
		t.Fatalf("goodput bins = %d, want horizon/bin+1", len(gp))
	}
	for _, v := range gp {
		if v != 0 {
			t.Fatal("unknown sender goodput should be zero")
		}
	}
}

func TestCollectorTotalPDR(t *testing.T) {
	var world *netsim.World
	world, err := netsim.NewWorld(netsim.WorldConfig{
		Nodes:  3,
		Static: []geometry.Vec2{{X: 0}, {X: 10}, {X: 20}},
	}, func(n *netsim.Node) netsim.Router { return &directRouter{n: n} })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		world.Node(i).Router().(*directRouter).dst = world.Node(2)
	}
	c := NewCollector(sim.Second, 5*sim.Second)
	c.Bind(world)
	world.Kernel.Schedule(0, func() {
		world.Node(0).SendData(world.Node(0).NewPacket(2, 1, 100))
		world.Node(1).SendData(world.Node(1).NewPacket(2, 1, 100))
	})
	world.Run(sim.Second)
	if got := c.TotalPDR(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("TotalPDR = %v", got)
	}
}

func TestRoutingOverheadSums(t *testing.T) {
	world, err := netsim.NewWorld(netsim.WorldConfig{
		Nodes:  4,
		Static: []geometry.Vec2{{X: 0}, {X: 10}, {X: 20}, {X: 30}},
	}, func(n *netsim.Node) netsim.Router { return &directRouter{n: n} })
	if err != nil {
		t.Fatal(err)
	}
	// Every node sends three 100-byte control packets, one of them
	// unicast, and one data frame, which is not overhead.
	for _, n := range world.Nodes() {
		for _, next := range []netsim.NodeID{netsim.BroadcastID, netsim.BroadcastID, (n.ID() + 1) % 4} {
			n.SendFrame(next, &netsim.Packet{Kind: netsim.KindControl, Port: netsim.PortRouting, Size: 100})
		}
		n.SendFrame(netsim.BroadcastID, n.NewPacket(netsim.BroadcastID, netsim.PortCBR, 80))
	}
	pkts, bytes := RoutingOverhead(world)
	if pkts != 12 || bytes != 1200 {
		t.Fatalf("overhead = %d pkts %d bytes, want 12/1200", pkts, bytes)
	}
	for i, n := range world.Nodes() {
		if c := n.Counters(); c.ControlPackets != 3 || c.ControlBytes != 300 {
			t.Fatalf("node %d counted %d pkts %d bytes, want 3/300", i, c.ControlPackets, c.ControlBytes)
		}
	}
}

func TestCollectorTotalsAndInFlight(t *testing.T) {
	world, err := netsim.NewWorld(netsim.WorldConfig{
		Nodes:  2,
		Static: []geometry.Vec2{{X: 0}, {X: 10}},
	}, func(n *netsim.Node) netsim.Router { return &directRouter{n: n} })
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(sim.Second, sim.Second)
	c.Bind(world)
	h := world.Node(0)
	// One packet delivered (dst == self short-circuits to DeliverLocal).
	h.SendData(h.NewPacket(0, netsim.PortCBR, 100))
	// One sent and then dropped (the send is recorded directly: the stub
	// router would otherwise null-deref on an unwired destination).
	p2 := h.NewPacket(1, netsim.PortCBR, 100)
	c.sent[p2.Src]++
	h.DropData(p2, "x:drop")
	sent, delivered, dropped := c.Totals()
	if sent != 2 || delivered != 1 || dropped != 1 {
		t.Fatalf("Totals = %d/%d/%d, want 2/1/1", sent, delivered, dropped)
	}
	if got := c.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d, want 0", got)
	}
	// A third packet still unresolved at "end of run".
	c.sent[0]++
	if got := c.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1", got)
	}
}

func TestCollectorDrops(t *testing.T) {
	world, err := netsim.NewWorld(netsim.WorldConfig{
		Nodes:  1,
		Static: []geometry.Vec2{{X: 0}},
	}, func(n *netsim.Node) netsim.Router { return &directRouter{n: n} })
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(sim.Second, sim.Second)
	c.Bind(world)
	world.Node(0).DropData(&netsim.Packet{}, "x:reason")
	world.Node(0).DropData(&netsim.Packet{}, "x:reason")
	drops := c.Drops()
	if drops["x:reason"] != 2 {
		t.Fatalf("drops = %v", drops)
	}
	// Returned map is a copy.
	drops["x:reason"] = 99
	if c.Drops()["x:reason"] != 2 {
		t.Fatal("Drops must return a copy")
	}
}

// TotalPDR reports the delivery ratio across all senders.
func (c *Collector) TotalPDR() float64 {
	sent, delivered, _ := c.Totals()
	if sent == 0 {
		return 0
	}
	return float64(delivered) / float64(sent)
}
