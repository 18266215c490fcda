package metrics

import (
	"math"
	"testing"

	"cavenet/internal/fault"
	"cavenet/internal/geometry"
	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// directRouter delivers everything locally on the destination node without
// radio, so metric timing is fully controlled by the test. With no
// destination wired it holds what it is given, for the test to drop.
type directRouter struct {
	n    *netsim.Node
	dst  *netsim.Node
	held []*netsim.Packet
}

func (r *directRouter) Name() string { return "direct" }
func (r *directRouter) Start()       {}
func (r *directRouter) Stop()        {}
func (r *directRouter) Origin(p *netsim.Packet) {
	if r.dst == nil {
		r.held = append(r.held, p)
		return
	}
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
	r := h.Router().(*directRouter)
	// One packet delivered (dst == self short-circuits to DeliverLocal).
	h.SendData(h.NewPacket(0, netsim.PortCBR, 100))
	// One sent, held by the unwired router, then dropped.
	h.SendData(h.NewPacket(1, netsim.PortCBR, 100))
	h.DropData(r.held[0], netsim.CauseNoRoute)
	sent, delivered, dropped := c.Totals()
	if sent != 2 || delivered != 1 || dropped != 1 {
		t.Fatalf("Totals = %d/%d/%d, want 2/1/1", sent, delivered, dropped)
	}
	if got := c.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d, want 0", got)
	}
	// A third packet still held at "end of run".
	h.SendData(h.NewPacket(1, netsim.PortCBR, 100))
	if got := c.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1", got)
	}
	if got := c.Sent(0); got != 3 {
		t.Fatalf("Sent(0) = %d, want 3", got)
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
	world.Node(0).DropData(&netsim.Packet{}, netsim.CauseTTL)
	world.Node(0).DropData(&netsim.Packet{}, netsim.CauseTTL)
	world.Node(0).DropData(&netsim.Packet{}, netsim.CauseNodeDown)
	drops := c.Drops()
	if len(drops) != 2 || drops["direct:ttl"] != 2 || drops["node:down"] != 1 {
		t.Fatalf("drops = %v", drops)
	}
	// Returned map is a copy.
	drops["direct:ttl"] = 99
	if c.Drops()["direct:ttl"] != 2 {
		t.Fatal("Drops must return a copy")
	}
}

// TestCollectorUnreachable pins which causes count as routing-unreachable:
// no route at the originator or at a forwarder, and nothing else.
func TestCollectorUnreachable(t *testing.T) {
	world, err := netsim.NewWorld(netsim.WorldConfig{
		Nodes:  1,
		Static: []geometry.Vec2{{X: 0}},
	}, func(n *netsim.Node) netsim.Router { return &directRouter{n: n} })
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(sim.Second, sim.Second)
	c.Bind(world)
	n := world.Node(0)
	for cause := netsim.CauseTTL; cause <= netsim.CauseNodeDown; cause++ {
		n.DropData(&netsim.Packet{Src: 7}, cause)
	}
	n.DropData(&netsim.Packet{Src: 7}, netsim.CauseNoForwardRoute)
	if got := c.Unreachable(7); got != 3 {
		t.Fatalf("Unreachable = %d, want 3 (one no-route, two no-forward-route)", got)
	}
	if got := len(c.Drops()); got != 10 {
		t.Fatalf("%d drop reasons, want one per cause: %v", got, c.Drops())
	}
}

// TestEventCycleAllocFree pins the cost of the packet event stream: a
// steady-state sent→delivered and sent→dropped cycle allocates nothing,
// with no observer and with the collector and the fault meter installed.
func TestEventCycleAllocFree(t *testing.T) {
	for _, observed := range []bool{false, true} {
		world, err := netsim.NewWorld(netsim.WorldConfig{
			Nodes:  2,
			Static: []geometry.Vec2{{X: 0}, {X: 10}},
		}, func(n *netsim.Node) netsim.Router { return &directRouter{n: n} })
		if err != nil {
			t.Fatal(err)
		}
		if observed {
			NewCollector(sim.Second, sim.Second).Bind(world)
			plan := fault.Plan{Events: []fault.Event{
				{At: 0, Kind: fault.NodeDown, Node: 1},
				{At: sim.Second, Kind: fault.NodeUp, Node: 1},
			}}
			world.Observe(fault.NewMeter(plan, sim.Second).Observe)
		}
		src, dst := world.Node(0), world.Node(1)
		src.Router().(*directRouter).dst = dst
		dst.AttachPort(netsim.PortCBR, netsim.PortFunc(func(*netsim.Packet, sim.Time) {}))
		held := dst.Router().(*directRouter)
		cycle := func() {
			src.SendData(src.NewPacket(1, netsim.PortCBR, 100))
			dst.SendData(dst.NewPacket(0, netsim.PortCBR, 100))
			dst.DropData(held.held[0], netsim.CauseNoRoute)
			held.held = held.held[:0]
		}
		cycle() // first packets: pool records, per-sender maps
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Errorf("observed=%v: %v allocations per cycle, want 0", observed, allocs)
		}
	}
}

// Totals reports the data-plane ledger across all senders: packets
// originated, delivered, and dropped.
func (c *Collector) Totals() (sent, delivered, dropped uint64) {
	for _, src := range c.world.Nodes() {
		sent += c.Sent(src.ID())
		delivered += c.Delivered(src.ID())
	}
	for _, d := range c.Drops() {
		dropped += d
	}
	return sent, delivered, dropped
}

// TotalPDR reports the delivery ratio across all senders.
func (c *Collector) TotalPDR() float64 {
	sent, delivered, _ := c.Totals()
	if sent == 0 {
		return 0
	}
	return float64(delivered) / float64(sent)
}
