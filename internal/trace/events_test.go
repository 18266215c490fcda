package trace

import (
	"math"
	"strings"
	"testing"

	"cavenet/internal/geometry"
	"cavenet/internal/mobility"
	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// passRouter hands every originated packet straight to the destination
// node's local stack (test double; no radio involved).
type passRouter struct {
	n     *netsim.Node
	world *netsim.World
}

func (r *passRouter) Name() string { return "pass" }
func (r *passRouter) Start()       {}
func (r *passRouter) Stop()        {}
func (r *passRouter) Origin(p *netsim.Packet) {
	if int(p.Dst) < r.world.NumNodes() {
		r.world.Node(int(p.Dst)).DeliverLocal(p)
		return
	}
	r.n.DropData(p, "pass:no-route")
}
func (r *passRouter) Receive(*netsim.Packet, netsim.NodeID)     {}
func (r *passRouter) LinkFailure(netsim.NodeID, *netsim.Packet) {}

func TestPacketLogRoundTrip(t *testing.T) {
	var world *netsim.World
	world, err := netsim.NewWorld(netsim.WorldConfig{
		Nodes:  3,
		Static: []geometry.Vec2{{X: 0}, {X: 10}, {X: 20}},
	}, func(n *netsim.Node) netsim.Router { return &passRouter{n: n} })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		world.Node(i).Router().(*passRouter).world = world
	}
	var sb strings.Builder
	log := NewPacketLog(&sb)
	world.AddHooks(log.Hooks())
	world.Node(1).AttachPort(netsim.PortCBR, netsim.PortFunc(func(*netsim.Packet, sim.Time) {}))

	world.Kernel.Schedule(sim.Second, func() {
		world.Node(0).SendData(world.Node(0).NewPacket(1, netsim.PortCBR, 512))
		world.Node(0).SendData(world.Node(0).NewPacket(99, netsim.PortCBR, 512)) // dropped
		world.Node(2).SendData(world.Node(2).NewPacket(1, netsim.PortCBR, 256))
	})
	world.Run(2 * sim.Second)
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}

	out := sb.String()
	if !strings.Contains(out, "s 1.000000000 _0_ AGT") {
		t.Fatalf("missing send line:\n%s", out)
	}
	if !strings.Contains(out, "D 1.000000000 _0_ RTR pass:no-route") {
		t.Fatalf("missing drop line:\n%s", out)
	}

	sum, err := SummarizePacketLog(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Sent[0] != 2 || sum.Received[0] != 1 || sum.Dropped[0] != 1 {
		t.Fatalf("node0 summary: %+v", sum)
	}
	if sum.Sent[2] != 1 || sum.Received[2] != 1 {
		t.Fatalf("node2 summary: %+v", sum)
	}
	if got := sum.PDR(0); got != 0.5 {
		t.Fatalf("PDR(0) = %v", got)
	}
	if got := sum.PDR(2); got != 1 {
		t.Fatalf("PDR(2) = %v", got)
	}
	if d := sum.MeanDelay(0); d != 0 {
		t.Fatalf("delay = %v (instant delivery)", d)
	}
}

func TestSummarizeMalformed(t *testing.T) {
	for _, in := range []string{
		"s short",
		"x 1.0 _0_ AGT --- 1 cbr 532 [0:0 1:0 32]",
		"s abc _0_ AGT --- 1 cbr 532 [0:0 1:0 32]",
		"s 1.0 _0_ AGT --- 1 cbr 532 [zz 1:0 32]",
	} {
		if _, err := SummarizePacketLog(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q should fail", in)
		}
	}
}

func TestBonnMotionRoundTrip(t *testing.T) {
	orig := &mobility.SampledTrace{
		Interval: 1,
		Positions: [][]geometry.Vec2{
			{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 10}},
			{{X: 5, Y: 5}, {X: 5, Y: 5}, {X: 5, Y: 5}},
		},
	}
	var sb strings.Builder
	if err := WriteBonnMotion(&sb, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ParseBonnMotion(strings.NewReader(sb.String()), 1)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != 2 || back.NumSamples() != 3 {
		t.Fatalf("shape = %dx%d", back.NumNodes(), back.NumSamples())
	}
	for n := range orig.Positions {
		for i := range orig.Positions[n] {
			a, b := orig.Positions[n][i], back.Positions[n][i]
			if math.Abs(a.X-b.X) > 1e-3 || math.Abs(a.Y-b.Y) > 1e-3 {
				t.Fatalf("node %d sample %d: %v vs %v", n, i, a, b)
			}
		}
	}
}

func TestBonnMotionResampling(t *testing.T) {
	// Half-interval resampling interpolates midpoints.
	in := "0.0 0.0 0.0 2.0 10.0 0.0\n"
	tr, err := ParseBonnMotion(strings.NewReader(in), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumSamples() != 5 {
		t.Fatalf("samples = %d", tr.NumSamples())
	}
	if p := tr.Positions[0][2]; math.Abs(p.X-5) > 1e-9 {
		t.Fatalf("midpoint = %v, want x=5", p)
	}
}

func TestBonnMotionComments(t *testing.T) {
	in := "# generated by cavenet\n\n0.0 1.0 2.0\n"
	tr, err := ParseBonnMotion(strings.NewReader(in), 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumNodes() != 1 {
		t.Fatalf("nodes = %d", tr.NumNodes())
	}
}

func TestBonnMotionErrors(t *testing.T) {
	cases := []string{
		"0.0 1.0",         // not a multiple of 3
		"0.0 1.0 x",       // bad number
		"1.0 0 0 0.5 1 1", // times not increasing
		"",                // empty file
	}
	for _, in := range cases {
		if _, err := ParseBonnMotion(strings.NewReader(in), 1); err == nil {
			t.Fatalf("input %q should fail", in)
		}
	}
	if _, err := ParseBonnMotion(strings.NewReader("0 0 0"), -1); err == nil {
		t.Fatal("negative interval should fail")
	}
	bad := &mobility.SampledTrace{Interval: 0}
	if err := WriteBonnMotion(&strings.Builder{}, bad); err == nil {
		t.Fatal("invalid trace should fail to write")
	}
}
