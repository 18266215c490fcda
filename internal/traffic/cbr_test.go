package traffic

import (
	"testing"

	"cavenet/internal/geometry"
	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// loopRouter delivers every originated packet straight back to the local
// node, which is enough to count CBR emissions.
type loopRouter struct{ n *netsim.Node }

func (r *loopRouter) Name() string                              { return "loop" }
func (r *loopRouter) Start()                                    {}
func (r *loopRouter) Stop()                                     {}
func (r *loopRouter) Origin(p *netsim.Packet)                   { r.n.DeliverLocal(p) }
func (r *loopRouter) Receive(*netsim.Packet, netsim.NodeID)     {}
func (r *loopRouter) LinkFailure(netsim.NodeID, *netsim.Packet) {}

func testWorld(t *testing.T) *netsim.World {
	t.Helper()
	w, err := netsim.NewWorld(netsim.WorldConfig{
		Nodes:  2,
		Static: []geometry.Vec2{{X: 0}, {X: 100}},
	}, func(n *netsim.Node) netsim.Router { return &loopRouter{n: n} })
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestCBRTableIParameters(t *testing.T) {
	// Table I: 5 pkt/s × 512 B between 10 s and 90 s → exactly 400 packets.
	w := testWorld(t)
	sink := &Sink{}
	w.Node(1).AttachPort(netsim.PortCBR, sink)
	cbr := NewCBR(w.Node(0), CBRConfig{
		Dst:   1,
		Start: 10 * sim.Second,
		Stop:  90 * sim.Second,
	})
	cbr.Start()
	w.Run(100 * sim.Second)
	if cbr.sent != 400 {
		t.Fatalf("sent = %d, want 400", cbr.sent)
	}
	cfg := cbr.cfg
	if cfg.Rate != 5 || cfg.PacketBytes != 512 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

func TestCBRDeliversToSink(t *testing.T) {
	w := testWorld(t)
	sink := &Sink{}
	// loopRouter sends Origin packets back to the origin node, so attach
	// the sink there and address the flow to the other node.
	w.Node(0).AttachPort(netsim.PortCBR, sink)
	cbr := NewCBR(w.Node(0), CBRConfig{Dst: 1, Start: 0, Stop: 2 * sim.Second})
	cbr.Start()
	w.Run(3 * sim.Second)
	if sink.Received != uint64(cbr.sent) {
		t.Fatalf("sink received %d, sent %d", sink.Received, cbr.sent)
	}
	if sink.Bytes != sink.Received*512 {
		t.Fatalf("sink bytes = %d", sink.Bytes)
	}
}

func TestCBRStopNow(t *testing.T) {
	w := testWorld(t)
	cbr := NewCBR(w.Node(0), CBRConfig{Dst: 1, Start: sim.Second})
	cbr.Start()
	cbr.StopNow()
	w.Run(5 * sim.Second)
	if cbr.sent != 0 {
		t.Fatalf("sent = %d after StopNow", cbr.sent)
	}
}

func TestCBRRateSpacing(t *testing.T) {
	w := testWorld(t)
	var times []sim.Time
	w.Node(0).AttachPort(netsim.PortCBR, netsim.PortFunc(func(p *netsim.Packet, at sim.Time) {
		times = append(times, at)
	}))
	cbr := NewCBR(w.Node(0), CBRConfig{Dst: 1, Rate: 10, Start: 0, Stop: sim.Second})
	cbr.Start()
	w.Run(2 * sim.Second)
	if len(times) != 10 {
		t.Fatalf("emitted %d packets, want 10", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i]-times[i-1] != 100*sim.Millisecond {
			t.Fatalf("interval %v, want 100 ms", times[i]-times[i-1])
		}
	}
}

func TestCBRWindowEntirelyInPastEmitsNothing(t *testing.T) {
	// Regression: starting a flow whose [Start, Stop) window has already
	// closed must emit zero packets and leave nothing scheduled.
	w := testWorld(t)
	var count int
	w.Node(0).AttachPort(netsim.PortCBR, netsim.PortFunc(func(*netsim.Packet, sim.Time) { count++ }))
	var cbr *CBR
	w.Kernel.Schedule(8*sim.Second, func() {
		cbr = NewCBR(w.Node(0), CBRConfig{Dst: 1, Start: sim.Second, Stop: 5 * sim.Second})
		cbr.Start() // clamped start (8 s) is past Stop (5 s)
		if cbr.ev.Scheduled() {
			t.Error("dead flow left an emission scheduled")
		}
	})
	w.Run(20 * sim.Second)
	if count != 0 || cbr.sent != 0 {
		t.Fatalf("dead window emitted %d packets (Sent=%d)", count, cbr.sent)
	}
}

func TestCBRRestartAfterStopNow(t *testing.T) {
	// StopNow then Start must resume a single emission chain at the
	// configured rate — not stack a second one.
	w := testWorld(t)
	var times []sim.Time
	w.Node(0).AttachPort(netsim.PortCBR, netsim.PortFunc(func(p *netsim.Packet, at sim.Time) {
		times = append(times, at)
	}))
	cbr := NewCBR(w.Node(0), CBRConfig{Dst: 1, Rate: 10, Start: 0, Stop: 2 * sim.Second})
	cbr.Start()
	w.Kernel.Schedule(500*sim.Millisecond, func() { cbr.StopNow() })
	w.Kernel.Schedule(sim.Second, func() { cbr.Start() })
	w.Run(3 * sim.Second)
	// 0 s..0.4 s (5 packets: the 0.5 s emission is cancelled), then
	// 1.0 s..1.9 s (10 packets).
	if len(times) != 15 {
		t.Fatalf("emitted %d packets, want 15: %v", len(times), times)
	}
	for i := 1; i < len(times); i++ {
		if times[i]-times[i-1] < 100*sim.Millisecond {
			t.Fatalf("emissions %v and %v closer than the CBR interval", times[i-1], times[i])
		}
	}
}

func TestCBRDoubleStartDoesNotDoubleRate(t *testing.T) {
	w := testWorld(t)
	cbr := NewCBR(w.Node(0), CBRConfig{Dst: 1, Rate: 5, Start: 0, Stop: 2 * sim.Second})
	cbr.Start()
	cbr.Start() // must reschedule, not stack a second chain
	w.Run(3 * sim.Second)
	if cbr.sent != 10 {
		t.Fatalf("sent %d packets after double Start, want 10", cbr.sent)
	}
}

func TestCBRLateStartClamps(t *testing.T) {
	w := testWorld(t)
	w.Kernel.Schedule(5*sim.Second, func() {
		cbr := NewCBR(w.Node(0), CBRConfig{Dst: 1, Start: sim.Second, Stop: 7 * sim.Second})
		cbr.Start() // start time already past; must clamp to now
	})
	var count int
	w.Node(0).AttachPort(netsim.PortCBR, netsim.PortFunc(func(*netsim.Packet, sim.Time) { count++ }))
	w.Run(10 * sim.Second)
	if count != 10 { // 5 s..7 s at 5 pkt/s
		t.Fatalf("count = %d, want 10", count)
	}
}

// StopNow cancels any pending emission and detaches the flow from the
// node's fault lifecycle (a recovery after StopNow does not restart it).
func (c *CBR) StopNow() {
	c.node.Kernel().Cancel(c.ev)
	c.ev = sim.Handle{}
	c.began = false
}
