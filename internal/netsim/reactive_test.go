package netsim

import (
	"testing"

	"cavenet/internal/geometry"
	"cavenet/internal/sim"
)

// probeRouter is the smallest protocol on the reactive machine: requests
// flood with duplicate suppression and nothing ever answers them, so every
// search spends its three tries.
type probeRouter struct{ *Reactive }

type probeRREQ struct {
	orig NodeID
	id   uint32
}

const probeSeenHold = 10 * sim.Second

func newProbeRouter(n *Node) Router {
	r := &probeRouter{}
	var id uint32
	r.Reactive = NewReactive(n, ReactiveProtocol{
		Name:          "probe",
		RouteLifetime: 5 * sim.Second,
		HelloInterval: sim.Second,
		NeighbourHold: 3 * sim.Second,
		SeenHold:      probeSeenHold,
		SendRREQ: func(d *Discovery) sim.Time {
			id++
			r.Seen(n.ID(), id)
			n.SendControl(BroadcastID, BroadcastID, 8, 16, &probeRREQ{n.ID(), id})
			return sim.Second << d.Tries
		},
		SendHello: func() {},
		SendRERR:  func([]Unreachable) {},
	})
	return r
}

func (r *probeRouter) Receive(p *Packet, from NodeID) {
	if p.Kind != KindControl {
		r.Forward(p, from)
		return
	}
	msg := p.Payload.(*probeRREQ)
	if msg.orig != r.Node.ID() && !r.Seen(msg.orig, msg.id) && p.TTL > 1 {
		r.Node.SendControl(BroadcastID, BroadcastID, p.TTL-1, 16, msg)
	}
}

// TestSeenTableSteadyOverLongRun: the reactive machine's flood dedup table
// must plateau over a long run, not track the cumulative flood count.
// Sparse single packets with idle gaps longer than a search's three tries
// keep fresh floods arriving for the whole run.
func TestSeenTableSteadyOverLongRun(t *testing.T) {
	const n = 10
	pos := make([]geometry.Vec2, n)
	for i := range pos {
		pos[i] = geometry.Vec2{X: float64(i%5) * 180, Y: float64(i/5) * 180}
	}
	w, err := NewWorld(WorldConfig{Nodes: n, Seed: 11, Static: pos}, newProbeRouter)
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s < n; s++ {
		src := w.Node(s)
		for at := sim.Time(s) * sim.Second; at < 55*sim.Second; at += 8 * sim.Second {
			w.Kernel.Schedule(at, func() { src.SendData(src.NewPacket(0, PortCBR, 128)) })
		}
	}
	peak := make([]int, n)
	var tick func()
	tick = func() {
		for i := range peak {
			peak[i] = max(peak[i], w.Node(i).Router().(*probeRouter).seen.Len())
		}
		if w.Kernel.Now() < 60*sim.Second {
			w.Kernel.After(sim.Second, tick)
		}
	}
	w.Kernel.Schedule(0, tick)
	w.Run(60 * sim.Second)

	// 9 senders × 3 tries per 8 s × a 10 s hold ⇒ a steady state of about
	// 35 entries; the run floods 189 times, so a leak blows through this.
	for i := range peak {
		end := w.Node(i).Router().(*probeRouter).seen.Len()
		if peak[i] == 0 || peak[i] > 60 {
			t.Errorf("node %d: seen table peaked at %d entries, want 1..60", i, peak[i])
		}
		if end > peak[i] {
			t.Errorf("node %d: seen table still growing at end of run: %d > peak %d", i, end, peak[i])
		}
	}
}

// TestForwardRefreshesEveryRouteItUses pins Forward's refreshes on a relay:
// forwarding 0's packet for 3, heard from 1, keeps the routes to the
// destination, the source and the previous hop alive for RouteLifetime
// from the forward, so all three expire at 2 s + 5 s, not at their
// installed 3 s.
func TestForwardRefreshesEveryRouteItUses(t *testing.T) {
	w, err := NewWorld(WorldConfig{Nodes: 4, Static: staticPositions(4, 200)}, newProbeRouter)
	if err != nil {
		t.Fatal(err)
	}
	relay := w.Node(2).Router().(*probeRouter)
	relay.Routes.Update(3, 1, true, 1, 3, 3*sim.Second)
	relay.Routes.Update(0, 1, true, 2, 1, 3*sim.Second)
	relay.Routes.Update(1, 0, false, 1, 1, 3*sim.Second)
	at := func(when sim.Time, f func()) {
		w.Kernel.Schedule(when, f)
		for w.Kernel.Step() {
		}
	}
	at(2*sim.Second, func() { relay.Receive(w.Node(0).NewPacket(3, PortCBR, 128), 1) })
	for _, c := range []struct {
		when sim.Time
		ok   bool
	}{{7*sim.Second - 1, true}, {7 * sim.Second, false}} {
		at(c.when, func() {
			for _, dst := range []NodeID{3, 0, 1} {
				if _, _, ok := relay.Table(dst); ok != c.ok {
					t.Errorf("t=%v: route to %d valid=%v, want %v", c.when, dst, ok, c.ok)
				}
			}
		})
	}
}

// TestResumeLeavesSearchOpenedWhileDown: data originated while a node is
// down after a graceful shutdown opens a search whose first request is
// already out and whose timer is armed; bringing the node up resumes only
// the searches the shutdown halted, so that one sends nothing more at Up.
func TestResumeLeavesSearchOpenedWhileDown(t *testing.T) {
	w, err := NewWorld(WorldConfig{Nodes: 2, Static: staticPositions(2, 5000)}, newProbeRouter)
	if err != nil {
		t.Fatal(err)
	}
	n := w.Node(0)
	n.Router().Start()
	w.Kernel.RunUntil(sim.Second)
	n.Down(true)
	w.Kernel.RunUntil(1500 * sim.Millisecond)
	n.SendData(n.NewPacket(1, PortCBR, 128))
	w.Kernel.RunUntil(2 * sim.Second)
	n.Up()
	if got := n.Counters().ControlPackets; got != 1 {
		t.Fatalf("node 0 sent %d requests by the instant it came up, want 1", got)
	}
}
