package netsim

import (
	"math/rand"
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
			peak[i] = max(peak[i], w.Node(i).Router().(*probeRouter).nSeen)
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
		end := w.Node(i).Router().(*probeRouter).nSeen
		if peak[i] == 0 || peak[i] > 60 {
			t.Errorf("node %d: seen table peaked at %d entries, want 1..60", i, peak[i])
		}
		if end > peak[i] {
			t.Errorf("node %d: seen table still growing at end of run: %d > peak %d", i, end, peak[i])
		}
	}
}

// floodKey names a flood in the reference flood set.
type floodKey struct {
	orig NodeID
	id   uint32
}

// runFloodSetDifferential decodes data into a stream of received floods
// and purges and drives a reactive machine's flood set (Seen,
// expireFloods) and a map of deadlines side by side: a key lives until
// the first purge with now ≥ its deadline. Each originator's ids repeat,
// step, jump or go back, and some floods come from originators never
// heard before; time moves in steps of up to 12.8 s against the 10-s
// hold, and some purges fall exactly on a deadline. Every lookup must
// agree, and after every step the chain Seen walks must hold exactly the
// reference's keys, newest first.
func runFloodSetDifferential(t *testing.T, data []byte) {
	in := data
	next := func() int {
		if len(in) == 0 {
			return 0
		}
		v := in[0]
		in = in[1:]
		return int(v)
	}
	w, err := NewWorld(WorldConfig{Nodes: 1, Static: []geometry.Vec2{{}}}, newProbeRouter)
	if err != nil {
		t.Fatal(err)
	}
	m := w.Node(0).Router().(*probeRouter).Reactive
	want := map[floodKey]sim.Time{}
	var last [10]uint32
	var heard []sim.Time
	for step := 0; len(in) > 0; step++ {
		now := w.Kernel.Now()
		op := "flood"
		switch c := next(); {
		case c < 170:
			orig := NodeID(1 + c%9)
			id := last[orig]
			switch next() % 6 {
			case 1, 2:
				id++
			case 3:
				id--
			case 4:
				id += uint32(2 + next())
			}
			last[orig] = id
			_, w := want[floodKey{orig, id}]
			if g := m.Seen(orig, id); g != w {
				t.Fatalf("step %d t=%v: flood (%d, %d) seen %v, reference %v", step, now, orig, id, g, w)
			}
			if !w {
				want[floodKey{orig, id}] = now + probeSeenHold
				heard = append(heard, now)
			}
		case c < 230:
			w.Kernel.RunUntil(now + sim.Time(1+next())*50*sim.Millisecond)
			continue
		default:
			op = "purge"
			if len(heard) > 0 && c%2 == 0 {
				// Exactly at a deadline written earlier, if not yet past.
				if at := heard[next()%len(heard)] + probeSeenHold; at > now {
					w.Kernel.RunUntil(at)
					now = at
				}
			}
			m.expireFloods(now)
			for k, until := range want { // order-free: deletes only
				if until <= now {
					delete(want, k)
				}
			}
		}
		if m.nSeen != len(want) {
			t.Fatalf("step %d (%s at t=%v): %d floods remembered, reference %d", step, op, now, m.nSeen, len(want))
		}
		later := sim.MaxTime
		for i, n := m.newest, 0; n < m.nSeen; i, n = m.seen.At(i).older, n+1 {
			f := m.seen.At(i)
			if f.until > later || want[floodKey{f.orig, f.id}] != f.until {
				t.Fatalf("step %d (%s at t=%v): flood %d from the newest is (%d, %d) until %v, after one until %v",
					step, op, now, n, f.orig, f.id, f.until, later)
			}
			later = f.until
		}
	}
}

// TestFloodSetMatchesReference runs the differential on random streams.
func TestFloodSetMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		data := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(data)
		runFloodSetDifferential(t, data)
	}
}

// TestFloodRecordAllocFree: once a machine has recycled its first hold
// of floods, recording a new one and the purge that retires the oldest
// allocate nothing: removed items are reused.
func TestFloodRecordAllocFree(t *testing.T) {
	w, err := NewWorld(WorldConfig{Nodes: 1, Static: []geometry.Vec2{{}}}, newProbeRouter)
	if err != nil {
		t.Fatal(err)
	}
	m := w.Node(0).Router().(*probeRouter).Reactive
	id := uint32(0)
	receive := func() {
		w.Kernel.RunUntil(w.Kernel.Now() + sim.Second/5)
		id++
		if m.Seen(NodeID(1+id%5), id) {
			t.Fatalf("flood %d seen", id)
		}
		m.expireFloods(w.Kernel.Now())
	}
	for w.Kernel.Now() < 2*probeSeenHold {
		receive()
	}
	live := m.nSeen
	if allocs := testing.AllocsPerRun(100, receive); allocs != 0 {
		t.Fatalf("recording a flood and purging allocate %.1f times, want 0", allocs)
	}
	if m.nSeen != live {
		t.Fatalf("%d floods remembered, want %d", m.nSeen, live)
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

// TestTableReadLeavesRunAlone: Table reads without Next's flip. A route
// past its deadline that no purge has retired yet reads as no route and
// stays valid, so the RERR a later break of its next hop builds is the one
// a run without the read builds.
func TestTableReadLeavesRunAlone(t *testing.T) {
	lost := func(read bool) []Unreachable {
		w, err := NewWorld(WorldConfig{Nodes: 4, Static: staticPositions(4, 200)}, newProbeRouter)
		if err != nil {
			t.Fatal(err)
		}
		r := w.Node(2).Router().(*probeRouter)
		r.Routes.Update(0, 4, true, 2, 1, sim.Second)
		r.Routes.Update(3, 7, true, 1, 3, sim.Second)
		w.Kernel.RunUntil(2 * sim.Second)
		if read {
			if _, _, ok := r.Table(0); ok {
				t.Fatal("a route past its deadline read as valid")
			}
		}
		return r.Routes.BreakVia(1, nil)
	}
	without, with := lost(false), lost(true)
	if len(without) != 1 || without[0] != (Unreachable{Dst: 0, Seq: 5}) {
		t.Fatalf("precondition: breaking 1 without a read reports %v, want [{0 5}]", without)
	}
	if len(with) != len(without) || with[0] != without[0] {
		t.Fatalf("after a Table read, breaking 1 reports %v, want %v", with, without)
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
