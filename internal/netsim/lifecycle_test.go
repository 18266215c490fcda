package netsim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cavenet/internal/geometry"
	"cavenet/internal/sim"
)

// TestNodeDownUpLifecycle drives the fault-injection surface end to end on
// the plain node plumbing, with the flood router's broadcasts as the probe:
// a down node neither hears nor is heard while the survivors stay linked,
// lifecycle observers fire in both directions, mobility keeps tracking
// while down, and the recovered node is reachable at its tracked position.
func TestNodeDownUpLifecycle(t *testing.T) {
	w, err := NewWorld(WorldConfig{
		Nodes:  3,
		Static: staticPositions(3, 100),
	}, newFloodRouter)
	if err != nil {
		t.Fatal(err)
	}
	var transitions []bool
	w.Node(1).OnLifecycle(func(up bool) { transitions = append(transitions, up) })
	// Delivery is terminal custody: snapshot the value, not the pointer.
	var delivered []Packet
	drops := make(map[Cause]int)
	w.Observe(func(e PacketEvent) {
		switch e.Kind {
		case Delivered:
			delivered = append(delivered, *e.Packet)
		case Dropped:
			drops[e.Cause]++
		}
	})
	for i := 0; i < 3; i++ {
		w.Node(i).AttachPort(PortCBR, PortFunc(func(*Packet, sim.Time) {}))
	}
	send := func(from, to int) {
		w.Node(from).SendData(w.Node(from).NewPacket(NodeID(to), PortCBR, 128))
	}

	w.Kernel.Schedule(10*sim.Millisecond, func() {
		w.Node(1).Down(false)
		if !w.Node(1).down {
			t.Fatal("node 1 reports up after Down")
		}
	})
	// Node 2 is 200 m from node 0, inside decode range: the survivors'
	// direct link must not depend on the relay between them.
	w.Kernel.Schedule(20*sim.Millisecond, func() { send(0, 2) })
	// A down station puts nothing on the air.
	w.Kernel.Schedule(30*sim.Millisecond, func() { send(1, 0) })
	w.Kernel.Schedule(100*sim.Millisecond, func() {
		for i, want := range []uint64{0, 0, 1} {
			if got := w.Node(i).MAC().Stats().DataRx; got != want {
				t.Fatalf("node %d decoded %d frames while node 1 was down, want %d", i, got, want)
			}
		}
		// Mobility keeps tracking a down node; the position must land
		// without a grid update (the radio is detached) and survive to
		// recovery.
		w.Node(1).SetPosition(geometry.Vec2{X: 500, Y: 40})
		if got := w.Node(1).Position(); got != (geometry.Vec2{X: 500, Y: 40}) {
			t.Fatalf("position while down = %v", got)
		}
		// 400 m from node 0, beyond decode range; 200 m from node 2.
		w.Node(1).SetPosition(geometry.Vec2{X: 400})
		w.Node(1).Up()
		if w.Node(1).down {
			t.Fatal("node 1 reports down after Up")
		}
	})
	w.Kernel.Schedule(200*sim.Millisecond, func() { send(0, 1) })
	w.Run(sim.Second)

	if drops[CauseNodeDown] != 1 {
		t.Fatalf("drops = %v, want the down node's own packet as one node:down", drops)
	}
	if len(delivered) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(delivered))
	}
	if p := delivered[0]; p.Dst != 2 || p.Hops != 1 {
		t.Fatalf("survivor packet reached %d in %d hops, want 2 in 1", p.Dst, p.Hops)
	}
	// Reached through node 2 — the recovered node is on the air at the
	// position mobility moved it to while it was down, not where it went
	// down.
	if p := delivered[1]; p.Dst != 1 || p.Hops != 2 {
		t.Fatalf("recovered node reached as %d in %d hops, want 1 in 2", p.Dst, p.Hops)
	}
	if len(transitions) != 2 || transitions[0] != false || transitions[1] != true {
		t.Fatalf("lifecycle transitions = %v, want [false true]", transitions)
	}
}

// TestDownNodeSendsFlushAsDownDrops pins the custody story for traffic
// originated at (or queued on) a dead station: the MAC refuses the frame
// and the packet terminates as an accounted "node:down" drop instead of
// vanishing.
func TestDownNodeSendsFlushAsDownDrops(t *testing.T) {
	w, err := NewWorld(WorldConfig{
		Nodes:  2,
		Static: staticPositions(2, 100),
	}, newFloodRouter)
	if err != nil {
		t.Fatal(err)
	}
	drops := make(map[Cause]int)
	w.Observe(func(e PacketEvent) {
		if e.Kind == Dropped {
			drops[e.Cause]++
		}
	})
	w.Node(0).Down(false)
	w.Node(0).SendData(w.Node(0).NewPacket(1, PortCBR, 128))
	w.Run(100 * sim.Millisecond)
	if drops[CauseNodeDown] != 1 {
		t.Fatalf("drops = %v, want one node:down", drops)
	}
	if got := w.Node(0).MAC().Stats().DownDrops; got != 1 {
		t.Fatalf("MAC DownDrops = %d, want 1", got)
	}
}

// TestDownNodeHearsNothing pins radio semantics across an outage: frames
// sent while a station is down never reach it, and delivery resumes after
// recovery.
func TestDownNodeHearsNothing(t *testing.T) {
	w, err := NewWorld(WorldConfig{
		Nodes:  2,
		Static: staticPositions(2, 100),
	}, newFloodRouter)
	if err != nil {
		t.Fatal(err)
	}
	var delivered int
	w.Observe(func(e PacketEvent) {
		if e.Kind == Delivered {
			delivered++
		}
	})
	w.Node(1).AttachPort(PortCBR, PortFunc(func(p *Packet, at sim.Time) {}))

	w.Kernel.Schedule(10*sim.Millisecond, func() { w.Node(1).Down(false) })
	w.Kernel.Schedule(20*sim.Millisecond, func() {
		w.Node(0).SendData(w.Node(0).NewPacket(1, PortCBR, 128))
	})
	w.Kernel.Schedule(500*sim.Millisecond, func() { w.Node(1).Up() })
	w.Kernel.Schedule(600*sim.Millisecond, func() {
		w.Node(0).SendData(w.Node(0).NewPacket(1, PortCBR, 128))
	})
	w.Run(sim.Second)
	if delivered != 1 {
		t.Fatalf("delivered %d packets, want exactly the post-recovery one", delivered)
	}
	if rx := w.Node(1).MAC().Stats().DataRx; rx != 1 {
		t.Fatalf("down-phase frame reached the dead MAC: DataRx = %d", rx)
	}
}

// TestLifecyclePanicsCarryTimestamp pins the diagnostic contract of the
// fault API: schedule bugs (double down, up while up) panic with the
// kernel clock in the message so a broken plan is debuggable.
func TestLifecyclePanicsCarryTimestamp(t *testing.T) {
	mustPanicWithClock := func(name string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s did not panic", name)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, "t=") {
				t.Fatalf("%s panic lacks a kernel timestamp: %q", name, msg)
			}
		}()
		f()
	}
	w, err := NewWorld(WorldConfig{
		Nodes:  2,
		Static: staticPositions(2, 100),
	}, newFloodRouter)
	if err != nil {
		t.Fatal(err)
	}
	w.Node(0).Down(false)
	mustPanicWithClock("double Down", func() { w.Node(0).Down(false) })
	mustPanicWithClock("Up while up", func() { w.Node(1).Up() })
	mustPanicWithClock("duplicate AttachPort", func() {
		w.Node(1).AttachPort(PortCBR, PortFunc(func(p *Packet, at sim.Time) {}))
		w.Node(1).AttachPort(PortCBR, PortFunc(func(p *Packet, at sim.Time) {}))
	})
}

// TestCrashReplacesRouterGracefulKeepsIt distinguishes the two shutdown
// variants: a crash loses routing state (fresh router instance), a graceful
// shutdown retains it.
func TestCrashReplacesRouterGracefulKeepsIt(t *testing.T) {
	w, err := NewWorld(WorldConfig{
		Nodes:  2,
		Static: staticPositions(2, 100),
	}, newFloodRouter)
	if err != nil {
		t.Fatal(err)
	}
	before := w.Node(0).Router()
	w.Node(0).Down(true)
	w.Node(0).Up()
	if w.Node(0).Router() != before {
		t.Fatal("graceful shutdown replaced the router")
	}
	w.Node(0).Down(false)
	w.Node(0).Up()
	if w.Node(0).Router() == before {
		t.Fatal("crash kept the old router instance")
	}
}

// TestCrashMidBroadcastReplays crashes a node while its radio is putting a
// broadcast data frame on the air. The frame keeps airing, its receivers
// decode the sender's packet at their own signal ends and flood it on, and
// only when the frame dies does the MAC hand the packet back as the
// node:down drop, which returns it to the pool. The run — every event
// with its time and the packet it saw, and every node's counters — must be
// DeepEqual across two replays.
func TestCrashMidBroadcastReplays(t *testing.T) {
	type event struct {
		at     sim.Time
		node   NodeID
		kind   EventKind
		cause  Cause
		packet Packet
	}
	run := func() ([]event, []NodeCounters, sim.Time) {
		w, err := NewWorld(WorldConfig{Nodes: 4, Static: staticPositions(4, 100)}, newFloodRouter)
		if err != nil {
			t.Fatal(err)
		}
		var log []event
		w.Observe(func(e PacketEvent) {
			log = append(log, event{e.At, e.Node.ID(), e.Kind, e.Cause, *e.Packet})
		})
		for i := 0; i < 4; i++ {
			w.Node(i).AttachPort(PortCBR, PortFunc(func(*Packet, sim.Time) {}))
		}
		send := func(from, to int) {
			w.Node(from).SendData(w.Node(from).NewPacket(NodeID(to), PortCBR, 128))
		}
		crashed := sim.Time(-1)
		var poll func()
		poll = func() {
			if !w.Node(0).radio.Transmitting() {
				w.Kernel.After(10*sim.Microsecond, poll)
				return
			}
			crashed = w.Kernel.Now()
			w.Node(0).Down(false)
		}
		w.Kernel.Schedule(10*sim.Millisecond, func() { send(0, 3); poll() })
		w.Kernel.Schedule(50*sim.Millisecond, func() { send(1, 3) })
		w.Kernel.Schedule(100*sim.Millisecond, func() { w.Node(0).Up() })
		w.Kernel.Schedule(150*sim.Millisecond, func() { send(0, 3) })
		w.Run(sim.Second)
		var counters []NodeCounters
		for _, n := range w.Nodes() {
			counters = append(counters, n.Counters())
		}
		return log, counters, crashed
	}
	log, counters, crashed := run()
	if crashed < 0 {
		t.Fatal("node 0 never went on the air")
	}
	var drop, delivered *event
	for i := range log {
		e := &log[i]
		if e.packet.UID != log[0].packet.UID {
			continue
		}
		switch {
		case e.cause == CauseNodeDown:
			drop = e
		case e.kind == Delivered:
			delivered = e
		}
	}
	if drop == nil || drop.node != 0 || drop.at <= crashed {
		t.Fatalf("crashed broadcast's drop %+v, want node 0's node:down after the crash at %v", drop, crashed)
	}
	if delivered == nil || delivered.node != 3 {
		t.Fatalf("crashed broadcast never reached node 3: %+v", log)
	}
	if n := len(log); n < 8 {
		t.Fatalf("%d events, want the three later packets sent and delivered too: %+v", n, log)
	}
	log2, counters2, crashed2 := run()
	if !reflect.DeepEqual(log, log2) || !reflect.DeepEqual(counters, counters2) || crashed != crashed2 {
		t.Fatalf("replays diverged:\n%+v\n%+v", log, log2)
	}
}
