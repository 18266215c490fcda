package gpsr

import (
	"math"
	"math/rand"
	"testing"

	"cavenet/internal/geometry"
	"cavenet/internal/netsim"
	"cavenet/internal/sim"
	"cavenet/internal/traffic"
)

// bruteGreedyNext is the reference for greedyNext: the original scan of
// the whole neighbor table for the strictly-closer neighbor minimizing
// (distance-to-dst, id).
func bruteGreedyNext(r *Router, dst geometry.Vec2, dSelf float64) (netsim.NodeID, bool) {
	best, bestID := dSelf, netsim.NodeID(-1)
	for id, nb := range r.neighbors {
		d := dst.Dist(nb.pos)
		if d >= dSelf {
			continue
		}
		if bestID < 0 || d < best || (d == best && id < bestID) {
			best, bestID = d, id
		}
	}
	return bestID, bestID >= 0
}

// liveRouter is the router of a one-node world, so unit-level tests drive
// the neighbor table through learnNeighbor/dropNeighbor — the code that
// keeps the spatial index in lockstep with the map in a run.
func liveRouter(t *testing.T) *Router {
	return staticWorld(t, []geometry.Vec2{{}}, Config{}).Node(0).Router().(*Router)
}

// TestGreedyDifferential is the bit-identity proof: across randomized
// neighbor tables (inserts, moves, evictions through the router's own
// learnNeighbor/dropNeighbor), random destinations and self-distances, the
// grid-backed greedyNext and the brute-force scan pick the same next hop
// with the same ok flag — including exact-distance ties and detached-radio
// cases where nothing qualifies.
func TestGreedyDifferential(t *testing.T) {
	rnd := rand.New(rand.NewSource(2026))
	r := liveRouter(t)
	const n = 60
	randPos := func() geometry.Vec2 {
		return geometry.Vec2{X: rnd.Float64()*2000 - 1000, Y: rnd.Float64()*2000 - 1000}
	}
	for step := 0; step < 5000; step++ {
		id := netsim.NodeID(rnd.Intn(n))
		switch rnd.Intn(3) {
		case 0:
			r.dropNeighbor(id)
		default:
			r.learnNeighbor(id, randPos())
		}
		dst := randPos()
		// Mix tight limits (detached radio: no neighbor qualifies) with
		// generous ones.
		dSelf := rnd.Float64() * 800
		gotID, gotOK := r.greedyNext(dst, dSelf)
		wantID, wantOK := bruteGreedyNext(r, dst, dSelf)
		if gotID != wantID || gotOK != wantOK {
			t.Fatalf("step %d: grid = (%d, %v), brute = (%d, %v) for dst %v dSelf %v",
				step, gotID, gotOK, wantID, wantOK, dst, dSelf)
		}
	}
}

// TestGreedyDifferentialTies pins the tie-break on exactly equidistant
// candidates: both must pick the smallest id, independent of insertion
// order.
func TestGreedyDifferentialTies(t *testing.T) {
	r := liveRouter(t)
	dst := geometry.Vec2{}
	// Four neighbors on a circle around dst — bitwise-equal distances —
	// inserted in descending-id order.
	pts := []geometry.Vec2{{X: 300}, {X: -300}, {Y: 300}, {Y: -300}}
	for i, p := range pts {
		r.learnNeighbor(netsim.NodeID(9-i), p)
	}
	gotID, gotOK := r.greedyNext(dst, 500)
	wantID, wantOK := bruteGreedyNext(r, dst, 500)
	if !gotOK || !wantOK || gotID != wantID || gotID != 6 {
		t.Fatalf("tie-break: grid = (%d, %v), brute = (%d, %v), want id 6", gotID, gotOK, wantID, wantOK)
	}
	// Candidates exactly at dSelf are not strictly closer: detached.
	if id, ok := r.greedyNext(dst, 300); ok {
		t.Fatalf("grid accepted non-improving neighbor %d", id)
	}
	if id, ok := bruteGreedyNext(r, dst, 300); ok {
		t.Fatalf("brute scan accepted non-improving neighbor %d", id)
	}
}

// TestGabrielPlanarization checks the witness rule on a known triangle:
// the long edge whose diameter circle contains the witness is removed,
// short edges survive, and results come back id-sorted.
func TestGabrielPlanarization(t *testing.T) {
	r := liveRouter(t)
	self := geometry.Vec2{}
	// Neighbor 5 sits inside the circle with diameter (self, 2), so the
	// direct edge to 2 is planarized away; 5 and 7 are kept.
	r.learnNeighbor(2, geometry.Vec2{X: 400, Y: 0})
	r.learnNeighbor(5, geometry.Vec2{X: 200, Y: 60})
	r.learnNeighbor(7, geometry.Vec2{X: -100, Y: -100})
	got := r.planarNeighbors(self)
	if len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Fatalf("planar neighbors = %v, want [5 7]", got)
	}
	// A co-located neighbor (undefined bearing) is excluded.
	r.learnNeighbor(9, self)
	got = r.planarNeighbors(self)
	for _, id := range got {
		if id == 9 {
			t.Fatal("co-located neighbor survived planarization")
		}
	}
}

// TestNextCCWRightHandRule pins the counterclockwise sweep: from a
// reference bearing, the nearest edge counterclockwise wins, and the
// reference edge itself is chosen only as the dead-end last resort.
func TestNextCCWRightHandRule(t *testing.T) {
	r := liveRouter(t)
	self := geometry.Vec2{}
	r.learnNeighbor(1, geometry.Vec2{X: 100, Y: 0})  // bearing 0
	r.learnNeighbor(2, geometry.Vec2{X: 0, Y: 100})  // bearing π/2
	r.learnNeighbor(3, geometry.Vec2{X: -100, Y: 0}) // bearing π
	planar := r.planarNeighbors(self)
	if len(planar) != 3 {
		t.Fatalf("planar = %v, want all three", planar)
	}
	// Sweep from bearing 0 (toward neighbor 1): first ccw is 2.
	if id, _, ok := r.nextCCW(planar, self, 0); !ok || id != 2 {
		t.Fatalf("ccw from 0 = %d, want 2", id)
	}
	// Sweep from π/2: first ccw is 3.
	if id, _, ok := r.nextCCW(planar, self, math.Pi/2); !ok || id != 3 {
		t.Fatalf("ccw from π/2 = %d, want 3", id)
	}
	// Sweep from just past π: wraps to 1.
	if id, _, ok := r.nextCCW(planar, self, math.Pi+0.01); !ok || id != 1 {
		t.Fatalf("ccw from π+ε = %d, want 1", id)
	}
	// Dead end: only one neighbor — the U-turn back along the reference
	// edge is the last resort, but still taken.
	solo := liveRouter(t)
	solo.learnNeighbor(4, geometry.Vec2{X: 100, Y: 0})
	planar = solo.planarNeighbors(self)
	if id, _, ok := solo.nextCCW(planar, self, 0); !ok || id != 4 {
		t.Fatalf("dead-end U-turn = %d, want 4", id)
	}
}

func TestSegmentCross(t *testing.T) {
	x, ok := segmentCross(
		geometry.Vec2{X: 0, Y: -10}, geometry.Vec2{X: 0, Y: 10},
		geometry.Vec2{X: -10, Y: 0}, geometry.Vec2{X: 10, Y: 0})
	if !ok || x != (geometry.Vec2{}) {
		t.Fatalf("crossing = %v, %v", x, ok)
	}
	if _, ok := segmentCross(
		geometry.Vec2{X: 0, Y: 1}, geometry.Vec2{X: 10, Y: 1},
		geometry.Vec2{X: 0, Y: 0}, geometry.Vec2{X: 10, Y: 0}); ok {
		t.Fatal("parallel segments reported crossing")
	}
	if _, ok := segmentCross(
		geometry.Vec2{X: 0, Y: 5}, geometry.Vec2{X: 10, Y: 5},
		geometry.Vec2{X: 0, Y: 0}, geometry.Vec2{X: 3, Y: 3}); ok {
		t.Fatal("non-touching segments reported crossing")
	}
}

func staticWorld(t *testing.T, positions []geometry.Vec2, cfg Config) *netsim.World {
	t.Helper()
	w, err := netsim.NewWorld(netsim.WorldConfig{
		Nodes:  len(positions),
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

// TestGreedyChainDelivery: pure greedy forwarding down a chain inside
// radio range delivers once beacons have populated neighbor tables.
func TestGreedyChainDelivery(t *testing.T) {
	positions := []geometry.Vec2{{X: 0}, {X: 200}, {X: 400}, {X: 600}}
	w := staticWorld(t, positions, Config{})
	sink := &traffic.Sink{}
	w.Node(3).AttachPort(netsim.PortCBR, sink)
	sendAt(w, 3*sim.Second, 0, 3, 512)
	w.Run(6 * sim.Second)
	if sink.Received != 1 {
		t.Fatalf("delivered %d, want 1", sink.Received)
	}
}

// TestPerimeterRecoversAroundVoid: the destination is greedily
// unreachable from the source (every source neighbor is farther from it),
// so delivery requires perimeter mode to walk around the radio void and
// greedy to resume on the far side.
func TestPerimeterRecoversAroundVoid(t *testing.T) {
	positions := []geometry.Vec2{
		{X: 0, Y: 0},     // 0: source, local maximum toward 4
		{X: 0, Y: 200},   // 1
		{X: 200, Y: 200}, // 2
		{X: 400, Y: 200}, // 3
		{X: 400, Y: 0},   // 4: destination, out of range of 0..2
	}
	w := staticWorld(t, positions, Config{})
	sink := &traffic.Sink{}
	w.Node(4).AttachPort(netsim.PortCBR, sink)
	var dropReasons []string
	w.SetHooks(netsim.Hooks{DataDropped: func(n *netsim.Node, p *netsim.Packet, reason string) {
		dropReasons = append(dropReasons, reason)
	}})
	for i := 0; i < 5; i++ {
		sendAt(w, 3*sim.Second+sim.Time(i)*sim.Second/5, 0, 4, 512)
	}
	w.Run(7 * sim.Second)
	if sink.Received != 5 {
		t.Fatalf("delivered %d/5 around the void (drops: %v)", sink.Received, dropReasons)
	}
}

// TestPartitionDropsExplicitly: a destination beyond every radio is
// dropped with a gpsr:* reason (conservation demands explicit drops, not
// silent loss).
func TestPartitionDropsExplicitly(t *testing.T) {
	w := staticWorld(t, []geometry.Vec2{{X: 0}, {X: 5000}}, Config{})
	drops := map[string]int{}
	w.SetHooks(netsim.Hooks{DataDropped: func(n *netsim.Node, p *netsim.Packet, reason string) {
		drops[reason]++
	}})
	sendAt(w, 3*sim.Second, 0, 1, 512)
	w.Run(6 * sim.Second)
	if drops["gpsr:no-route"] != 1 {
		t.Fatalf("drops = %v, want one gpsr:no-route", drops)
	}
}

// TestBeaconsExpire: a silenced neighbor leaves the table after the hold
// time — the ExpiryHeap purge actually runs.
func TestBeaconsExpire(t *testing.T) {
	positions := []geometry.Vec2{{X: 0}, {X: 200}}
	w := staticWorld(t, positions, Config{})
	w.Run(3 * sim.Second)
	r0 := w.Node(0).Router().(*Router)
	if r0.NeighborCount() != 1 {
		t.Fatalf("node 0 has %d neighbors after 3 s, want 1", r0.NeighborCount())
	}
	// Silence node 1: its radio leaves the air; node 0 must expire the
	// entry within the hold time plus one purge period.
	w.Kernel.Schedule(3*sim.Second+1, func() { w.Node(1).Down(true) })
	w.Run(8 * sim.Second)
	if r0.NeighborCount() != 0 {
		t.Fatalf("node 0 still has %d neighbors after neighbor went down", r0.NeighborCount())
	}
}
