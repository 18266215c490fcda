package olsr

import (
	"math/rand"
	"testing"

	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// TestLQEstimatorRingWraparound pins the sliding-window semantics across
// ring wraparound against a brute-force reference window.
func TestLQEstimatorRingWraparound(t *testing.T) {
	const window = 5
	e := newLQEstimator(window)
	rnd := rand.New(rand.NewSource(42))
	var history []bool
	for i := 0; i < 4*window+3; i++ {
		arrived := rnd.Float64() < 0.6
		if arrived {
			e.heard()
		}
		e.tick()
		history = append(history, arrived)

		ref := history
		if len(ref) > window {
			ref = ref[len(ref)-window:]
		}
		hits := 0
		for _, ok := range ref {
			if ok {
				hits++
			}
		}
		want := float64(hits) / float64(len(ref))
		if got := e.ratio(); got != want {
			t.Fatalf("tick %d: ratio = %v, want %v (window %v)", i, got, want, ref)
		}
	}
}

// TestLQEstimatorReset covers estimator recycling when a purged link
// reappears: history must restart from the optimistic prior.
func TestLQEstimatorReset(t *testing.T) {
	e := newLQEstimator(3)
	e.tick()
	e.tick()
	if e.ratio() != 0 {
		t.Fatalf("two silent periods should give 0, got %v", e.ratio())
	}
	e.reset()
	if e.ratio() != 1 {
		t.Fatalf("reset estimator must return the optimistic prior, got %v", e.ratio())
	}
	e.heard()
	e.tick()
	if e.ratio() != 1 {
		t.Fatalf("single hit after reset should give 1, got %v", e.ratio())
	}
}

// TestETXQualityMoveReroutesAtNextRead: under ETX a HELLO that refreshes
// nothing material still reports the link qualities moved since the last
// stamp, so the next read routes on them. Neighbors 1 and 2 both reach 3;
// after 1 misses a hello window its ETX is 4 against 2's 1, and the next
// HELLO from 2 — a pure lifetime refresh — moves the route to 3 over to 2.
func TestETXQualityMoveReroutesAtNextRead(t *testing.T) {
	w, r := newBareRouter(t, Config{ETX: true})
	hello := func(from netsim.NodeID) {
		r.handleHello(&Hello{From: from, Links: []HelloLink{{Neighbor: 0, Code: LinkSym}, {Neighbor: 3, Code: LinkSym}}}, from)
	}
	route := func() netsim.NodeID {
		next, hops, ok := r.Route(3)
		if !ok || hops != 2 {
			t.Fatalf("t=%v: route to 3 = next %d hops %d ok %v, want a 2-hop route", w.Kernel.Now(), next, hops, ok)
		}
		return next
	}
	hello(1)
	hello(2)
	if next := route(); next != 1 {
		t.Fatalf("equal qualities: route to 3 via %d, want 1 (the lower id)", next)
	}
	w.Kernel.RunUntil(100 * sim.Millisecond)
	r.sendHello() // both links heard: both windows close at 1/1
	w.Kernel.RunUntil(150 * sim.Millisecond)
	hello(2)
	w.Kernel.RunUntil(200 * sim.Millisecond)
	r.sendHello() // only 2 heard: LQ to 1 drops to 1/2, ETX 4
	if next := route(); next != 1 {
		t.Fatalf("window closed unreported: route to 3 via %d, want still 1 (as of the last stamp)", next)
	}
	w.Kernel.RunUntil(250 * sim.Millisecond)
	hello(2) // refreshes lifetimes only; the quality move is what it reports
	if next := route(); next != 2 {
		t.Fatalf("after 2's HELLO: route to 3 via %d, want 2 (ETX 1+1 against 4+1)", next)
	}
}

// TestLinkFailureRestartsLQWindow pins what a link failure does to ETX:
// it removes the link, so the neighbor's next HELLO creates it afresh and
// its estimator (the same object, recycled) restarts from the optimistic
// prior, however soon the HELLO comes. The window it had — one arrival in
// three periods — does not carry over.
func TestLinkFailureRestartsLQWindow(t *testing.T) {
	w := chainWorld(t, 1, 0, Config{ETX: true})
	r := w.Node(0).Router().(*Router)
	const me, nb = netsim.NodeID(0), netsim.NodeID(1)
	hello := []HelloLink{{Neighbor: me, Code: LinkSym}}
	fi := r.intern(nb)
	r.hearLink(fi, me, hello, 0)
	lq := r.slot(fi).link.lq
	for range 3 {
		lq.tick()
	}
	if got := lq.ratio(); got != 1.0/3 {
		t.Fatalf("before the failure the link's LQ is %v, want 1/3", got)
	}
	r.LinkFailure(nb, &netsim.Packet{Kind: netsim.KindControl})
	if r.symmetric(nb, 0) || r.slot(fi).linkPos >= 0 {
		t.Fatal("the failed link is still present")
	}
	if material, _ := r.hearLink(fi, me, hello, sim.Millisecond); !material {
		t.Fatal("the HELLO after the failure did not report a new link")
	}
	if r.slot(fi).link.lq != lq {
		t.Fatal("the returning link allocated a new estimator")
	}
	lq.tick()
	if got := lq.ratio(); got != 1 {
		t.Fatalf("after the failure and one HELLO the LQ is %v, want 1 (a restarted window)", got)
	}
}
