package phy

import (
	"math/rand"
	"testing"

	"cavenet/internal/geometry"
	"cavenet/internal/sim"
)

// unculled hides every optional interface of the model it wraps — above
// all DistanceMonotone — so NewChannel takes the brute-force path, as it
// does for any model it cannot prove monotone. This is how tests reach the
// reference the grid is compared against; there is no Config switch.
type unculled struct{ Propagation }

// runRandomScenario drives a scripted random 200-node broadcast scenario —
// bursty transmissions plus mid-run mobility — and returns the channel
// counters. The script consumes the RNG identically regardless of the
// culling mode, so the grid-culled run and the brute-force oracle must
// produce bit-identical statistics.
func runRandomScenario(t *testing.T, seed int64, brute bool) (transmitted, delivered, collided uint64) {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	k := sim.NewKernel()
	var prop Propagation = TwoRayGround{}
	if brute {
		prop = unculled{prop}
	}
	c := NewChannel(k, prop, Config{CaptureRatio: 10})
	if culled := c.grid != nil; culled == brute {
		t.Fatalf("culling = %v with brute=%v", culled, brute)
	}
	const n = 200
	radios := make([]*Radio, n)
	randPos := func() geometry.Vec2 {
		// A 6×1.5 km strip: several carrier-sense cells long, so culling
		// actually skips radios, with enough density for collisions.
		return geometry.Vec2{X: rnd.Float64() * 6000, Y: rnd.Float64() * 1500}
	}
	for i := range radios {
		radios[i] = c.Attach(randPos())
	}
	horizon := 2 * sim.Second
	for s := 0; s < 600; s++ {
		at := sim.Time(rnd.Int63n(int64(horizon)))
		r := radios[rnd.Intn(n)]
		dur := sim.Time(rnd.Int63n(int64(2*sim.Millisecond))) + 100*sim.Microsecond
		k.Schedule(at, func() {
			// A radio may already be mid-transmission when its slot
			// arrives; the skip decision depends only on scripted state,
			// so both modes skip identically.
			if !r.Transmitting() {
				r.Transmit("payload", 512, dur)
			}
		})
	}
	for s := 0; s < 120; s++ {
		at := sim.Time(rnd.Int63n(int64(horizon)))
		r := radios[rnd.Intn(n)]
		p := randPos()
		k.Schedule(at, func() { r.SetPosition(p) })
	}
	for k.Step() {
	}
	return c.Stats()
}

// TestChannelGridMatchesBruteForce is the oracle check behind the
// spatial-culling fast path: identical Channel.Stats() on a random
// 200-node scenario, across several seeds.
func TestChannelGridMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		gt, gd, gc := runRandomScenario(t, seed, false)
		bt, bd, bc := runRandomScenario(t, seed, true)
		if gt != bt || gd != bd || gc != bc {
			t.Fatalf("seed %d: grid stats (%d,%d,%d) != brute-force stats (%d,%d,%d)",
				seed, gt, gd, gc, bt, bd, bc)
		}
		if gd == 0 || gc == 0 {
			t.Fatalf("seed %d: degenerate scenario (delivered=%d collided=%d), tighten the script",
				seed, gd, gc)
		}
	}
}

// TestChannelCullReachesCellEdge is the deterministic corner the random
// scenario almost never hits: a receiver on the near edge of the next grid
// cell (cell size = carrier-sense range), 0.1 m inside that range. A query
// radius short of the carrier-sense range (cullMargin < 1) does not reach
// its cell, and the grid drops a carrier edge the brute path delivers.
func TestChannelCullReachesCellEdge(t *testing.T) {
	for _, prop := range []Propagation{TwoRayGround{}, unculled{TwoRayGround{}}} {
		k := sim.NewKernel()
		c := NewChannel(k, prop, Config{})
		tx, _ := attach(c, 0.1, 0)
		_, rec := attach(c, c.cfg.CSRangeM, 0)
		tx.Transmit("x", 100, sim.Millisecond)
		for k.Step() {
		}
		if len(rec.carrier) != 2 || !rec.carrier[0] || rec.carrier[1] {
			t.Fatalf("culling %v: carrier edges at the cell edge = %v, want [true false]", c.grid != nil, rec.carrier)
		}
	}
}

// TestChannelShadowingFallsBackToBruteForce pins the safety rail: a
// propagation model with a random component must not be distance-culled.
func TestChannelShadowingFallsBackToBruteForce(t *testing.T) {
	k := sim.NewKernel()
	c := NewChannel(k, Shadowing{Beta: 2.7, SigmaDB: 4, Rnd: rand.New(rand.NewSource(1))}, Config{})
	if c.grid != nil {
		t.Fatal("randomized shadowing must disable spatial culling")
	}
	c = NewChannel(k, Shadowing{Beta: 2.7, SigmaDB: 4}, Config{})
	if c.grid == nil {
		t.Fatal("deterministic shadowing should allow spatial culling")
	}
}

// TestRadioSetPositionMovesCoverage checks deliveries follow a moved radio:
// out of range silence, back in range reception.
func TestRadioSetPositionMovesCoverage(t *testing.T) {
	k, c := testChannel(t, Config{})
	tx, _ := attach(c, 0, 0)
	rx, rec := attach(c, 200, 0)
	tx.Transmit("a", 100, sim.Millisecond)
	for k.Step() {
	}
	if len(rec.received) != 1 {
		t.Fatalf("in range: received %d, want 1", len(rec.received))
	}
	rx.SetPosition(geometry.Vec2{X: 5000})
	tx.Transmit("b", 100, sim.Millisecond)
	for k.Step() {
	}
	if len(rec.received) != 1 {
		t.Fatalf("moved out of range: received %d, want still 1", len(rec.received))
	}
	rx.SetPosition(geometry.Vec2{X: 150})
	tx.Transmit("c", 100, sim.Millisecond)
	for k.Step() {
	}
	if len(rec.received) != 2 || rec.received[1] != "c" {
		t.Fatalf("moved back in range: received %v", rec.received)
	}
}
