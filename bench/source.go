package main

import (
	"time"

	"cavenet/internal/geometry"
	"cavenet/internal/mobility"
)

// timedSource wraps a run's mobility source: the one seam through which
// the benchmark can see inside scenario.RunOnSource without touching it.
// netsim.NewWorld reads every node's start position while it assembles
// the world, node 0 first, and the event loop's first mobility tick reads
// node 0 again — so node 0's second query marks where world set-up ends
// and steady simulation begins. With timing on (the traced pass) it also
// clocks every At call, which is all the time a run spends in the CA and
// mobility layers after BuildSource returns.
//
// The wrapper forwards every query unchanged and in order, so the inner
// source's forward-only cursor contract — and therefore the run's result
// — is preserved bit for bit.
type timedSource struct {
	src    mobility.Source
	timing bool

	assembling bool      // node 0 has been read once: world assembly is under way
	loopStart  time.Time // node 0's second read: the first mobility tick
	ticks      int64
	calls      int64
	busy       time.Duration
}

func (t *timedSource) NumNodes() int { return t.src.NumNodes() }

func (t *timedSource) At(node int, tsec float64) geometry.Vec2 {
	if node == 0 {
		switch {
		case !t.assembling:
			t.assembling = true
		default:
			if t.ticks == 0 {
				t.loopStart = time.Now()
			}
			t.ticks++
		}
	}
	if !t.timing {
		return t.src.At(node, tsec)
	}
	start := time.Now()
	p := t.src.At(node, tsec)
	t.busy += time.Since(start)
	t.calls++
	return p
}

// timerCost measures what an empty timed interval reads — the clock's
// own cost inside every At measurement — so the traced pass can subtract
// it from mobility.at_busy_s.
func timerCost() time.Duration {
	const n = 200000
	var acc time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		acc += time.Since(start)
	}
	return acc / n
}
