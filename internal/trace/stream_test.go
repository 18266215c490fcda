package trace

import (
	"testing"

	"cavenet/internal/geometry"
)

// TestScriptSourceMatchesSample asserts streaming ns-2 playback is
// bit-identical to the materialized Sample of the same script, across the
// whole tick grid including the clamp beyond the last sample.
func TestScriptSourceMatchesSample(t *testing.T) {
	s := &Script{Nodes: []NodeScript{
		{Initial: geometry.Vec2{X: 10, Y: 20}, Cmds: []SetDest{
			{At: 1, Dest: geometry.Vec2{X: 100, Y: 20}, Speed: 12.5},
			{At: 8, Dest: geometry.Vec2{X: 100, Y: 200}, Speed: 7},
		}},
		{Initial: geometry.Vec2{X: 0, Y: 0}},
		{Initial: geometry.Vec2{X: 5, Y: 5}, Cmds: []SetDest{
			{At: 0.25, Dest: geometry.Vec2{X: 5, Y: 305}, Speed: 30},
			{At: 0.25, Dest: geometry.Vec2{X: 305, Y: 5}, Speed: 30},
		}},
	}}
	const interval, duration = 1.0, 25.0
	sampled := s.Sample(interval, duration)
	src, err := s.Source(interval, duration)
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; float64(tick)*0.1 <= duration+3; tick++ {
		tsec := float64(tick) * 0.1
		for n := range s.Nodes {
			if got, want := src.At(n, tsec), sampled.At(n, tsec); got != want {
				t.Fatalf("node %d at t=%.1f: streamed %v, sampled %v", n, tsec, got, want)
			}
		}
	}
}
