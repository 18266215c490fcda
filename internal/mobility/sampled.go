// Package mobility turns traffic models into node movement that the network
// simulator (and ns-2, via the trace package) can consume.
//
// It implements the BA→CPS coupling of the paper's Fig. 2: the cellular
// automaton produces movement patterns; this package maps them into plane
// coordinates using the lane placements of §III-D, samples them at the CA
// step interval, and — for comparison experiments — provides the classical
// Random Waypoint model whose velocity-decay problem §IV-B discusses.
package mobility

import (
	"fmt"

	"cavenet/internal/geometry"
)

// SampledTrace holds node positions sampled at a fixed interval. Positions
// between samples are linearly interpolated; times beyond the last sample
// clamp to it.
type SampledTrace struct {
	// Interval is the sampling period in seconds (the CA's Δt = 1 s for
	// CAVENET traces).
	Interval float64
	// Positions is indexed [node][sample].
	Positions [][]geometry.Vec2
}

// SampleCount reports how many interval-spaced samples cover [0, duration]
// inclusive of both endpoints: floor(duration/interval) + 1, with a
// one-ulp-scale tolerance on the quotient. A bare int(duration/interval)
// drops the final sample whenever the division lands just below an integer
// (0.3/0.1 = 2.999…96), which silently shortened traces by one step.
func SampleCount(duration, interval float64) int {
	q := duration / interval
	if q < 0 {
		return 1
	}
	return int(q+q*4e-16+1e-9) + 1
}

// NumNodes reports the number of nodes in the trace.
func (t *SampledTrace) NumNodes() int { return len(t.Positions) }

// NumSamples reports the number of samples per node (0 for an empty trace).
func (t *SampledTrace) NumSamples() int {
	if len(t.Positions) == 0 {
		return 0
	}
	return len(t.Positions[0])
}

// Duration reports the trace duration in seconds.
func (t *SampledTrace) Duration() float64 {
	n := t.NumSamples()
	if n == 0 {
		return 0
	}
	return float64(n-1) * t.Interval
}

// At returns the position of node at time tsec (seconds), linearly
// interpolating between samples and clamping outside the sampled range.
func (t *SampledTrace) At(node int, tsec float64) geometry.Vec2 {
	samples := t.Positions[node]
	if len(samples) == 0 {
		return geometry.Vec2{}
	}
	if tsec <= 0 {
		return samples[0]
	}
	idx := tsec / t.Interval
	i := int(idx)
	if i >= len(samples)-1 {
		return samples[len(samples)-1]
	}
	frac := idx - float64(i)
	return lerpSample(samples[i], samples[i+1], frac)
}

// SampleInterval implements RowSource.
func (t *SampledTrace) SampleInterval() float64 { return t.Interval }

// Row implements RowSource: sample k of every node, clamped to the last
// sample (a materialized trace supports random access, so the
// forward-only cursor contract is trivially met). A node with no samples
// contributes the zero position, mirroring At.
func (t *SampledTrace) Row(k int, dst []geometry.Vec2) []geometry.Vec2 {
	dst = dst[:0]
	for n := range t.Positions {
		samples := t.Positions[n]
		if len(samples) == 0 {
			dst = append(dst, geometry.Vec2{})
			continue
		}
		i := k
		if i >= len(samples) {
			i = len(samples) - 1
		}
		dst = append(dst, samples[i])
	}
	return dst
}

// Validate checks structural invariants: equal sample counts across nodes
// and a positive interval.
func (t *SampledTrace) Validate() error {
	if t.Interval <= 0 {
		return fmt.Errorf("mobility: non-positive sample interval %v", t.Interval)
	}
	if len(t.Positions) == 0 {
		return fmt.Errorf("mobility: trace has no nodes")
	}
	n := len(t.Positions[0])
	for i, p := range t.Positions {
		if len(p) != n {
			return fmt.Errorf("mobility: node %d has %d samples, want %d", i, len(p), n)
		}
	}
	return nil
}
