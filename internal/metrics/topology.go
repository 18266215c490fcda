package metrics

import (
	"sort"

	"cavenet/internal/geometry"
	"cavenet/internal/mobility"
)

// This file implements the "topology change" metric the paper's §V defers
// to future work, plus the link-duration analysis its related work
// (the IMPORTANT/PATHS framework, refs [8][9]) builds on: how long do
// radio links live under a given mobility model?

// TopologyStats summarizes link dynamics over a mobility trace.
type TopologyStats struct {
	// LinkChanges counts link up/down transitions over the whole trace.
	LinkChanges int
	// ChangeRate is LinkChanges divided by the trace duration (events/s).
	ChangeRate float64
	// MeanLinkUpSeconds is the average duration of completed link-up
	// episodes (links still up at the end are excluded, matching the
	// censoring convention of the PATHS analysis).
	MeanLinkUpSeconds float64
	// LinkUpDurations lists every completed link-up episode in seconds.
	LinkUpDurations []float64
	// MeanDegree is the time-averaged number of neighbors per node.
	MeanDegree float64
}

// AnalyzeTopology replays a mobility trace at its native sampling interval
// and measures link dynamics for the given radio range.
//
// Each sample maintains a spatial grid of node positions (updated with
// incremental moves between samples), so only grid-near pairs pay a
// distance test; links that went down are found by rechecking the set of
// currently-up pairs, which is the sparse neighbor set rather than all
// N(N-1)/2 pairs. The output is identical to the all-pairs scan, including
// the order of LinkUpDurations.
func AnalyzeTopology(tr *mobility.SampledTrace, rangeMeters float64) TopologyStats {
	n := tr.NumNodes()
	samples := tr.NumSamples()
	var stats TopologyStats
	if n < 2 || samples < 2 {
		return stats
	}
	up := make(map[[2]int]int) // pair -> sample index the link came up
	degreeSum := 0.0
	grid, radius := linkGrid(rangeMeters)
	positions := make([]geometry.Vec2, n)
	var nearBuf []int32
	var downs [][2]int
	for s := 0; s < samples; s++ {
		tsec := float64(s) * tr.Interval
		for i := 0; i < n; i++ {
			p := tr.At(i, tsec)
			if s == 0 {
				grid.Insert(i, p)
			} else if p != positions[i] {
				grid.Move(i, p)
			}
			positions[i] = p
		}
		links := 0
		// Pass 1: discover connected pairs from each node's grid
		// neighborhood; record up-transitions.
		for i := 0; i < n; i++ {
			nearBuf = grid.Near(nearBuf[:0], positions[i], radius)
			for _, jj := range nearBuf {
				j := int(jj)
				if j <= i || positions[i].Dist(positions[j]) > rangeMeters {
					continue
				}
				links++
				pair := [2]int{i, j}
				if _, wasUp := up[pair]; !wasUp {
					up[pair] = s
					if s > 0 {
						stats.LinkChanges++
					}
				}
			}
		}
		// Pass 2: any tracked pair now out of range went down this sample.
		// Sort the downs so LinkUpDurations keeps the deterministic (i,j)
		// order of the original all-pairs scan.
		downs = downs[:0]
		for pair := range up { // order-free: the downs are sorted below
			if positions[pair[0]].Dist(positions[pair[1]]) > rangeMeters {
				downs = append(downs, pair)
			}
		}
		sort.Slice(downs, func(a, b int) bool {
			if downs[a][0] != downs[b][0] {
				return downs[a][0] < downs[b][0]
			}
			return downs[a][1] < downs[b][1]
		})
		for _, pair := range downs {
			stats.LinkUpDurations = append(stats.LinkUpDurations,
				float64(s-up[pair])*tr.Interval)
			delete(up, pair)
			stats.LinkChanges++
		}
		degreeSum += 2 * float64(links) / float64(n)
	}
	duration := tr.Duration()
	if duration > 0 {
		stats.ChangeRate = float64(stats.LinkChanges) / duration
	}
	if len(stats.LinkUpDurations) > 0 {
		sum := 0.0
		for _, d := range stats.LinkUpDurations {
			sum += d
		}
		stats.MeanLinkUpSeconds = sum / float64(len(stats.LinkUpDurations))
	}
	stats.MeanDegree = degreeSum / float64(samples)
	return stats
}
