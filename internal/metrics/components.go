package metrics

import (
	"sort"

	"cavenet/internal/geometry"
	"cavenet/internal/spatial"
)

// linkMargin inflates grid query radii so a pair the exact Dist test links
// is never missed: near a cell edge the query disc's bounds and the
// distance round differently, and a pair exactly at range can fall one
// cell outside an unpadded query (TestComponentsCellEdgeAtRange).
const linkMargin = 1.001

// linkGrid returns an empty spatial index for the links of a radio range,
// and the query radius that reaches every pair within it. A degenerate
// (zero or negative) range still has a defined answer — only coincident
// nodes link at range 0, nothing at negative range — but needs a positive
// cell size for the index.
func linkGrid(rangeMeters float64) (grid *spatial.Grid, radius float64) {
	cell := rangeMeters
	if cell <= 0 {
		cell = 1
	}
	return spatial.NewGrid(cell), rangeMeters * linkMargin
}

// Components partitions nodes at the given positions into radio-connectivity
// components: i and j are linked when positions[i].Dist(positions[j]) ≤
// rangeMeters, and a component is a maximal set of nodes joined by chains
// of links — the analysis behind the paper's Fig. 1-a point that relays on
// another lane close connectivity gaps.
//
// Order: each component lists its members in ascending index order, and
// the components come in ascending order of their smallest member, so the
// first component holds node 0. A flood fill over a spatial grid with cell
// size rangeMeters pays a distance test only for grid-near pairs.
func Components(positions []geometry.Vec2, rangeMeters float64) [][]int {
	grid, radius := linkGrid(rangeMeters)
	for i, p := range positions {
		grid.Insert(i, p)
	}
	seen := make([]bool, len(positions))
	var comps [][]int
	var stack []int
	var near []int32
	for i := range positions {
		if seen[i] {
			continue
		}
		seen[i] = true
		comp := []int{}
		stack = append(stack[:0], i)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			near = grid.Near(near[:0], positions[v], radius)
			for _, u := range near {
				if !seen[u] && positions[v].Dist(positions[u]) <= rangeMeters {
					seen[u] = true
					stack = append(stack, int(u))
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}
