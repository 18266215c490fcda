package gpsr

import (
	"math"
	"slices"

	"cavenet/internal/geometry"
	"cavenet/internal/netsim"
)

// This file implements perimeter mode (Karp & Kung §3.2–3.3): planarize
// the local neighbor graph with the Gabriel test, then walk the faces of
// that graph by the right-hand rule, changing faces where the walk
// crosses the line from the perimeter entry point Lp to the destination.
// All geometry is evaluated on beacon-learned positions only — perimeter
// mode needs no state beyond the neighbor table, which is the "stateless"
// of GPSR's name.

// planarNeighbors reports the neighbor ids kept by the Gabriel
// planarization: the edge to v survives iff no other known neighbor w
// lies strictly inside the circle whose diameter is (self, v). Results
// are sorted by id and co-located neighbors (distance 0, undefined
// bearing) are excluded, so the walk is deterministic regardless of map
// iteration order.
func (r *Router) planarNeighbors(self geometry.Vec2) []netsim.NodeID {
	all := r.allBuf[:0]
	for id := range r.neighbors { // order-free: the keys are sorted below
		all = append(all, id)
	}
	slices.Sort(all)
	r.allBuf = all

	keep := r.planarBuf[:0]
	for _, v := range all {
		vp := r.neighbors[v].pos
		if vp == self {
			continue
		}
		mid := geometry.Vec2{X: (self.X + vp.X) / 2, Y: (self.Y + vp.Y) / 2}
		radius := self.Dist(vp) / 2
		witnessed := false
		for _, w := range all {
			if w == v {
				continue
			}
			if r.neighbors[w].pos.Dist(mid) < radius {
				witnessed = true
				break
			}
		}
		if !witnessed {
			keep = append(keep, v)
		}
	}
	r.planarBuf = keep
	return keep
}

// bearing is the angle of the vector from a to b.
func bearing(a, b geometry.Vec2) float64 {
	return math.Atan2(b.Y-a.Y, b.X-a.X)
}

// nextCCW picks the planar neighbor whose bearing from self is the first
// one strictly counterclockwise from ref (deltas in (0, 2π], so the
// reference edge itself is the last resort — the dead-end U-turn). Exact
// bearing ties resolve to the smallest id. Returns the chosen id and its
// absolute bearing; ok=false when planar is empty.
func (r *Router) nextCCW(planar []netsim.NodeID, self geometry.Vec2, ref float64) (id netsim.NodeID, ang float64, ok bool) {
	bestID := netsim.NodeID(-1)
	bestDelta, bestAng := 0.0, 0.0
	for _, v := range planar {
		a := bearing(self, r.neighbors[v].pos)
		d := a - ref
		for d <= 0 {
			d += 2 * math.Pi
		}
		for d > 2*math.Pi {
			d -= 2 * math.Pi
		}
		if bestID < 0 || d < bestDelta || (d == bestDelta && v < bestID) {
			bestID, bestDelta, bestAng = v, d, a
		}
	}
	return bestID, bestAng, bestID >= 0
}

// segmentCross reports the proper intersection point of segments ab and
// cd. Parallel and collinear pairs report no crossing — on the degenerate
// face walk along the Lp–Dst line a face change would make no progress.
func segmentCross(a, b, c, d geometry.Vec2) (geometry.Vec2, bool) {
	rx, ry := b.X-a.X, b.Y-a.Y
	sx, sy := d.X-c.X, d.Y-c.Y
	denom := rx*sy - ry*sx
	if denom == 0 {
		return geometry.Vec2{}, false
	}
	qx, qy := c.X-a.X, c.Y-a.Y
	t := (qx*sy - qy*sx) / denom
	u := (qx*ry - qy*rx) / denom
	if t < 0 || t > 1 || u < 0 || u > 1 {
		return geometry.Vec2{}, false
	}
	return geometry.Vec2{X: a.X + t*rx, Y: a.Y + t*ry}, true
}

// perimeterForward walks one hop of the face traversal. h must belong to
// p; from is the previous hop (-1 when perimeter mode was entered at this
// node, making the bearing to the destination the reference direction).
func (r *Router) perimeterForward(p *netsim.Packet, h *geoHeader, from netsim.NodeID) {
	self := r.node.Position()
	planar := r.planarNeighbors(self)
	if len(planar) == 0 {
		// Isolated on the planar graph: nowhere to walk.
		r.node.DropData(p, netsim.CauseNoRoute)
		return
	}
	// The header is mutated below (Lf, E0); take the private copy once.
	h = r.mutate(p, h)

	ref := bearing(self, h.Dst)
	if nb, ok := r.neighbors[from]; ok && from >= 0 {
		ref = bearing(self, nb.pos)
	}
	// Right-hand rule with face changes: sweep counterclockwise from the
	// reference edge; when the candidate edge crosses the Lp–Dst line
	// closer to the destination than the current face's entry point, the
	// packet moves to the adjacent face instead of traversing the edge,
	// and the sweep continues from the rejected edge. Each iteration
	// consumes one candidate, so len(planar)+1 rounds bound the loop; if
	// it exhausts (pathological float geometry), the packet is unroutable.
	for i := 0; i <= len(planar); i++ {
		next, ang, ok := r.nextCCW(planar, self, ref)
		if !ok {
			break
		}
		nextPos := r.neighbors[next].pos
		if x, crosses := segmentCross(self, nextPos, h.Lp, h.Dst); crosses &&
			x.Dist(h.Dst) < h.Lf.Dist(h.Dst) {
			h.Lf = x
			h.E0From, h.E0To = -1, -1
			ref = ang
			continue
		}
		if h.E0From == r.node.ID() && h.E0To == next {
			// The walk closed the face back onto its first edge without
			// ever getting closer to the destination: unreachable on the
			// planar graph (a true partition, not congestion).
			r.node.DropData(p, netsim.CauseUnreachable)
			return
		}
		if h.E0From < 0 {
			h.E0From, h.E0To = r.node.ID(), next
		}
		r.node.SendFrame(next, p)
		return
	}
	r.node.DropData(p, netsim.CauseNoRoute)
}
