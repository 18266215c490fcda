package ca

import (
	"fmt"
	"math/rand"

	"cavenet/internal/geometry"
	"cavenet/internal/rng"
)

// SegmentSpec describes one directed street of a road network: a NaS lane
// of Length sites whose exit feeds the Next segments across an
// intersection.
type SegmentSpec struct {
	// Length is the number of sites; must be at least VMax+1 so a vehicle
	// crossing an intersection always lands inside the successor.
	Length int
	// Placement maps the along-segment coordinate (meters, site·CellLength)
	// to the plane. Successive segments must join continuously at their
	// shared intersection (Place(Length·CellLength) of this segment equals
	// Place(0) of every successor) so sampled motion never teleports.
	Placement geometry.LanePlacement
	// Next lists the successor segments a vehicle may turn into; must be
	// non-empty (the grid generator guarantees strong connectivity).
	Next []int
	// ExitSignal, when non-nil, gates the segment's exit: while red no
	// vehicle may cross the intersection (the stop line is the last site).
	// Only the cycle fields are used; Site is implicitly Length-1.
	ExitSignal *Signal
}

// NetworkConfig parameterizes a road network.
type NetworkConfig struct {
	Segments []SegmentSpec
	// Vehicles is the total car count, spread across segments
	// proportionally to their length at construction.
	Vehicles int
	// VMax is the speed limit in sites per step; DefaultVMax if zero.
	VMax int
	// SlowdownP is the NaS randomization probability of rule 2'.
	SlowdownP float64
	// InitialVel is the velocity assigned to every vehicle at t=0.
	InitialVel int
}

// NetVehicle is the public vehicle record of a road network. The ID is
// the persistent road-global identity, assigned once at construction and
// stable across segment hops — the network analogue of the coupled-road
// identity contract that keeps recorded traces teleport-free.
type NetVehicle struct {
	ID  int
	Seg int // current segment
	Pos int // site within the segment, in [0, Length)
	Vel int // sites per step; always equals the last step's displacement
	// Next is the successor segment the vehicle will turn into at the end
	// of Seg, drawn from the vehicle's own forked RNG stream on entry.
	Next int
}

type netSegment struct {
	spec  SegmentSpec
	cells []int // global vehicle index occupying each site, or -1
	vehs  []int // global vehicle indices, ascending by Pos
}

// Network is a set of NaS segments joined at intersections — the urban
// generalization of Road: instead of independent closed rings, traffic
// flows through a directed street graph with per-vehicle turning
// decisions. The system is closed (no vehicle enters or leaves), updates
// are synchronous from the time-n state, and only a segment's leader can
// cross an intersection in a given step (followers are gap-limited by the
// leader's time-n position), so displacement always equals velocity along
// the vehicle's path.
type Network struct {
	cfg  NetworkConfig
	segs []netSegment
	vs   []NetVehicle
	// rnds holds one RNG stream per vehicle, forked from the construction
	// stream: turning and slowdown draws are per-vehicle, so a vehicle's
	// randomness is independent of everyone else's trajectory.
	rnds []*rand.Rand
	step int
}

func (c *NetworkConfig) normalize() error {
	if len(c.Segments) == 0 {
		return fmt.Errorf("ca: network needs at least one segment")
	}
	if c.VMax == 0 {
		c.VMax = DefaultVMax
	}
	if c.VMax < 0 {
		return fmt.Errorf("ca: vmax %d must be non-negative", c.VMax)
	}
	if c.SlowdownP < 0 || c.SlowdownP > 1 {
		return fmt.Errorf("ca: slowdown probability %v outside [0,1]", c.SlowdownP)
	}
	if c.InitialVel < 0 || c.InitialVel > c.VMax {
		return fmt.Errorf("ca: initial velocity %d outside [0,%d]", c.InitialVel, c.VMax)
	}
	capacity := 0
	for i, s := range c.Segments {
		if s.Length < c.VMax+1 {
			return fmt.Errorf("ca: segment %d length %d below vmax+1 = %d", i, s.Length, c.VMax+1)
		}
		if s.Placement == nil {
			return fmt.Errorf("ca: segment %d has no placement", i)
		}
		if len(s.Next) == 0 {
			return fmt.Errorf("ca: segment %d has no successor", i)
		}
		for _, nx := range s.Next {
			if nx < 0 || nx >= len(c.Segments) {
				return fmt.Errorf("ca: segment %d successor %d out of range", i, nx)
			}
		}
		if sig := s.ExitSignal; sig != nil {
			if sig.GreenSteps <= 0 || sig.RedSteps <= 0 {
				return fmt.Errorf("ca: segment %d signal cycle must have positive green (%d) and red (%d)",
					i, sig.GreenSteps, sig.RedSteps)
			}
		}
		capacity += s.Length / 2
	}
	// Half-full segments keep traffic flowing and guarantee the largest-
	// remainder apportionment below can always place every vehicle.
	if c.Vehicles < 0 || c.Vehicles > capacity {
		return fmt.Errorf("ca: %d vehicles exceed the network's half-occupancy capacity %d", c.Vehicles, capacity)
	}
	return nil
}

// NewNetwork builds a road network. rnd seeds the per-vehicle RNG streams
// and may be nil only when the model is fully deterministic (SlowdownP ==
// 0 and every segment has exactly one successor).
func NewNetwork(cfg NetworkConfig, rnd *rand.Rand) (*Network, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	needsRand := cfg.SlowdownP > 0
	for _, s := range cfg.Segments {
		if len(s.Next) > 1 {
			needsRand = true
		}
	}
	if rnd == nil && needsRand {
		return nil, fmt.Errorf("ca: network config requires randomness but rnd is nil")
	}
	n := &Network{cfg: cfg}
	n.segs = make([]netSegment, len(cfg.Segments))
	total := 0
	for i, spec := range cfg.Segments {
		n.segs[i].spec = spec
		n.segs[i].cells = make([]int, spec.Length)
		for j := range n.segs[i].cells {
			n.segs[i].cells[j] = -1
		}
		total += spec.Length
	}
	// Spread vehicles across segments proportionally to length (largest
	// remainder), then evenly within each segment; global IDs follow
	// segment order, then position order — assigned once, here.
	counts := apportion(cfg.Vehicles, cfg.Segments, total)
	n.vs = make([]NetVehicle, 0, cfg.Vehicles)
	n.rnds = make([]*rand.Rand, 0, cfg.Vehicles)
	for si := range n.segs {
		seg := &n.segs[si]
		cnt := counts[si]
		for k := 0; k < cnt; k++ {
			id := len(n.vs)
			var vr *rand.Rand
			if rnd != nil {
				vr = rng.New(rnd.Int63())
			}
			pos := k * seg.spec.Length / cnt
			v := NetVehicle{ID: id, Seg: si, Pos: pos, Vel: cfg.InitialVel}
			v.Next = pickTurn(seg.spec.Next, vr)
			n.vs = append(n.vs, v)
			n.rnds = append(n.rnds, vr)
			seg.vehs = append(seg.vehs, id)
			seg.cells[pos] = id
		}
	}
	return n, nil
}

// apportion splits total vehicles over the segments proportionally to
// length with largest-remainder rounding, capping each segment at half
// its sites so initial placement leaves room to move.
func apportion(vehicles int, segs []SegmentSpec, totalSites int) []int {
	counts := make([]int, len(segs))
	if vehicles == 0 {
		return counts
	}
	rem := make([]float64, len(segs))
	assigned := 0
	for i, s := range segs {
		exact := float64(vehicles) * float64(s.Length) / float64(totalSites)
		counts[i] = int(exact)
		if half := s.Length / 2; counts[i] > half {
			counts[i] = half
		}
		rem[i] = exact - float64(counts[i])
		assigned += counts[i]
	}
	for assigned < vehicles {
		best := -1
		for i := range segs {
			if counts[i] >= segs[i].Length/2 {
				continue
			}
			if best < 0 || rem[i] > rem[best] {
				best = i
			}
		}
		if best < 0 {
			break // cannot happen: normalize capped vehicles at Σ Length/2
		}
		counts[best]++
		rem[best]--
		assigned++
	}
	return counts
}

func pickTurn(next []int, rnd *rand.Rand) int {
	if len(next) == 1 {
		return next[0]
	}
	return next[rnd.Intn(len(next))]
}

// NumSegments reports the segment count.
func (n *Network) NumSegments() int { return len(n.segs) }

// SegmentLen reports the site count of segment s.
func (n *Network) SegmentLen(s int) int { return n.segs[s].spec.Length }

// SegmentVehicles reports how many vehicles currently occupy segment s.
func (n *Network) SegmentVehicles(s int) int { return len(n.segs[s].vehs) }

// VMax reports the network speed limit in sites per step.
func (n *Network) VMax() int { return n.cfg.VMax }

// StepCount reports how many steps have been executed.
func (n *Network) StepCount() int { return n.step }

// TotalVehicles reports the vehicle count (constant: the network is a
// closed system).
func (n *Network) TotalVehicles() int { return len(n.vs) }

// Vehicle returns a copy of the vehicle with global ID i.
func (n *Network) Vehicle(i int) NetVehicle { return n.vs[i] }

// exitOpen reports whether segment s may release its leader across the
// intersection this step.
func (n *Network) exitOpen(s int) bool {
	sig := n.segs[s].spec.ExitSignal
	return sig == nil || !sig.RedAt(n.step)
}

// gap computes the time-n gap of the vehicle at index k of segment s's
// position-sorted list: empty sites ahead within the segment and — for
// the leader, when the exit is open — continuing into the head of the
// vehicle's chosen successor segment.
func (n *Network) gap(s, k int) int {
	seg := &n.segs[s]
	v := &n.vs[seg.vehs[k]]
	if k+1 < len(seg.vehs) {
		return n.vs[seg.vehs[k+1]].Pos - v.Pos - 1
	}
	// Leader: free road to the segment end...
	g := seg.spec.Length - 1 - v.Pos
	if !n.exitOpen(s) || g >= n.cfg.VMax {
		return g
	}
	// ...and, while the light is green, into the successor until its first
	// occupied site (time-n occupancy; residents only move forward, so the
	// sites counted free here stay free of them).
	succ := &n.segs[v.Next]
	for e := 0; g < n.cfg.VMax && e < len(succ.cells); e++ {
		if succ.cells[e] >= 0 {
			break
		}
		g++
	}
	return g
}

// Step advances the network by one time step: the NaS velocity rules from
// the time-n state, then motion with intersection transfer. Merge
// conflicts (two streets releasing their leaders into the same successor
// sites) are resolved in segment-index order; a losing leader is clamped
// to the end of its own segment with its velocity set to the realized
// displacement, preserving the displacement-equals-velocity invariant.
func (n *Network) Step() {
	vmax := n.cfg.VMax
	// Phase 1: velocity update (rules 1, 2, 2') for every vehicle from the
	// time-n state.
	for s := range n.segs {
		seg := &n.segs[s]
		for k, id := range seg.vehs {
			v := &n.vs[id]
			nv := v.Vel + 1
			if nv > vmax {
				nv = vmax
			}
			if g := n.gap(s, k); nv > g {
				nv = g
			}
			if n.cfg.SlowdownP > 0 && nv > 0 && n.rnds[id].Float64() < n.cfg.SlowdownP {
				nv--
			}
			v.Vel = nv
		}
	}
	// Phase 2: motion. Intra-segment moves first; they cannot conflict
	// (parallel NaS update with gap-limited velocities).
	type crossing struct{ id, from int }
	var crossers []crossing
	for s := range n.segs {
		seg := &n.segs[s]
		for i := range seg.cells {
			seg.cells[i] = -1
		}
		kept := seg.vehs[:0]
		for _, id := range seg.vehs {
			v := &n.vs[id]
			p := v.Pos + v.Vel
			if p >= seg.spec.Length {
				crossers = append(crossers, crossing{id: id, from: s})
				continue
			}
			v.Pos = p
			seg.cells[p] = id
			kept = append(kept, id)
		}
		seg.vehs = kept
	}
	// Intersection transfer in segment-index order (at most one crosser
	// per segment — only the leader can reach the boundary).
	for _, c := range crossers {
		v := &n.vs[c.id]
		from := &n.segs[c.from]
		dest := &n.segs[v.Next]
		e := v.Pos + v.Vel - from.spec.Length
		// The gap scan proved sites 0..e free of residents; earlier
		// crossers may have claimed some, so fall back toward the
		// intersection.
		for e >= 0 && dest.cells[e] >= 0 {
			e--
		}
		if e < 0 {
			// Merge lost outright: stay on the home stretch. The segment
			// end is free — the crosser was the leader and its followers
			// were gap-limited behind its time-n position.
			p := from.spec.Length - 1
			v.Vel = p - v.Pos
			v.Pos = p
			from.cells[p] = c.id
			from.vehs = append(from.vehs, c.id)
			continue
		}
		v.Vel = from.spec.Length - v.Pos + e
		v.Pos = e
		v.Seg = v.Next
		dest.cells[e] = c.id
		dest.vehs = append(dest.vehs, c.id)
		// Entering a new street: draw the next turn from the vehicle's own
		// stream.
		v.Next = pickTurn(dest.spec.Next, n.rnds[c.id])
	}
	// Restore per-segment position order; entries landed at the head and
	// the lists are nearly sorted, so insertion sort is cheap.
	for s := range n.segs {
		vehs := n.segs[s].vehs
		for i := 1; i < len(vehs); i++ {
			for j := i; j > 0 && n.vs[vehs[j-1]].Pos > n.vs[vehs[j]].Pos; j-- {
				vehs[j-1], vehs[j] = vehs[j], vehs[j-1]
			}
		}
	}
	n.step++
}

// Positions appends the absolute plane position of every vehicle, in
// persistent global-ID order, to dst — the same identity contract as
// Road.Positions: index i is always the same physical vehicle, no matter
// how many intersections it has crossed.
func (n *Network) Positions(dst []geometry.Vec2) []geometry.Vec2 {
	for i := range n.vs {
		v := &n.vs[i]
		x := float64(v.Pos) * CellLength
		dst = append(dst, n.segs[v.Seg].spec.Placement.Place(x))
	}
	return dst
}

// GridNetworkConfig parameterizes NewGridNetwork.
type GridNetworkConfig struct {
	Vehicles   int
	VMax       int // DefaultVMax if zero
	SlowdownP  float64
	InitialVel int
	// SignalGreen/SignalRed, when both positive, install an exit signal on
	// every street: horizontal streets start green (offset 0), vertical
	// streets start red (offset SignalGreen), so crossing directions
	// alternate like coordinated city lights.
	SignalGreen, SignalRed int
}

// NewGridNetwork lays a Manhattan road grid (geometry.Manhattan) down as
// a CA network: every street becomes one segment whose placement maps the
// CA coordinate linearly onto the street's endpoints, so consecutive
// segments join exactly at their shared intersection and sampled motion
// stays plane-continuous across turns.
func NewGridNetwork(grid *geometry.RoadGrid, cfg GridNetworkConfig, rnd *rand.Rand) (*Network, error) {
	vmax := cfg.VMax
	if vmax == 0 {
		vmax = DefaultVMax
	}
	cells := int(grid.BlockMeters/CellLength + 0.5)
	if cells < vmax+1 {
		cells = vmax + 1
	}
	specs := make([]SegmentSpec, len(grid.Segments))
	for i, gs := range grid.Segments {
		specs[i] = SegmentSpec{
			Length:    cells,
			Placement: segmentLine(gs, cells),
			Next:      grid.Outgoing[gs.To],
		}
		if cfg.SignalGreen > 0 && cfg.SignalRed > 0 {
			sig := &Signal{GreenSteps: cfg.SignalGreen, RedSteps: cfg.SignalRed}
			if gs.A.X == gs.B.X {
				sig.Offset = cfg.SignalGreen // vertical street: phase-shifted
			}
			specs[i].ExitSignal = sig
		}
	}
	return NewNetwork(NetworkConfig{
		Segments:   specs,
		Vehicles:   cfg.Vehicles,
		VMax:       vmax,
		SlowdownP:  cfg.SlowdownP,
		InitialVel: cfg.InitialVel,
	}, rnd)
}

// segmentLine maps CA coordinate x ∈ [0, cells·CellLength] linearly onto
// the street from A to B, so site `cells` lands exactly on the To
// intersection regardless of rounding between block meters and sites.
func segmentLine(gs geometry.GridSegment, cells int) geometry.LanePlacement {
	d := gs.B.Sub(gs.A)
	scale := 1.0 / (float64(cells) * CellLength)
	return geometry.Line{Transform: geometry.Affine{
		A: d.X * scale, C: gs.A.X,
		D: d.Y * scale, F: gs.A.Y,
	}}
}
