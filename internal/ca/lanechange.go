package ca

import (
	"fmt"
	"math/rand"
	"slices"
)

// LaneChange parameterizes the symmetric lane-change rule that couples the
// parallel lanes of a Road — the multi-lane extension the paper's §III-D
// lane construction anticipates. Before each NaS step a vehicle that cannot
// reach its desired speed on its own lane looks at the adjacent lanes; if
// one offers a strictly larger gap ahead, the sideways cell is free and a
// safety gap behind it is clear, the vehicle changes lanes with
// probability P. Decisions are taken from the time-n state for all
// vehicles (parallel update, like the NaS rules themselves).
type LaneChange struct {
	// P is the probability an advantageous, safe lane change is taken.
	// Must be in (0, 1].
	P float64
	// BackGap is the number of clear sites required behind the target cell
	// on the target lane; defaults to the lane's VMax (a follower at full
	// speed cannot hit the merger).
	BackGap int
}

// EnableLaneChanges couples the road's lanes with the given rule. It
// requires ≥ 2 lanes, all with ring boundaries, identical length and VMax,
// and uniform direction — the configuration where "adjacent lane" is well
// defined. Vehicle IDs are reassigned to be globally unique (lane 0 first)
// and persist across lane changes; Positions reports by that ID. rnd drives
// the stochastic rule and must be non-nil.
func (r *Road) EnableLaneChanges(cfg LaneChange, rnd *rand.Rand) error {
	if len(r.lanes) < 2 {
		return fmt.Errorf("ca: lane changes need >= 2 lanes, have %d", len(r.lanes))
	}
	if cfg.P <= 0 || cfg.P > 1 {
		return fmt.Errorf("ca: lane-change probability %v outside (0,1]", cfg.P)
	}
	if rnd == nil {
		return fmt.Errorf("ca: lane changes require an RNG")
	}
	ref := r.lanes[0].cfg
	for i, l := range r.lanes {
		if l.cfg.Boundary != RingBoundary {
			return fmt.Errorf("ca: lane %d: lane changes require ring boundaries", i)
		}
		if l.cfg.Length != ref.Length || l.cfg.VMax != ref.VMax {
			return fmt.Errorf("ca: lane %d: lane changes require identical length and vmax", i)
		}
		if r.specs[i].Reversed != r.specs[0].Reversed {
			return fmt.Errorf("ca: lane %d: lane changes require uniform direction", i)
		}
	}
	if cfg.BackGap == 0 {
		cfg.BackGap = ref.VMax
	}
	if cfg.BackGap < 0 {
		return fmt.Errorf("ca: negative lane-change back gap %d", cfg.BackGap)
	}
	// Persistent global IDs: lane 0's vehicles first, matching the
	// uncoupled VehicleGlobalID order at construction time.
	id := int32(0)
	for _, l := range r.lanes {
		for vi := range l.id {
			l.id[l.slot(vi)] = id
			id++
		}
	}
	r.coupled = true
	r.lc = cfg
	r.lcRnd = rnd
	return nil
}

// LaneChangesEnabled reports whether the road's lanes are coupled.
func (r *Road) LaneChangesEnabled() bool { return r.coupled }

// lcMove is one decided lane change: the vehicle currently on fromLane at
// site pos moves sideways to toLane.
type lcMove struct {
	fromLane, toLane, pos int
}

// claimedCell marks, in a target lane's cells, a free site already promised
// to a lane changer. Like -1 it reads as free to the occupancy tests; every
// claim is filled by its move before applyLaneChanges returns.
const claimedCell = -2

// applyLaneChanges decides all sideways moves from the current state, then
// applies them. Conflicts (two vehicles targeting the same cell) are
// resolved in favor of the first claimant in (lane, position-index) scan
// order — the order lcRnd is drawn in; occupancy tests use the pre-change
// state, so the rule is conservative but deterministic and collision-free.
func (r *Road) applyLaneChanges() {
	for _, l := range r.lanes {
		l.ruleGaps()
	}
	vmax := int32(r.lanes[0].cfg.VMax)
	r.moves = r.moves[:0]
	for li, l := range r.lanes {
		for vi := range l.pos {
			k := l.slot(vi)
			gap, pos := l.gap[k], int(l.pos[k])
			if gap >= min(l.vel[k]+1, vmax) {
				continue // no incentive: the own lane is not limiting
			}
			best, bestGap := -1, int(gap)
			for _, ti := range [2]int{li - 1, li + 1} {
				if ti < 0 || ti >= len(r.lanes) {
					continue
				}
				t := r.lanes[ti]
				if t.cells[pos] != -1 {
					continue // sideways cell occupied or already claimed
				}
				if !t.clearBehind(pos, r.lc.BackGap) {
					continue
				}
				if g := t.aheadGapAt(pos, int(vmax)+1); g > bestGap {
					best, bestGap = ti, g
				}
			}
			if best < 0 {
				continue
			}
			if r.lcRnd.Float64() >= r.lc.P {
				continue
			}
			r.lanes[best].cells[pos] = claimedCell
			r.moves = append(r.moves, lcMove{fromLane: li, toLane: best, pos: pos})
		}
	}
	for _, m := range r.moves {
		from := r.lanes[m.fromLane]
		r.lanes[m.toLane].placeVehicle(from.takeVehicleAt(int(from.cells[m.pos])))
	}
}

// aheadGapAt reports the number of consecutive free sites ahead of pos on
// the (ring) lane, scanning at most limit sites.
func (l *Lane) aheadGapAt(pos, limit int) int {
	g := 0
	for i := 1; i <= limit; i++ {
		site := pos + i
		if site >= l.cfg.Length {
			site -= l.cfg.Length
		}
		if l.cells[site] >= 0 {
			return g
		}
		g++
	}
	return g
}

// clearBehind reports whether the need sites behind pos on the (ring) lane
// are all free.
func (l *Lane) clearBehind(pos, need int) bool {
	for i := 1; i <= need; i++ {
		site := pos - i
		if site < 0 {
			site += l.cfg.Length
		}
		if l.cells[site] >= 0 {
			return false
		}
	}
	return true
}

// takeVehicleAt removes and returns the vehicle in slot k, re-syncing the
// cell index entries of the slots shifted down.
func (l *Lane) takeVehicleAt(k int) Vehicle {
	v := l.at(k)
	l.cells[v.Pos] = -1
	l.velSum -= v.Vel
	for _, a := range l.arrays() {
		*a = slices.Delete(*a, k, k+1)
	}
	if k < l.head {
		l.head-- // the head slot shifted down
	} else if l.head == len(l.pos) {
		l.head = 0 // the head slot was the last one: its successor is slot 0
	}
	l.resyncCells(k)
	return v
}

// placeVehicle inserts v keeping the position order, re-syncing the cell
// index entries of the slots shifted up. The target cell must be free.
func (l *Lane) placeVehicle(v Vehicle) {
	n := len(l.pos)
	j := 0 // v's logical index: the vehicles behind it
	for j < n && int(l.pos[l.slot(j)]) < v.Pos {
		j++
	}
	// Logical j sits before slot head+j, or — past the physical end — before
	// slot head+j-n of the leading segment, which pushes the head slot up.
	k := l.head + j
	if k > n {
		k -= n
		l.head++
	}
	for _, a := range l.arrays() {
		*a = slices.Insert(*a, k, 0)
	}
	l.id[k], l.pos[k], l.vel[k], l.laps[k] = int32(v.ID), int32(v.Pos), int32(v.Vel), int32(v.Laps)
	l.velSum += v.Vel
	l.resyncCells(k)
}

// resyncCells re-points cells at the slots from k up after a splice, and
// marks the gaps stale: somebody moved.
func (l *Lane) resyncCells(k int) {
	for ; k < len(l.pos); k++ {
		l.cells[l.pos[k]] = int32(k)
	}
	l.gapSigs = -1
}
