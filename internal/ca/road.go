package ca

import (
	"fmt"
	"math/rand"
	"slices"

	"cavenet/internal/geometry"
	"cavenet/internal/rng"
)

// LaneSpec describes one lane of a road: its CA configuration plus its
// placement in the plane (§III-D lane construction).
type LaneSpec struct {
	Config    Config
	Placement geometry.LanePlacement
	// Reversed runs traffic in the decreasing-coordinate direction, used
	// for opposite-direction lanes (Fig. 1's interference discussion).
	Reversed bool
	// Signals are installed on the lane at construction (see Lane.AddSignal).
	Signals []Signal
}

// Road is a set of lanes simulated side by side. Lanes are independent NaS
// automata unless lane-change coupling is enabled (EnableLaneChanges); the
// road exists so that connectivity and interference across lanes can be
// analyzed and so that multi-lane traces can be exported.
type Road struct {
	lanes     []*Lane
	specs     []LaneSpec
	stepCount int

	// Lane-change coupling state (nil/false when disabled).
	coupled bool
	lc      LaneChange
	lcRnd   *rand.Rand
	moves   []lcMove // applyLaneChanges scratch
}

// NewRoad builds a road from lane specs. Each lane receives its own RNG
// stream split from rnd so per-lane randomness is independent.
func NewRoad(specs []LaneSpec, rnd *rand.Rand) (*Road, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("ca: road needs at least one lane")
	}
	r := &Road{specs: make([]LaneSpec, len(specs))}
	copy(r.specs, specs)
	for i, spec := range specs {
		var laneRnd *rand.Rand
		if rnd != nil {
			laneRnd = rng.New(rnd.Int63())
		}
		lane, err := NewLane(spec.Config, laneRnd)
		if err != nil {
			return nil, fmt.Errorf("ca: lane %d: %w", i, err)
		}
		for _, sig := range spec.Signals {
			if err := lane.AddSignal(sig); err != nil {
				return nil, fmt.Errorf("ca: lane %d: %w", i, err)
			}
		}
		r.lanes = append(r.lanes, lane)
	}
	return r, nil
}

// NumLanes reports the number of lanes.
func (r *Road) NumLanes() int { return len(r.lanes) }

// Lane returns the i-th lane.
func (r *Road) Lane(i int) *Lane { return r.lanes[i] }

// Step advances every lane by one time step. With lane-change coupling
// enabled, sideways moves are applied (from the time-n state, in parallel)
// before the per-lane NaS rules.
func (r *Road) Step() {
	if r.coupled {
		r.applyLaneChanges()
	}
	for _, l := range r.lanes {
		l.Step()
	}
	r.stepCount++
}

// StepCount reports how many steps have been executed.
func (r *Road) StepCount() int { return r.stepCount }

// TotalVehicles reports the vehicle count across all lanes.
func (r *Road) TotalVehicles() int {
	n := 0
	for _, l := range r.lanes {
		n += l.NumVehicles()
	}
	return n
}

// Positions appends the absolute plane position of every vehicle on the
// road, in global-ID order, to dst.
//
// The global ID is the *persistent vehicle identity* — lane 0's vehicles
// in their initial-position order, then lane 1's, and so on (Vehicle.ID
// plus the lane's offset; on a coupled road Vehicle.ID is already global).
// Indexing by the lanes' position-sorted slices instead would silently
// reassign identities every time a wrap-around rotates a lane's vehicle
// order — every recorded node would teleport to its neighbor's position
// mid-trace, which is exactly the violation the scenario invariant
// harness caught.
func (r *Road) Positions(dst []geometry.Vec2) []geometry.Vec2 {
	base, total := len(dst), r.TotalVehicles()
	dst = slices.Grow(dst, total)[:base+total]
	for li, l := range r.lanes {
		spec := &r.specs[li]
		circuit := float64(l.Len()) * CellLength
		for k, pos := range l.pos { // slot order: the ID says where it goes
			x := float64(pos) * CellLength
			if spec.Reversed {
				x = circuit - x
			}
			dst[base+int(l.id[k])] = spec.Placement.Place(x)
		}
		if !r.coupled {
			base += l.NumVehicles()
		}
	}
	return dst
}
