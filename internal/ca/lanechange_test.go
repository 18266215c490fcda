package ca

import (
	"math/rand"
	"testing"

	"cavenet/internal/geometry"
)

func coupledRoad(t *testing.T, lanes, length, vehicles int, p float64, seed int64) *Road {
	t.Helper()
	specs := make([]LaneSpec, lanes)
	for i := range specs {
		specs[i] = LaneSpec{
			Config: Config{
				Length:    length,
				Vehicles:  vehicles,
				SlowdownP: 0.3,
				Boundary:  RingBoundary,
				Placement: RandomPlacement,
			},
			Placement: geometry.Line{Transform: geometry.Translate(0, float64(i)*4)},
		}
	}
	rnd := rand.New(rand.NewSource(seed))
	road, err := NewRoad(specs, rnd)
	if err != nil {
		t.Fatal(err)
	}
	if err := road.EnableLaneChanges(LaneChange{P: p}, rand.New(rand.NewSource(seed+1))); err != nil {
		t.Fatal(err)
	}
	return road
}

// TestLaneChangeConservesVehicles steps a congested coupled road and
// asserts the CA stays physical: total vehicle count constant, IDs unique,
// positions distinct per lane, and at least one lane change actually
// happens (the coupling is not a no-op).
func TestLaneChangeConservesVehicles(t *testing.T) {
	road := coupledRoad(t, 3, 100, 25, 0.5, 1)
	total := road.TotalVehicles()
	if total != 75 {
		t.Fatalf("total vehicles = %d", total)
	}
	initialPerLane := make([]int, road.NumLanes())
	for li := range initialPerLane {
		initialPerLane[li] = road.Lane(li).NumVehicles()
	}
	migrated := false
	for step := 0; step < 200; step++ {
		road.Step()
		seen := make(map[int]bool, total)
		count := 0
		for li := 0; li < road.NumLanes(); li++ {
			lane := road.Lane(li)
			count += lane.NumVehicles()
			if lane.NumVehicles() != initialPerLane[li] {
				migrated = true
			}
			prevPos := -1
			for vi := 0; vi < lane.NumVehicles(); vi++ {
				v := lane.Vehicle(vi)
				if seen[v.ID] {
					t.Fatalf("step %d: vehicle %d duplicated", step, v.ID)
				}
				seen[v.ID] = true
				if v.Pos <= prevPos {
					t.Fatalf("step %d lane %d: positions not strictly increasing at %d", step, li, v.Pos)
				}
				prevPos = v.Pos
				if v.Vel < 0 || v.Vel > DefaultVMax {
					t.Fatalf("step %d: vehicle %d velocity %d", step, v.ID, v.Vel)
				}
			}
		}
		if count != total {
			t.Fatalf("step %d: %d vehicles, want %d", step, count, total)
		}
	}
	if !migrated {
		t.Fatal("no lane change happened in 200 congested steps")
	}
}

// TestLaneChangeDeterministic asserts two identically seeded coupled roads
// evolve identically.
func TestLaneChangeDeterministic(t *testing.T) {
	a := coupledRoad(t, 2, 120, 30, 0.4, 7)
	b := coupledRoad(t, 2, 120, 30, 0.4, 7)
	for step := 0; step < 100; step++ {
		a.Step()
		b.Step()
	}
	pa := a.Positions(nil)
	pb := b.Positions(nil)
	if len(pa) != len(pb) {
		t.Fatalf("position counts differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("vehicle %d diverged: %v vs %v", i, pa[i], pb[i])
		}
	}
}

// TestLaneChangePositionsTrackIdentity asserts Positions reports by
// persistent vehicle ID: between consecutive steps no vehicle moves more
// than vmax cells along the lane plus one sideways hop.
func TestLaneChangePositionsTrackIdentity(t *testing.T) {
	road := coupledRoad(t, 2, 150, 30, 0.5, 3)
	prev := road.Positions(nil)
	const maxStep = DefaultVMax*CellLength + 4 + 1e-9
	for step := 0; step < 150; step++ {
		road.Step()
		cur := road.Positions(nil)
		for i := range cur {
			// The lane is a straight Line placement, so wrap-around jumps
			// are expected; skip those (they move backwards by ~L).
			dx := cur[i].X - prev[i].X
			if dx < 0 {
				continue
			}
			if d := cur[i].Dist(prev[i]); d > maxStep {
				t.Fatalf("step %d: vehicle %d jumped %.1f m", step, i, d)
			}
		}
		prev = cur
	}
}

// TestEnableLaneChangesRejectsBadConfigs covers the validation matrix.
func TestEnableLaneChangesRejectsBadConfigs(t *testing.T) {
	mk := func(specs ...LaneSpec) *Road {
		road, err := NewRoad(specs, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		return road
	}
	line := geometry.Line{Transform: geometry.Translate(0, 0)}
	ring := LaneSpec{Config: Config{Length: 50, Vehicles: 5}, Placement: line}

	if err := mk(ring).EnableLaneChanges(LaneChange{P: 0.5}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("single lane accepted")
	}
	if err := mk(ring, ring).EnableLaneChanges(LaneChange{P: 0}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero probability accepted")
	}
	if err := mk(ring, ring).EnableLaneChanges(LaneChange{P: 0.5}, nil); err == nil {
		t.Error("nil RNG accepted")
	}
	open := ring
	open.Config.Boundary = OpenBoundary
	if err := mk(ring, open).EnableLaneChanges(LaneChange{P: 0.5}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("open boundary accepted")
	}
	short := ring
	short.Config.Length = 40
	if err := mk(ring, short).EnableLaneChanges(LaneChange{P: 0.5}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("mismatched lengths accepted")
	}
	rev := ring
	rev.Reversed = true
	if err := mk(ring, rev).EnableLaneChanges(LaneChange{P: 0.5}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("opposing directions accepted")
	}
}

// TestLaneSpecSignalsInstalled asserts NewRoad wires LaneSpec.Signals.
func TestLaneSpecSignalsInstalled(t *testing.T) {
	road, err := NewRoad([]LaneSpec{{
		Config:    Config{Length: 60, Vehicles: 6},
		Placement: geometry.Line{Transform: geometry.Translate(0, 0)},
		Signals:   []Signal{{Site: 10, GreenSteps: 5, RedSteps: 5}},
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(road.Lane(0).signals); got != 1 {
		t.Fatalf("lane has %d signals, want 1", got)
	}
	bad := []LaneSpec{{
		Config:    Config{Length: 60, Vehicles: 6},
		Placement: geometry.Line{Transform: geometry.Translate(0, 0)},
		Signals:   []Signal{{Site: 99, GreenSteps: 5, RedSteps: 5}},
	}}
	if _, err := NewRoad(bad, nil); err == nil {
		t.Fatal("out-of-lane signal accepted")
	}
}
