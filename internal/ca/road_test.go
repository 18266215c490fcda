package ca

import (
	"math"
	"math/rand"
	"testing"

	"cavenet/internal/geometry"
)

func TestRoadValidation(t *testing.T) {
	if _, err := NewRoad(nil, nil); err == nil {
		t.Fatal("empty road must error")
	}
	if _, err := NewRoad([]LaneSpec{{Config: Config{Length: -1}}}, nil); err == nil {
		t.Fatal("bad lane config must propagate")
	}
}

func twoLaneRoad(t *testing.T) *Road {
	t.Helper()
	specs := []LaneSpec{
		{
			Config:    Config{Length: 100, Vehicles: 10, SlowdownP: 0.3},
			Placement: geometry.Line{Transform: geometry.Translate(0, 0)},
		},
		{
			Config:    Config{Length: 100, Vehicles: 8, SlowdownP: 0.3},
			Placement: geometry.Line{Transform: geometry.Translate(0, 10)},
			Reversed:  true,
		},
	}
	road, err := NewRoad(specs, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	return road
}

func TestRoadBasics(t *testing.T) {
	road := twoLaneRoad(t)
	if road.NumLanes() != 2 {
		t.Fatalf("NumLanes = %d", road.NumLanes())
	}
	if road.TotalVehicles() != 18 {
		t.Fatalf("TotalVehicles = %d", road.TotalVehicles())
	}
	road.Step()
	if road.StepCount() != 1 {
		t.Fatalf("StepCount = %d", road.StepCount())
	}
	if road.Lane(0).step != 1 || road.Lane(1).step != 1 {
		t.Fatal("Step must advance every lane")
	}
}

func TestRoadGlobalIDs(t *testing.T) {
	road := twoLaneRoad(t)
	if got := road.VehicleGlobalID(0, 3); got != 3 {
		t.Fatalf("lane0 vehicle3 global = %d", got)
	}
	if got := road.VehicleGlobalID(1, 0); got != 10 {
		t.Fatalf("lane1 vehicle0 global = %d, want 10", got)
	}
}

func TestRoadPositions(t *testing.T) {
	road := twoLaneRoad(t)
	ps := road.Positions(nil)
	if len(ps) != 18 {
		t.Fatalf("Positions len = %d", len(ps))
	}
	// Lane 0 vehicles sit at y=0, lane 1 at y=10.
	for i := 0; i < 10; i++ {
		if ps[i].Y != 0 {
			t.Fatalf("lane0 vehicle at %v", ps[i])
		}
	}
	for i := 10; i < 18; i++ {
		if ps[i].Y != 10 {
			t.Fatalf("lane1 vehicle at %v", ps[i])
		}
	}
}

func TestReversedLaneRunsBackward(t *testing.T) {
	// One vehicle per lane, deterministic; the reversed lane's x coordinate
	// must decrease (modulo wraps).
	specs := []LaneSpec{
		{
			Config:    Config{Length: 1000, Vehicles: 1},
			Placement: geometry.Line{Transform: geometry.Translate(0, 0)},
		},
		{
			Config:    Config{Length: 1000, Vehicles: 1},
			Placement: geometry.Line{Transform: geometry.Translate(0, 5)},
			Reversed:  true,
		},
	}
	road, err := NewRoad(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := road.Positions(nil)
	for s := 0; s < 10; s++ {
		road.Step()
	}
	after := road.Positions(nil)
	if after[0].X <= before[0].X {
		t.Fatalf("forward lane should advance: %v -> %v", before[0], after[0])
	}
	if after[1].X >= before[1].X {
		t.Fatalf("reversed lane should regress: %v -> %v", before[1], after[1])
	}
}

func TestRoadMeanVelocityWeighted(t *testing.T) {
	road := twoLaneRoad(t)
	for s := 0; s < 50; s++ {
		road.Step()
	}
	want := (road.Lane(0).MeanVelocity()*10 + road.Lane(1).MeanVelocity()*8) / 18
	if got := road.MeanVelocity(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MeanVelocity = %v, want %v", got, want)
	}
}

func TestRoadRingPlacementStaysOnCircle(t *testing.T) {
	circumference := 3000.0
	ring := geometry.Ring{Center: geometry.Vec2{X: 1500, Y: 1500}, Circumference: circumference}
	road, err := NewRoad([]LaneSpec{{
		Config:    Config{Length: 400, Vehicles: 30, SlowdownP: 0.3},
		Placement: ring,
	}}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 100; s++ {
		road.Step()
		for _, p := range road.Positions(nil) {
			if r := p.Dist(ring.Center); math.Abs(r-ring.Radius()) > 1e-6 {
				t.Fatalf("vehicle off circle: radius %v vs %v", r, ring.Radius())
			}
		}
	}
}

// VehicleGlobalID maps (lane, vehicle) to a road-wide vehicle index:
// vehicles of lane 0 first, then lane 1, and so on. For a lane-change
// coupled road the mapping is only valid at construction time — vehicles
// migrate between lanes afterwards; use Vehicle.ID, which EnableLaneChanges
// makes globally unique and persistent.
func (r *Road) VehicleGlobalID(lane, vehicle int) int {
	id := 0
	for i := 0; i < lane; i++ {
		id += r.lanes[i].NumVehicles()
	}
	return id + vehicle
}

// MeanVelocity reports the vehicle-weighted mean velocity across lanes, in
// sites per step.
func (r *Road) MeanVelocity() float64 {
	sum := 0.0
	n := 0
	for _, l := range r.lanes {
		sum += l.MeanVelocity() * float64(l.NumVehicles())
		n += l.NumVehicles()
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
