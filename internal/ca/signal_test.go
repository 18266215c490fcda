package ca

import (
	"math/rand"
	"testing"
)

func TestSignalRedAt(t *testing.T) {
	s := Signal{Site: 10, GreenSteps: 3, RedSteps: 2}
	want := []bool{false, false, false, true, true, false, false, false, true, true}
	for step, red := range want {
		if s.RedAt(step) != red {
			t.Fatalf("step %d: RedAt = %v, want %v", step, s.RedAt(step), red)
		}
	}
	shifted := Signal{Site: 10, GreenSteps: 3, RedSteps: 2, Offset: 3}
	if !shifted.RedAt(0) {
		t.Fatal("offset 3 should start red")
	}
}

func TestAddSignalValidation(t *testing.T) {
	lane := newTestLane(t, Config{Length: 50, Vehicles: 5}, 1)
	for _, s := range []Signal{
		{Site: -1, GreenSteps: 1, RedSteps: 1},
		{Site: 50, GreenSteps: 1, RedSteps: 1},
		{Site: 5, GreenSteps: 0, RedSteps: 1},
		{Site: 5, GreenSteps: 1, RedSteps: 0},
	} {
		if err := lane.AddSignal(s); err == nil {
			t.Fatalf("signal %+v should be rejected", s)
		}
	}
	if err := lane.AddSignal(Signal{Site: 5, GreenSteps: 10, RedSteps: 10}); err != nil {
		t.Fatal(err)
	}
	if len(lane.signals) != 1 {
		t.Fatal("signal not installed")
	}
}

func TestRedSignalStopsVehicle(t *testing.T) {
	// A lone vehicle approaching a permanently-red-ish signal must stop
	// one cell before it and wait for green.
	lane := newTestLane(t, Config{Length: 100, Vehicles: 1}, 1)
	if err := lane.AddSignal(Signal{Site: 30, GreenSteps: 1, RedSteps: 1000, Offset: 1}); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 50; s++ {
		lane.Step()
		invariantCheck(t, lane)
	}
	v := lane.Vehicle(0)
	if v.Pos != 29 {
		t.Fatalf("vehicle at %d, want stopped at 29 (one before the signal)", v.Pos)
	}
	if v.Vel != 0 {
		t.Fatalf("vehicle velocity %d at a red light", v.Vel)
	}
}

func TestGreenSignalReleasesQueue(t *testing.T) {
	lane := newTestLane(t, Config{Length: 100, Vehicles: 8, Placement: CompactPlacement}, 1)
	// Red for the first 40 steps, then green forever.
	if err := lane.AddSignal(Signal{Site: 30, GreenSteps: 100000, RedSteps: 40, Offset: 100000}); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 40; s++ {
		lane.Step()
	}
	// During red a queue forms behind the signal.
	if lane.MeanVelocity() != 0 {
		t.Fatalf("queue still moving at end of red: v=%v", lane.MeanVelocity())
	}
	front := lane.Vehicle(lane.NumVehicles() - 1)
	if front.Pos != 29 {
		t.Fatalf("queue head at %d, want 29", front.Pos)
	}
	for s := 0; s < 60; s++ {
		lane.Step()
		invariantCheck(t, lane)
	}
	if lane.MeanVelocity() < 4 {
		t.Fatalf("queue not released after green: v=%v", lane.MeanVelocity())
	}
}

func TestSignalReducesFlow(t *testing.T) {
	// The crosspoint is the bottleneck (§III): a 50% duty-cycle signal must
	// cut the measured flow substantially at mid density.
	run := func(withSignal bool) float64 {
		lane, err := NewLane(Config{Length: 200, Vehicles: 30, SlowdownP: 0.1, Placement: RandomPlacement},
			rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		if withSignal {
			if err := lane.AddSignal(Signal{Site: 100, GreenSteps: 20, RedSteps: 20}); err != nil {
				t.Fatal(err)
			}
		}
		return FundamentalPoint(lane, 200, 400)
	}
	free := run(false)
	signaled := run(true)
	if signaled >= free*0.85 {
		t.Fatalf("signal should throttle flow: %v vs %v", signaled, free)
	}
}

func TestSignalOnOpenLane(t *testing.T) {
	lane, err := NewLane(Config{Length: 60, Vehicles: 1, Boundary: OpenBoundary}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := lane.AddSignal(Signal{Site: 30, GreenSteps: 1, RedSteps: 10000, Offset: 1}); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 30; s++ {
		lane.Step()
	}
	if got := lane.Vehicle(0).Pos; got != 29 {
		t.Fatalf("open-lane vehicle at %d, want 29", got)
	}
}

func TestVehicleOnSignalSiteMayLeave(t *testing.T) {
	// A vehicle already on the site when the light turns red is not
	// trapped.
	lane, err := NewLane(Config{Length: 60, Vehicles: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Place the vehicle exactly on the signal site.
	lane.cells[lane.pos[0]], lane.cells[30] = -1, 0
	lane.pos[0] = 30
	if err := lane.AddSignal(Signal{Site: 30, GreenSteps: 1, RedSteps: 10000, Offset: 1}); err != nil {
		t.Fatal(err)
	}
	lane.Step()
	if lane.Vehicle(0).Pos == 30 {
		t.Fatal("vehicle stuck on the signal site")
	}
}
