package mobility

import (
	"math/rand"
	"testing"

	"cavenet/internal/ca"
	"cavenet/internal/geometry"
)

func testRoad(t *testing.T, vehicles, cells int, seed int64) *ca.Road {
	t.Helper()
	road, err := ca.NewRoad([]ca.LaneSpec{{
		Config: ca.Config{Length: cells, Vehicles: vehicles, SlowdownP: 0.3, Boundary: ca.RingBoundary},
		Placement: geometry.Ring{
			Center:        geometry.Vec2{X: 500, Y: 500},
			Circumference: float64(cells) * ca.CellLength,
		},
	}}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return road
}

// TestRoadSourceMatchesRecordedTrace is the substrate-level differential:
// the streaming road source must serve, at every query time on the
// world's tick grid, exactly the position the materialized recording of
// an identically seeded road interpolates.
func TestRoadSourceMatchesRecordedTrace(t *testing.T) {
	const steps = 40
	trace := RecordRoad(testRoad(t, 30, 400, 7), steps)

	src, err := NewRoadSource(RoadSourceConfig{Road: testRoad(t, 30, 400, 7), Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	if src.NumNodes() != trace.NumNodes() {
		t.Fatalf("source has %d nodes, trace %d", src.NumNodes(), trace.NumNodes())
	}
	// Sweep past the final sample to exercise the clamp as well.
	for tick := 0; tick <= (steps+3)*10; tick++ {
		tsec := float64(tick) * 0.1
		for n := 0; n < src.NumNodes(); n++ {
			if got, want := src.At(n, tsec), trace.At(n, tsec); got != want {
				t.Fatalf("node %d at t=%.1f: streamed %v, recorded %v", n, tsec, got, want)
			}
		}
	}
}

// TestRecordOfSourceRoundTrips asserts Record reproduces the exact rows a
// stream serves: recording the source and re-recording the recording are
// identical traces.
func TestRecordOfSourceRoundTrips(t *testing.T) {
	const steps = 25
	src, err := NewRoadSource(RoadSourceConfig{Road: testRoad(t, 20, 300, 3), Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	a := Record(src)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	b := Record(a)
	if a.NumNodes() != b.NumNodes() || a.NumSamples() != b.NumSamples() {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", a.NumNodes(), a.NumSamples(), b.NumNodes(), b.NumSamples())
	}
	for n := range a.Positions {
		for k := range a.Positions[n] {
			if a.Positions[n][k] != b.Positions[n][k] {
				t.Fatalf("node %d sample %d differs", n, k)
			}
		}
	}
}

// TestStreamObserversFireInOrder pins the hook contract the invariant
// harness relies on: Fill/OnSample fire once per sample, in order, with
// the overlay applied before observation.
func TestStreamObserversFireInOrder(t *testing.T) {
	const steps = 10
	var observed []int
	var overlaid []int
	src, err := NewRoadSource(RoadSourceConfig{
		Road:  testRoad(t, 5, 60, 1),
		Steps: steps,
		Overlay: func(k int, row []geometry.Vec2) {
			overlaid = append(overlaid, k)
			row[0] = geometry.Vec2{X: -1, Y: -1}
		},
		OnSample: func(k int, row []geometry.Vec2) {
			observed = append(observed, k)
			if row[0] != (geometry.Vec2{X: -1, Y: -1}) {
				t.Fatalf("sample %d observed before the overlay was applied", k)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	Record(src)
	if len(observed) != steps+1 || len(overlaid) != steps+1 {
		t.Fatalf("observed %d samples, overlaid %d, want %d", len(observed), len(overlaid), steps+1)
	}
	for i, k := range observed {
		if k != i {
			t.Fatalf("samples observed out of order: %v", observed)
		}
	}
}

// TestStreamRewindPanics pins the forward-only cursor contract: silently
// serving a stale answer would corrupt a simulation, so rewinding must
// fail loudly.
func TestStreamRewindPanics(t *testing.T) {
	src, err := NewRoadSource(RoadSourceConfig{Road: testRoad(t, 5, 60, 1), Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	src.At(0, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("rewinding the cursor did not panic")
		}
	}()
	src.At(0, 2)
}

// TestStreamConfigValidation covers the constructor's rejection paths.
func TestStreamConfigValidation(t *testing.T) {
	fill := func(int, []geometry.Vec2) {}
	cases := []StreamConfig{
		{Nodes: 0, Interval: 1, Samples: 1, Fill: fill},
		{Nodes: 1, Interval: 0, Samples: 1, Fill: fill},
		{Nodes: 1, Interval: 1, Samples: 0, Fill: fill},
		{Nodes: 1, Interval: 1, Samples: 1, Fill: nil},
	}
	for i, cfg := range cases {
		if _, err := NewStream(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}
