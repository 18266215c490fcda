package mobility

import (
	"math"
	"math/rand"
	"testing"

	"cavenet/internal/ca"
	"cavenet/internal/geometry"
)

func lineTrace() *SampledTrace {
	return &SampledTrace{
		Interval: 1,
		Positions: [][]geometry.Vec2{
			{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 20, Y: 0}},
			{{X: 5, Y: 5}, {X: 5, Y: 5}, {X: 5, Y: 5}},
		},
	}
}

func TestSampledTraceAccessors(t *testing.T) {
	tr := lineTrace()
	if tr.NumNodes() != 2 || tr.NumSamples() != 3 {
		t.Fatalf("nodes=%d samples=%d", tr.NumNodes(), tr.NumSamples())
	}
	if tr.Duration() != 2 {
		t.Fatalf("Duration = %v", tr.Duration())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSampledTraceInterpolation(t *testing.T) {
	tr := lineTrace()
	if p := tr.At(0, 0.5); p.X != 5 || p.Y != 0 {
		t.Fatalf("At(0.5) = %v", p)
	}
	if p := tr.At(0, 1.25); math.Abs(p.X-12.5) > 1e-12 {
		t.Fatalf("At(1.25) = %v", p)
	}
}

func TestSampledTraceClamping(t *testing.T) {
	tr := lineTrace()
	if p := tr.At(0, -5); p.X != 0 {
		t.Fatalf("negative time should clamp to first sample: %v", p)
	}
	if p := tr.At(0, 99); p.X != 20 {
		t.Fatalf("beyond-end time should clamp to last sample: %v", p)
	}
}

func TestSampledTraceValidation(t *testing.T) {
	bad := &SampledTrace{Interval: 1, Positions: [][]geometry.Vec2{
		make([]geometry.Vec2, 3),
		make([]geometry.Vec2, 2),
	}}
	if bad.Validate() == nil {
		t.Fatal("ragged trace must fail validation")
	}
	if (&SampledTrace{Interval: 0, Positions: [][]geometry.Vec2{{}}}).Validate() == nil {
		t.Fatal("zero interval must fail validation")
	}
	if (&SampledTrace{Interval: 1}).Validate() == nil {
		t.Fatal("empty trace must fail validation")
	}
}

func TestSampledTraceEmptyNode(t *testing.T) {
	tr := &SampledTrace{Interval: 1, Positions: [][]geometry.Vec2{{}}}
	if p := tr.At(0, 1); p != (geometry.Vec2{}) {
		t.Fatalf("empty node position = %v", p)
	}
	if tr.Duration() != 0 {
		t.Fatal("empty trace duration should be 0")
	}
}

func TestRecordRoad(t *testing.T) {
	road, err := ca.NewRoad([]ca.LaneSpec{{
		Config:    ca.Config{Length: 100, Vehicles: 10, SlowdownP: 0.3},
		Placement: geometry.Ring{Circumference: 750},
	}}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	tr := RecordRoad(road, 20)
	if tr.NumNodes() != 10 {
		t.Fatalf("nodes = %d", tr.NumNodes())
	}
	if tr.NumSamples() != 21 {
		t.Fatalf("samples = %d, want steps+1", tr.NumSamples())
	}
	if tr.Interval != ca.StepSeconds {
		t.Fatalf("interval = %v", tr.Interval)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every recorded position lies on the ring.
	ring := geometry.Ring{Circumference: 750}
	for n := 0; n < tr.NumNodes(); n++ {
		for s := 0; s < tr.NumSamples(); s++ {
			p := tr.Positions[n][s]
			if r := p.Dist(ring.Center); math.Abs(r-ring.Radius()) > 1e-6 {
				t.Fatalf("node %d sample %d off ring", n, s)
			}
		}
	}
}

func TestWarmupRoadAdvances(t *testing.T) {
	road, err := ca.NewRoad([]ca.LaneSpec{{
		Config:    ca.Config{Length: 50, Vehicles: 5},
		Placement: geometry.Line{Transform: geometry.Translate(0, 0)},
	}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	WarmupRoad(road, 30)
	if road.StepCount() != 30 {
		t.Fatalf("StepCount = %d", road.StepCount())
	}
}

func TestRandomWaypointStaysInArea(t *testing.T) {
	cfg := RandomWaypointConfig{
		Nodes: 20, AreaX: 500, AreaY: 300, VMin: 1, VMax: 10,
	}
	tr, _ := RandomWaypoint(cfg, 200, rand.New(rand.NewSource(2)))
	for n := range tr.Positions {
		for _, p := range tr.Positions[n] {
			if p.X < -1e-9 || p.X > 500+1e-9 || p.Y < -1e-9 || p.Y > 300+1e-9 {
				t.Fatalf("node %d left the area: %v", n, p)
			}
		}
	}
}

func TestRandomWaypointVelocityDecay(t *testing.T) {
	// The classical RW pathology (§IV-B of the paper): with VMin ≈ 0 the
	// mean velocity decays because slow nodes' trips last longer. The mean
	// over the last tenth must be clearly below the initial mean.
	cfg := RandomWaypointConfig{
		Nodes: 200, AreaX: 1000, AreaY: 1000, VMin: 0.01, VMax: 20,
	}
	_, vel := RandomWaypoint(cfg, 3000, rand.New(rand.NewSource(3)))
	head := vel[0]
	tail := 0.0
	for _, v := range vel[len(vel)-len(vel)/10:] {
		tail += v
	}
	tail /= float64(len(vel) / 10)
	if tail > head*0.8 {
		t.Fatalf("no velocity decay: head %v, tail %v", head, tail)
	}
}

func TestRandomWaypointTraceShape(t *testing.T) {
	cfg := RandomWaypointConfig{Nodes: 3, AreaX: 100, AreaY: 100, VMin: 1, VMax: 5, Interval: 0.5}
	tr, vel := RandomWaypoint(cfg, 10, rand.New(rand.NewSource(4)))
	if tr.NumNodes() != 3 {
		t.Fatalf("nodes = %d", tr.NumNodes())
	}
	if tr.NumSamples() != 21 {
		t.Fatalf("samples = %d, want duration/interval+1", tr.NumSamples())
	}
	if len(vel) != tr.NumSamples() {
		t.Fatalf("velocity series length %d != samples %d", len(vel), tr.NumSamples())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSampleCountFloatTruncation(t *testing.T) {
	cases := []struct {
		duration, interval float64
		want               int
	}{
		{0.3, 0.1, 4},      // 0.3/0.1 = 2.999…96: truncation dropped a sample
		{10, 0.5, 21},      // 10/0.5 = 20.000…04: must not gain one either
		{10, 1, 11},        // exact division
		{10.4, 1, 11},      // genuine remainder still floors
		{0, 1, 1},          // a zero-length trace is the initial sample
		{3600, 0.1, 36001}, // long trace at a fine interval
	}
	for _, c := range cases {
		if got := SampleCount(c.duration, c.interval); got != c.want {
			t.Errorf("SampleCount(%v, %v) = %d, want %d", c.duration, c.interval, got, c.want)
		}
	}
}

func TestRandomWaypointSampleCountRegression(t *testing.T) {
	// duration/interval one ulp below an integer must not lose the final
	// sample: 0.3/0.1 covers t = 0, 0.1, 0.2, 0.3.
	cfg := RandomWaypointConfig{Nodes: 2, AreaX: 10, AreaY: 10, VMin: 1, VMax: 2, Interval: 0.1}
	tr, vel := RandomWaypoint(cfg, 0.3, rand.New(rand.NewSource(6)))
	if tr.NumSamples() != 4 || len(vel) != 4 {
		t.Fatalf("samples = %d, velocity = %d, want 4", tr.NumSamples(), len(vel))
	}
}

func TestRandomWaypointPause(t *testing.T) {
	// With an enormous pause every node is parked at its first waypoint
	// arrival; positions must eventually stop changing.
	cfg := RandomWaypointConfig{Nodes: 5, AreaX: 50, AreaY: 50, VMin: 5, VMax: 10, Pause: 1e9}
	tr, _ := RandomWaypoint(cfg, 100, rand.New(rand.NewSource(5)))
	for n := range tr.Positions {
		last := tr.Positions[n][len(tr.Positions[n])-1]
		prev := tr.Positions[n][len(tr.Positions[n])-2]
		if last.Dist(prev) > 1e-9 {
			t.Fatalf("node %d still moving during infinite pause", n)
		}
	}
}
