package metrics

import (
	"math"
	"math/rand"
	"testing"

	"cavenet/internal/geometry"
	"cavenet/internal/mobility"
)

func TestAnalyzeTopologyStaticPair(t *testing.T) {
	tr := &mobility.SampledTrace{
		Interval: 1,
		Positions: [][]geometry.Vec2{
			{{X: 0}, {X: 0}, {X: 0}, {X: 0}},
			{{X: 100}, {X: 100}, {X: 100}, {X: 100}},
		},
	}
	st := AnalyzeTopology(tr, 250)
	if st.LinkChanges != 0 {
		t.Fatalf("static pair changes = %d", st.LinkChanges)
	}
	if st.MeanDegree != 1 {
		t.Fatalf("degree = %v, want 1", st.MeanDegree)
	}
	if len(st.LinkUpDurations) != 0 {
		t.Fatal("uncompleted episode must be censored")
	}
}

func TestAnalyzeTopologyBreakAndReform(t *testing.T) {
	// Node 1 walks out of range at t=2..3 and returns at t=4.
	tr := &mobility.SampledTrace{
		Interval: 1,
		Positions: [][]geometry.Vec2{
			{{X: 0}, {X: 0}, {X: 0}, {X: 0}, {X: 0}, {X: 0}},
			{{X: 100}, {X: 100}, {X: 400}, {X: 400}, {X: 100}, {X: 100}},
		},
	}
	st := AnalyzeTopology(tr, 250)
	// Transitions: down at t=2, up at t=4 → 2 changes.
	if st.LinkChanges != 2 {
		t.Fatalf("changes = %d, want 2", st.LinkChanges)
	}
	if len(st.LinkUpDurations) != 1 || st.LinkUpDurations[0] != 2 {
		t.Fatalf("durations = %v, want one 2 s episode", st.LinkUpDurations)
	}
	if math.Abs(st.ChangeRate-2.0/5) > 1e-12 {
		t.Fatalf("rate = %v", st.ChangeRate)
	}
}

func TestAnalyzeTopologyDegenerate(t *testing.T) {
	if st := AnalyzeTopology(&mobility.SampledTrace{Interval: 1}, 250); st.LinkChanges != 0 {
		t.Fatal("empty trace should be all zeros")
	}
	one := &mobility.SampledTrace{Interval: 1, Positions: [][]geometry.Vec2{{{X: 0}}}}
	if st := AnalyzeTopology(one, 250); st.MeanDegree != 0 {
		t.Fatal("single node has no links")
	}
}

func TestAnalyzeTopologyCAvsRW(t *testing.T) {
	// The CA circuit's links should live much longer than Random
	// Waypoint's at comparable scales — the quantitative version of the
	// paper's point that VANET mobility differs fundamentally from RW.
	caScenario := func() *mobility.SampledTrace {
		// Vehicles on a ring move with similar velocities: relative
		// positions change slowly.
		tr := &mobility.SampledTrace{Interval: 1}
		n, samples := 10, 120
		tr.Positions = make([][]geometry.Vec2, n)
		for i := 0; i < n; i++ {
			tr.Positions[i] = make([]geometry.Vec2, samples)
			for s := 0; s < samples; s++ {
				// All move at 30 m/s with small per-node offsets.
				x := float64(i)*200 + float64(s)*30 + float64(i%3)*float64(s)*0.5
				tr.Positions[i][s] = geometry.Vec2{X: x}
			}
		}
		return tr
	}()
	rwScenario, _ := mobility.RandomWaypoint(mobility.RandomWaypointConfig{
		Nodes: 10, AreaX: 2000, AreaY: 2000, VMin: 10, VMax: 30,
	}, 119, testRand())
	caStats := AnalyzeTopology(caScenario, 250)
	rwStats := AnalyzeTopology(rwScenario, 250)
	if caStats.ChangeRate >= rwStats.ChangeRate {
		t.Fatalf("platoon link-change rate %v should be below RW %v",
			caStats.ChangeRate, rwStats.ChangeRate)
	}
}

func testRand() *rand.Rand { return rand.New(rand.NewSource(77)) }

func TestAnalyzeTopologyDegenerateRange(t *testing.T) {
	tr := &mobility.SampledTrace{
		Interval: 1,
		Positions: [][]geometry.Vec2{
			{{X: 0}, {X: 0}, {X: 0}},
			{{X: 0}, {X: 0}, {X: 0}},
		},
	}
	// Range 0: the coincident pair stays linked, nothing panics.
	st := AnalyzeTopology(tr, 0)
	if st.LinkChanges != 0 || st.MeanDegree != 1 {
		t.Fatalf("range 0: changes=%d degree=%v, want 0 changes, degree 1", st.LinkChanges, st.MeanDegree)
	}
	// Negative range: no links at all.
	st = AnalyzeTopology(tr, -5)
	if st.MeanDegree != 0 || st.LinkChanges != 0 {
		t.Fatalf("negative range: %+v, want no links", st)
	}
}

// TestAnalyzeTopologyCellEdgeAtRange is TestComponentsCellEdgeAtRange's
// pair in a trace: linked (the distance rounds to exactly the range) from
// the lower index, whose unpadded query disc stops one cell short.
func TestAnalyzeTopologyCellEdgeAtRange(t *testing.T) {
	tr := &mobility.SampledTrace{
		Interval: 1,
		Positions: [][]geometry.Vec2{
			{{X: 250}, {X: 250}},
			{{X: -1e-15}, {X: -1e-15}},
		},
	}
	if st := AnalyzeTopology(tr, 250); st.MeanDegree != 1 {
		t.Fatalf("degree = %v, want 1: the pair at range is linked", st.MeanDegree)
	}
}
