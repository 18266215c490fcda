package ca

import (
	"math"
	"math/rand"
	"testing"
)

func TestRunVelocitySeriesLength(t *testing.T) {
	lane := newTestLane(t, Config{Length: 100, Vehicles: 10}, 1)
	s := RunVelocitySeries(lane, 50)
	if len(s) != 50 {
		t.Fatalf("series length = %d", len(s))
	}
	if lane.step != 50 {
		t.Fatalf("StepCount = %d", lane.step)
	}
}

func TestSpaceTimeShape(t *testing.T) {
	lane := newTestLane(t, Config{Length: 80, Vehicles: 20, SlowdownP: 0.3}, 2)
	rows := SpaceTime(lane, 30)
	if len(rows) != 30 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if len(row) != 80 {
			t.Fatalf("row width = %d", len(row))
		}
		n := 0
		for _, c := range row {
			if c >= 0 {
				n++
			}
		}
		if n != 20 {
			t.Fatalf("row vehicle count = %d, want 20 (conservation)", n)
		}
	}
}

// TestJamWaveMovesBackward checks the defining feature of Fig. 5-b: in the
// congested stochastic regime, jam clusters drift against the driving
// direction. The centroid of stopped vehicles is tracked on the circle and
// its cumulative angular drift over a window must be negative.
func TestJamWaveMovesBackward(t *testing.T) {
	const length = 200
	lane := newTestLane(t, Config{
		Length: length, Vehicles: 100, SlowdownP: 0.3, Placement: RandomPlacement,
	}, 3) // ρ=0.5, p=0.3: deep congestion, persistent jams
	for s := 0; s < 100; s++ {
		lane.Step()
	}
	centroid := func(row []int) (float64, bool) {
		var sx, sy float64
		any := false
		for pos, v := range row {
			if v == 0 {
				theta := 2 * math.Pi * float64(pos) / length
				sx += math.Cos(theta)
				sy += math.Sin(theta)
				any = true
			}
		}
		return math.Atan2(sy, sx), any
	}
	rows := SpaceTime(lane, 120)
	drift := 0.0
	prev, ok := centroid(rows[0])
	if !ok {
		t.Fatal("no stopped vehicles in deep congestion; test ineffective")
	}
	for _, row := range rows[1:] {
		cur, any := centroid(row)
		if !any {
			continue
		}
		d := cur - prev
		for d > math.Pi {
			d -= 2 * math.Pi
		}
		for d <= -math.Pi {
			d += 2 * math.Pi
		}
		drift += d
		prev = cur
	}
	if drift >= 0 {
		t.Fatalf("jam centroid net drift = %v rad; expected backward (negative)", drift)
	}
}

func TestFundamentalPointFreeFlow(t *testing.T) {
	lane := newTestLane(t, Config{Length: 100, Vehicles: 5}, 1)
	j := FundamentalPoint(lane, 50, 100)
	want := 0.05 * 5.0 // ρ·vmax
	if math.Abs(j-want) > 1e-9 {
		t.Fatalf("free-flow J = %v, want %v", j, want)
	}
}

func TestFundamentalPointZeroMeasure(t *testing.T) {
	lane := newTestLane(t, Config{Length: 100, Vehicles: 5}, 1)
	if j := FundamentalPoint(lane, 10, 0); j != 0 {
		t.Fatalf("J with zero measurement window = %v", j)
	}
}

// TestDeterministicFundamentalPeak pins the known analytical result for the
// deterministic NaS model: J peaks at ρ=1/(vmax+1) with J=vmax/(vmax+1).
func TestDeterministicFundamentalPeak(t *testing.T) {
	const length = 300
	best, bestRho := 0.0, 0.0
	for _, n := range []int{30, 40, 50, 60, 75, 100, 150} {
		lane, err := NewLane(Config{Length: length, Vehicles: n, Placement: RandomPlacement},
			rand.New(rand.NewSource(int64(n))))
		if err != nil {
			t.Fatal(err)
		}
		j := FundamentalPoint(lane, 300, 200)
		if j > best {
			best = j
			bestRho = float64(n) / length
		}
	}
	wantPeak := float64(DefaultVMax) / float64(DefaultVMax+1) // 5/6 ≈ 0.833
	if math.Abs(best-wantPeak) > 0.02 {
		t.Fatalf("peak flow = %v, want ≈%v", best, wantPeak)
	}
	wantRho := 1.0 / float64(DefaultVMax+1) // ≈0.167
	if math.Abs(bestRho-wantRho) > 0.05 {
		t.Fatalf("peak density = %v, want ≈%v", bestRho, wantRho)
	}
}
