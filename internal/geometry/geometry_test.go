package geometry

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func vecAlmostEq(a, b Vec2) bool { return almostEq(a.X, b.X) && almostEq(a.Y, b.Y) }

func TestVecOps(t *testing.T) {
	v := Vec2{3, 4}
	w := Vec2{1, -2}
	if got := v.Add(w); !vecAlmostEq(got, Vec2{4, 2}) {
		t.Fatalf("Add = %v", got)
	}
	if got := v.Sub(w); !vecAlmostEq(got, Vec2{2, 6}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := v.Scale(2); !vecAlmostEq(got, Vec2{6, 8}) {
		t.Fatalf("Scale = %v", got)
	}
	if got := v.Dist(Vec2{0, 0}); !almostEq(got, 5) {
		t.Fatalf("Dist = %v", got)
	}
	if got := v.String(); got != "(3.00, 4.00)" {
		t.Fatalf("String = %q", got)
	}
}

func TestAffineIdentity(t *testing.T) {
	p := Vec2{2, 3}
	if got := (Affine{A: 1, E: 1}).Apply(p); !vecAlmostEq(got, p) {
		t.Fatalf("Identity.Apply = %v", got)
	}
}

func TestAffineConstructors(t *testing.T) {
	if got := Translate(5, -1).Apply(Vec2{1, 1}); !vecAlmostEq(got, Vec2{6, 0}) {
		t.Fatalf("Translate = %v", got)
	}
}

// TestPaperThirdLane reproduces the paper's §III-D example: the third lane
// runs vertically via the transform [[0 1 XS/2][1 0 Δ][0 0 1]].
func TestPaperThirdLane(t *testing.T) {
	const xs = 1000.0
	const delta = 0.5
	a := Affine{A: 0, B: 1, C: xs / 2, D: 1, E: 0, F: delta}
	got := a.Apply(Vec2{X: 100, Y: 0})
	want := Vec2{X: xs / 2, Y: 100 + delta}
	if !vecAlmostEq(got, want) {
		t.Fatalf("third lane transform: got %v, want %v", got, want)
	}
}

func TestLinePlacement(t *testing.T) {
	l := Line{Transform: Translate(100, 50)}
	if got := l.Place(20); !vecAlmostEq(got, Vec2{120, 50}) {
		t.Fatalf("Line.Place = %v", got)
	}
}

func TestRingPlacement(t *testing.T) {
	r := Ring{Center: Vec2{0, 0}, Circumference: 2 * math.Pi * 100}
	if !almostEq(r.Radius(), 100) {
		t.Fatalf("Radius = %v", r.Radius())
	}
	if got := r.Place(0); !vecAlmostEq(got, Vec2{100, 0}) {
		t.Fatalf("Place(0) = %v", got)
	}
	quarter := r.Circumference / 4
	if got := r.Place(quarter); !vecAlmostEq(got, Vec2{0, 100}) {
		t.Fatalf("Place(C/4) = %v", got)
	}
	// Wrap-around continuity: positions at x and x+C coincide.
	a := r.Place(123.4)
	b := r.Place(123.4 + r.Circumference)
	if !vecAlmostEq(a, b) {
		t.Fatalf("ring placement not periodic: %v vs %v", a, b)
	}
}

func TestRingPlacementStaysOnCircle(t *testing.T) {
	r := Ring{Center: Vec2{10, 20}, Circumference: 3000}
	f := func(raw int32) bool {
		x := float64(raw) / 100 // within ±2.1e7 m, sane trig range
		p := r.Place(x)
		return math.Abs(p.Dist(r.Center)-r.Radius()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
