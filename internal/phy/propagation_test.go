package phy

import (
	"math"
	"math/rand"
	"testing"

	"cavenet/internal/geometry"
)

func TestFreeSpaceInverseSquare(t *testing.T) {
	m := FreeSpace{}
	p1 := m.RxPower(1, geometry.Vec2{}, geometry.Vec2{X: 100})
	p2 := m.RxPower(1, geometry.Vec2{}, geometry.Vec2{X: 200})
	if ratio := p1 / p2; math.Abs(ratio-4) > 1e-9 {
		t.Fatalf("doubling distance should quarter power; ratio = %v", ratio)
	}
}

func TestFreeSpaceZeroDistance(t *testing.T) {
	m := FreeSpace{}
	if got := m.RxPower(0.5, geometry.Vec2{X: 3}, geometry.Vec2{X: 3}); got != 0.5 {
		t.Fatalf("zero distance power = %v, want tx power", got)
	}
}

func TestTwoRayGroundFourthPower(t *testing.T) {
	m := TwoRayGround{}
	d0 := m.Crossover() * 2
	p1 := m.RxPower(1, geometry.Vec2{}, geometry.Vec2{X: d0})
	p2 := m.RxPower(1, geometry.Vec2{}, geometry.Vec2{X: 2 * d0})
	if ratio := p1 / p2; math.Abs(ratio-16) > 1e-9 {
		t.Fatalf("beyond crossover, doubling distance should cut power 16×; ratio = %v", ratio)
	}
}

func TestTwoRayGroundFallsBackToFriis(t *testing.T) {
	m := TwoRayGround{}
	fs := FreeSpace{}
	d := m.Crossover() / 2
	got := m.RxPower(1, geometry.Vec2{}, geometry.Vec2{X: d})
	want := fs.RxPower(1, geometry.Vec2{}, geometry.Vec2{X: d})
	if math.Abs(got-want) > 1e-18 {
		t.Fatalf("below crossover: %v, want free space %v", got, want)
	}
}

func TestTwoRayCrossoverMatchesNS2(t *testing.T) {
	// With 1.5 m antennas at 914 MHz the classic ns-2 crossover is ≈86 m.
	m := TwoRayGround{}
	if d := m.Crossover(); math.Abs(d-86.14) > 0.5 {
		t.Fatalf("crossover = %v m, want ≈86.1", d)
	}
}

func TestTwoRayMonotoneDecay(t *testing.T) {
	m := TwoRayGround{}
	prev := math.Inf(1)
	for d := 10.0; d < 1000; d += 5 {
		p := m.RxPower(1, geometry.Vec2{}, geometry.Vec2{X: d})
		if p > prev {
			t.Fatalf("power increased at %v m", d)
		}
		prev = p
	}
}

func TestNS2DefaultThresholds(t *testing.T) {
	// The famous ns-2 numbers: 0.28183815 W transmit power gives
	// RXThresh ≈ 3.652e-10 W at 250 m under two-ray ground.
	m := TwoRayGround{}
	got := PowerAtRange(m, 0.28183815, 250)
	if math.Abs(got-3.652e-10) > 0.01e-10 {
		t.Fatalf("power at 250 m = %e, want ≈3.652e-10", got)
	}
	cs := PowerAtRange(m, 0.28183815, 550)
	if math.Abs(cs-1.559e-11) > 0.01e-11 {
		t.Fatalf("power at 550 m = %e, want ≈1.559e-11", cs)
	}
}

func TestShadowingMeanFollowsPathLoss(t *testing.T) {
	// With many samples the dB-domain mean must match the deterministic
	// path-loss line.
	rnd := rand.New(rand.NewSource(1))
	m := Shadowing{Beta: 2.7, SigmaDB: 6, Rnd: rnd}
	det := Shadowing{Beta: 2.7, SigmaDB: 6} // nil Rnd: no deviation
	var sumDB float64
	const n = 5000
	for i := 0; i < n; i++ {
		p := m.RxPower(1, geometry.Vec2{}, geometry.Vec2{X: 100})
		sumDB += 10 * math.Log10(p)
	}
	meanDB := sumDB / n
	wantDB := 10 * math.Log10(det.RxPower(1, geometry.Vec2{}, geometry.Vec2{X: 100}))
	if math.Abs(meanDB-wantDB) > 0.5 {
		t.Fatalf("shadowing mean %v dB, want %v dB", meanDB, wantDB)
	}
}

func TestShadowingVariability(t *testing.T) {
	rnd := rand.New(rand.NewSource(2))
	m := Shadowing{Beta: 2.7, SigmaDB: 8, Rnd: rnd}
	a := m.RxPower(1, geometry.Vec2{}, geometry.Vec2{X: 100})
	b := m.RxPower(1, geometry.Vec2{}, geometry.Vec2{X: 100})
	if a == b {
		t.Fatal("shadowing should randomize per call")
	}
}

func TestShadowingBelowReferenceClamped(t *testing.T) {
	m := Shadowing{Beta: 2.7, SigmaDB: 4}
	a := m.RxPower(1, geometry.Vec2{}, geometry.Vec2{X: 0.1})
	b := m.RxPower(1, geometry.Vec2{}, geometry.Vec2{X: 1})
	if a != b {
		t.Fatalf("distances below d0 should clamp: %v vs %v", a, b)
	}
}

// legacyFreeSpace and legacyTwoRay are the RxPower bodies as they stood
// before DistancePower, kept verbatim as the reference the resolved-
// constants form must reproduce bit for bit.
func legacyFreeSpace(m FreeSpace, txW float64, from, to geometry.Vec2) float64 {
	d := from.Dist(to)
	if d == 0 {
		return txW
	}
	gt, gr, l, lambda := m.params()
	den := 4 * math.Pi * d
	return txW * gt * gr * lambda * lambda / (den * den * l)
}

func legacyTwoRay(m TwoRayGround, txW float64, from, to geometry.Vec2) float64 {
	d := from.Dist(to)
	ht, hr, fs := m.params()
	if d < m.Crossover() {
		return legacyFreeSpace(fs, txW, from, to)
	}
	gt, gr, l, _ := fs.params()
	return txW * gt * gr * ht * ht * hr * hr / (d * d * d * d * l)
}

// TestAtDistanceBitIdentical pins the PHY rider: AtDistance(txW)(d), and
// RxPower defined through it, equal the pre-change formulas in every bit —
// over random geometry, at d = 0, and on both sides of (and exactly at) the
// two-ray crossover — for default and non-default gains, heights, loss and
// frequency.
func TestAtDistanceBitIdentical(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	free := []FreeSpace{{}, {Gt: 2.5, Gr: 0.7, L: 1.3, FreqHz: 5.9e9}}
	twoRay := []TwoRayGround{{}, {Ht: 2.1, Hr: 0.9, Gt: 1.8, Gr: 3.2, L: 1.7, FreqHz: 2.4e9}}
	check := func(name string, m Propagation, legacy func(txW float64, from, to geometry.Vec2) float64, txW float64, from, to geometry.Vec2) {
		t.Helper()
		want := math.Float64bits(legacy(txW, from, to))
		if got := math.Float64bits(m.RxPower(txW, from, to)); got != want {
			t.Fatalf("%s RxPower(%v, %v, %v) = %x, legacy %x", name, txW, from, to, got, want)
		}
		at := m.(DistancePower).AtDistance(txW)
		if got := math.Float64bits(at(from.Dist(to))); got != want {
			t.Fatalf("%s AtDistance(%v)(%v) = %x, legacy %x", name, txW, from.Dist(to), got, want)
		}
	}
	for _, txW := range []float64{0.28183815, 1, 0.001} {
		for i, m := range free {
			m := m
			legacy := func(txW float64, from, to geometry.Vec2) float64 { return legacyFreeSpace(m, txW, from, to) }
			name := []string{"FreeSpace{}", "FreeSpace{custom}"}[i]
			check(name, m, legacy, txW, geometry.Vec2{X: 3, Y: 4}, geometry.Vec2{X: 3, Y: 4})
			for j := 0; j < 2000; j++ {
				from := geometry.Vec2{X: rnd.Float64() * 3000, Y: rnd.Float64() * 1500}
				to := geometry.Vec2{X: rnd.Float64() * 3000, Y: rnd.Float64() * 1500}
				check(name, m, legacy, txW, from, to)
			}
		}
		for i, m := range twoRay {
			m := m
			legacy := func(txW float64, from, to geometry.Vec2) float64 { return legacyTwoRay(m, txW, from, to) }
			name := []string{"TwoRayGround{}", "TwoRayGround{custom}"}[i]
			check(name, m, legacy, txW, geometry.Vec2{X: -1, Y: 2}, geometry.Vec2{X: -1, Y: 2})
			dc := m.Crossover()
			for _, d := range []float64{math.Nextafter(dc, 0), dc, math.Nextafter(dc, math.Inf(1)), dc / 2, dc * 2} {
				check(name, m, legacy, txW, geometry.Vec2{}, geometry.Vec2{X: d})
			}
			for j := 0; j < 2000; j++ {
				// Distances spread over both branches (dc ≈ 86 m by default).
				from := geometry.Vec2{X: rnd.Float64() * 400, Y: rnd.Float64() * 100}
				to := geometry.Vec2{X: rnd.Float64() * 400, Y: rnd.Float64() * 100}
				check(name, m, legacy, txW, from, to)
			}
		}
	}
}
