package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWelfordMatchesNaive(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v) / 100
		}
		var w Welford
		for _, x := range xs {
			w.Add(x)
		}
		mean := Mean(xs)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(len(xs)-1)
		return math.Abs(w.Mean()-mean) < 1e-9 &&
			math.Abs(w.Variance()-naiveVar) < 1e-9*(1+naiveVar) &&
			w.N() == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordDegenerate(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdDev() != 0 {
		t.Fatal("empty Welford should be all zeros")
	}
	w.Add(5)
	if w.Mean() != 5 || w.Variance() != 0 {
		t.Fatal("single-sample Welford: mean 5, var 0")
	}
}

func TestMeanVarianceHelpers(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) should be 0")
	}
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if got := Variance(xs); math.Abs(got-5.0/3) > 1e-12 {
		t.Fatalf("Variance = %v, want 5/3", got)
	}
}

func TestWelfordCI95(t *testing.T) {
	var w Welford
	for _, x := range []float64{1, 2, 3, 4, 5} {
		w.Add(x)
	}
	// sd = sqrt(2.5), n = 5, t(4) = 2.776.
	want := 2.776 * math.Sqrt(2.5) / math.Sqrt(5)
	if got := w.CI95(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("CI95 = %v, want %v", got, want)
	}
	var one Welford
	one.Add(3)
	if one.CI95() != 0 {
		t.Fatal("CI95 of a single sample must be 0")
	}
}

func TestLinearFitExact(t *testing.T) {
	// y = 3x - 2 recovered exactly.
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x - 2
	}
	slope, intercept := LinearFit(xs, ys)
	if math.Abs(slope-3) > 1e-12 || math.Abs(intercept+2) > 1e-12 {
		t.Fatalf("fit = %v, %v; want 3, -2", slope, intercept)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	slope, intercept := LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3})
	if slope != 0 || intercept != 2 {
		t.Fatalf("vertical data: got %v, %v; want 0, mean(y)=2", slope, intercept)
	}
	slope, intercept = LinearFit([]float64{1}, []float64{5})
	if slope != 0 || intercept != 5 {
		t.Fatalf("single point: got %v, %v", slope, intercept)
	}
}

func TestLinearFitMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	LinearFit([]float64{1, 2}, []float64{1})
}

func TestLinearFitNoisy(t *testing.T) {
	rnd := rand.New(rand.NewSource(6))
	n := 1000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 0.5*xs[i] + 10 + rnd.NormFloat64()
	}
	slope, intercept := LinearFit(xs, ys)
	if math.Abs(slope-0.5) > 0.01 || math.Abs(intercept-10) > 2 {
		t.Fatalf("noisy fit = %v, %v", slope, intercept)
	}
}
