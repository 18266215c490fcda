package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func whiteNoise(n int, seed int64) []float64 {
	rnd := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rnd.NormFloat64()
	}
	return out
}

func TestAutocorrelationLagZeroIsOne(t *testing.T) {
	acf := Autocorrelation(whiteNoise(500, 1), 10)
	if math.Abs(acf[0]-1) > 1e-12 {
		t.Fatalf("r(0) = %v, want 1", acf[0])
	}
}

func TestAutocorrelationBounded(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 3 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		acf := Autocorrelation(xs, len(xs)-1)
		for _, r := range acf {
			if r > 1+1e-9 || r < -1-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAutocorrelationWhiteNoiseDecays(t *testing.T) {
	acf := Autocorrelation(whiteNoise(5000, 2), 20)
	for k := 1; k <= 20; k++ {
		if math.Abs(acf[k]) > 0.1 {
			t.Fatalf("white noise r(%d) = %v, want ≈0", k, acf[k])
		}
	}
}

func TestAutocorrelationPeriodicSignal(t *testing.T) {
	// Period-4 signal: r(4) should be strongly positive, r(2) negative.
	n := 400
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Sin(2 * math.Pi * float64(i) / 4)
	}
	acf := Autocorrelation(xs, 8)
	if acf[4] < 0.8 {
		t.Fatalf("r(4) = %v, want near 1", acf[4])
	}
	if acf[2] > -0.8 {
		t.Fatalf("r(2) = %v, want near -1", acf[2])
	}
}

func TestAutocorrelationConstantSeries(t *testing.T) {
	xs := []float64{3, 3, 3, 3, 3}
	acf := Autocorrelation(xs, 3)
	if acf[0] != 1 {
		t.Fatalf("constant series r(0) = %v, want 1 by convention", acf[0])
	}
	for k := 1; k < len(acf); k++ {
		if acf[k] != 0 {
			t.Fatalf("constant series r(%d) = %v", k, acf[k])
		}
	}
}

func TestAutocorrelationLagClamping(t *testing.T) {
	acf := Autocorrelation([]float64{1, 2, 3}, 99)
	if len(acf) != 3 {
		t.Fatalf("lag should clamp to n-1; got len %d", len(acf))
	}
	if Autocorrelation(nil, 5) != nil {
		t.Fatal("empty series should give nil")
	}
}

func TestACFSumSRDSmall(t *testing.T) {
	sum := 0.0
	for _, r := range Autocorrelation(whiteNoise(5000, 3), 100)[1:] {
		sum += r
	}
	if math.Abs(sum) > 1.5 {
		t.Fatalf("white-noise ACF partial sum = %v, want small", sum)
	}
}

func TestHurstWhiteNoiseHalf(t *testing.T) {
	h := HurstRS(whiteNoise(8192, 4))
	if h < 0.35 || h > 0.68 {
		t.Fatalf("white-noise Hurst = %v, want ≈0.5", h)
	}
}

func TestHurstRandomWalkHigh(t *testing.T) {
	noise := whiteNoise(8192, 5)
	walk := make([]float64, len(noise))
	acc := 0.0
	for i, x := range noise {
		acc += x
		walk[i] = acc
	}
	h := HurstRS(walk)
	if h < 0.8 {
		t.Fatalf("random-walk Hurst = %v, want near 1", h)
	}
}

func TestHurstShortSeriesDefault(t *testing.T) {
	if h := HurstRS(make([]float64, 10)); h != 0.5 {
		t.Fatalf("short series Hurst = %v, want 0.5 default", h)
	}
}
