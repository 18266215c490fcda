package stats

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all-ones.
	x := make([]complex128, 8)
	x[0] = 1
	FFT(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTConstant(t *testing.T) {
	// FFT of a constant is an impulse at DC of magnitude n.
	n := 16
	x := make([]complex128, n)
	for i := range x {
		x[i] = 2
	}
	FFT(x)
	if cmplx.Abs(x[0]-complex(float64(2*n), 0)) > 1e-9 {
		t.Fatalf("DC bin = %v, want %d", x[0], 2*n)
	}
	for i := 1; i < n; i++ {
		if cmplx.Abs(x[i]) > 1e-9 {
			t.Fatalf("bin %d = %v, want 0", i, x[i])
		}
	}
}

func TestFFTSinusoidPeak(t *testing.T) {
	n := 64
	k := 5
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Sin(2*math.Pi*float64(k*i)/float64(n)), 0)
	}
	FFT(x)
	// Energy concentrates in bins k and n-k.
	for i := 0; i < n; i++ {
		mag := cmplx.Abs(x[i])
		if i == k || i == n-k {
			if mag < float64(n)/2-1e-9 {
				t.Fatalf("bin %d magnitude %v too small", i, mag)
			}
		} else if mag > 1e-9 {
			t.Fatalf("leakage at bin %d: %v", i, mag)
		}
	}
}

func TestFFTParseval(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	n := 128
	x := make([]complex128, n)
	timeEnergy := 0.0
	for i := range x {
		v := rnd.NormFloat64()
		x[i] = complex(v, 0)
		timeEnergy += v * v
	}
	FFT(x)
	freqEnergy := 0.0
	for _, v := range x {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	freqEnergy /= float64(n)
	if math.Abs(timeEnergy-freqEnergy) > 1e-6*timeEnergy {
		t.Fatalf("Parseval violated: %v vs %v", timeEnergy, freqEnergy)
	}
}

// ifft is the inverse transform, FFT's round-trip reference.
func ifft(x []complex128) {
	n := len(x)
	if n == 0 {
		return
	}
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	FFT(x)
	inv := complex(1/float64(n), 0)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) * inv
	}
}

func TestFFTIFFTRoundTrip(t *testing.T) {
	f := func(seed int64, szRaw uint8) bool {
		n := 1 << (1 + szRaw%8) // 2..256
		rnd := rand.New(rand.NewSource(seed))
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rnd.NormFloat64(), rnd.NormFloat64())
			orig[i] = x[i]
		}
		FFT(x)
		ifft(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTLinearity(t *testing.T) {
	n := 32
	rnd := rand.New(rand.NewSource(2))
	a := make([]complex128, n)
	b := make([]complex128, n)
	sum := make([]complex128, n)
	for i := 0; i < n; i++ {
		a[i] = complex(rnd.NormFloat64(), 0)
		b[i] = complex(rnd.NormFloat64(), 0)
		sum[i] = 2*a[i] + 3*b[i]
	}
	FFT(a)
	FFT(b)
	FFT(sum)
	for i := 0; i < n; i++ {
		want := 2*a[i] + 3*b[i]
		if cmplx.Abs(sum[i]-want) > 1e-9 {
			t.Fatalf("linearity violated at bin %d", i)
		}
	}
}

func TestFFTNonPow2Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FFT of non-power-of-two length must panic")
		}
	}()
	FFT(make([]complex128, 6))
}

func TestFFTEmptyAndOne(t *testing.T) {
	FFT(nil) // must not panic
	x := []complex128{42}
	FFT(x)
	if x[0] != 42 {
		t.Fatal("length-1 FFT is identity")
	}
	ifft(nil)
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Fatalf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}
