package stats

import (
	"math"
	"math/rand"
	"testing"
)

func sinusoid(n int, freq float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Sin(2 * math.Pi * freq * float64(i))
	}
	return out
}

func TestPeriodogramPeakLocation(t *testing.T) {
	// A pure tone at f=0.125 cycles/sample must peak at that bin.
	series := sinusoid(256, 0.125)
	spec := Periodogram(series)
	best := 0
	for i := range spec.Power {
		if spec.Power[i] > spec.Power[best] {
			best = i
		}
	}
	if math.Abs(spec.Freq[best]-0.125) > 0.01 {
		t.Fatalf("peak at f=%v, want 0.125", spec.Freq[best])
	}
}

func TestPeriodogramMeanRemoved(t *testing.T) {
	// A constant series has no power anywhere (DC is removed).
	series := make([]float64, 128)
	for i := range series {
		series[i] = 7.5
	}
	spec := Periodogram(series)
	for i, p := range spec.Power {
		if p > 1e-18 {
			t.Fatalf("bin %d power %v for constant input", i, p)
		}
	}
}

func TestPeriodogramShortSeries(t *testing.T) {
	if s := Periodogram(nil); len(s.Freq) != 0 {
		t.Fatal("empty series should give empty spectrum")
	}
	if s := Periodogram([]float64{1}); len(s.Freq) != 0 {
		t.Fatal("length-1 series should give empty spectrum")
	}
}

func TestPeriodogramFrequenciesAscendPositive(t *testing.T) {
	spec := Periodogram(sinusoid(100, 0.3))
	prev := 0.0
	for _, f := range spec.Freq {
		if f <= prev {
			t.Fatalf("frequencies not strictly increasing: %v after %v", f, prev)
		}
		prev = f
	}
	if spec.Freq[len(spec.Freq)-1] > 0.5+1e-12 {
		t.Fatal("frequencies exceed Nyquist")
	}
}

func TestGPHSlopeWhiteNoiseFlat(t *testing.T) {
	rnd := rand.New(rand.NewSource(4))
	series := make([]float64, 4096)
	for i := range series {
		series[i] = rnd.NormFloat64()
	}
	slope := GPHSlope(Periodogram(series), 0.1)
	if math.Abs(slope) > 0.6 {
		t.Fatalf("white-noise GPH slope = %v, want ≈0", slope)
	}
}

func TestGPHSlopeLRDNegative(t *testing.T) {
	// A 1/f-like series via aggregated random walks resets: cumulative sum
	// of white noise has slope ≈ -2, firmly negative.
	rnd := rand.New(rand.NewSource(5))
	series := make([]float64, 4096)
	acc := 0.0
	for i := range series {
		acc += rnd.NormFloat64()
		series[i] = acc
	}
	slope := GPHSlope(Periodogram(series), 0.1)
	if slope > -1 {
		t.Fatalf("random-walk GPH slope = %v, want strongly negative", slope)
	}
}

func TestGPHSlopeEmptySpectrum(t *testing.T) {
	if got := GPHSlope(Spectrum{}, 0.1); got != 0 {
		t.Fatalf("empty spectrum slope = %v", got)
	}
}

func TestGPHSlopeBadFractionClamped(t *testing.T) {
	spec := Periodogram(sinusoid(128, 0.1))
	if got, gotDefault := GPHSlope(spec, -1), GPHSlope(spec, 0.1); got != gotDefault {
		t.Fatalf("invalid fraction should clamp to default: %v vs %v", got, gotDefault)
	}
}
