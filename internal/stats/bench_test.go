package stats

import (
	"math/rand"
	"testing"
)

func benchSeries(n int) []float64 {
	rnd := rand.New(rand.NewSource(1))
	out := make([]float64, n)
	for i := range out {
		out[i] = rnd.NormFloat64()
	}
	return out
}

func BenchmarkFFT1024(b *testing.B) {
	src := make([]complex128, 1024)
	for i := range src {
		src[i] = complex(float64(i%17), 0)
	}
	buf := make([]complex128, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		FFT(buf)
	}
}

func BenchmarkPeriodogram8192(b *testing.B) {
	series := benchSeries(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Periodogram(series)
	}
}

func BenchmarkAutocorrelation(b *testing.B) {
	series := benchSeries(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Autocorrelation(series, 100)
	}
}

func BenchmarkHurstRS(b *testing.B) {
	series := benchSeries(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HurstRS(series)
	}
}

func BenchmarkTransientTime(b *testing.B) {
	series := benchSeries(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TransientTime(series, 3)
	}
}
