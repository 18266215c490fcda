package stats

import "math"

func hannCoeffs(n int) []float64 {
	c := make([]float64, n)
	if n == 1 {
		c[0] = 1
		return c
	}
	for i := range c {
		c[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n-1)))
	}
	return c
}

// Spectrum is a one-sided power spectral density estimate.
type Spectrum struct {
	// Freq holds the frequency of each bin in cycles per sample, strictly
	// positive and increasing (the zero-frequency bin is dropped: the
	// paper's Fig. 7 plots log f, and the DC bin only encodes the mean).
	Freq []float64
	// Power holds the PSD estimate for each bin.
	Power []float64
}

// Periodogram estimates the PSD of series under a Hann taper, which trades
// main-lobe width for sidelobe suppression (what a hunt for 1/f divergence
// wants). The series mean is removed first; the series is zero-padded to a
// power of two.
func Periodogram(series []float64) Spectrum {
	n := len(series)
	if n < 2 {
		return Spectrum{}
	}
	mean := Mean(series)
	coeffs := hannCoeffs(n)
	wss := 0.0
	for _, c := range coeffs {
		wss += c * c
	}
	padded := NextPow2(n)
	buf := make([]complex128, padded)
	for i, x := range series {
		buf[i] = complex((x-mean)*coeffs[i], 0)
	}
	FFT(buf)
	bins := padded / 2
	out := Spectrum{
		Freq:  make([]float64, bins),
		Power: make([]float64, bins),
	}
	norm := 1 / wss
	for k := 1; k <= bins; k++ {
		re := real(buf[k])
		im := imag(buf[k])
		out.Freq[k-1] = float64(k) / float64(padded)
		out.Power[k-1] = (re*re + im*im) * norm
	}
	return out
}

// GPHSlope runs the Geweke–Porter-Hudak log-periodogram regression over the
// lowest fraction of frequency bins and returns the slope of
// log P(f) against log f. A slope near 0 indicates short-range dependence
// (the paper's Fig. 7-a); a clearly negative slope indicates 1/f-like
// long-range dependence (Fig. 7-b). fraction is clamped to (0, 1].
func GPHSlope(s Spectrum, fraction float64) float64 {
	if len(s.Freq) == 0 {
		return 0
	}
	if fraction <= 0 || fraction > 1 {
		fraction = 0.1
	}
	m := int(float64(len(s.Freq)) * fraction)
	if m < 4 {
		m = min(4, len(s.Freq))
	}
	logf := make([]float64, 0, m)
	logp := make([]float64, 0, m)
	for i := 0; i < m; i++ {
		if s.Power[i] <= 0 {
			continue
		}
		logf = append(logf, math.Log(s.Freq[i]))
		logp = append(logp, math.Log(s.Power[i]))
	}
	slope, _ := LinearFit(logf, logp)
	return slope
}
