// Package stats is CAVENET's statistics toolbox. It provides the estimators
// the paper's Behavioural Analyzer relies on: running moments, the
// autocorrelation function used to define SRD vs. LRD (footnote 2), the
// periodogram of Fig. 7, Hurst-exponent estimators, transient-time
// detection (§IV-B), and a Monte-Carlo ensemble runner (Fig. 4).
package stats

import "math"

// Welford accumulates mean and variance in one pass with the numerically
// stable Welford recurrence.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add feeds one sample.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N reports the sample count.
func (w *Welford) N() int { return w.n }

// Mean reports the sample mean; zero before any sample.
func (w *Welford) Mean() float64 { return w.mean }

// Variance reports the unbiased sample variance; zero with fewer than two
// samples.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev reports the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// tCrit95 holds two-sided 95% Student-t critical values for 1..30 degrees
// of freedom; beyond that the normal 1.96 is within half a percent.
var tCrit95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// CI95 reports the half-width of the 95% confidence interval for the mean
// (Student-t with n-1 degrees of freedom — at the paper's 20 trials the
// normal approximation would understate the interval by ~7%). Zero with
// fewer than two samples.
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	df := w.n - 1
	t := 1.96
	if df <= len(tCrit95) {
		t = tCrit95[df-1]
	}
	return t * w.StdDev() / math.Sqrt(float64(w.n))
}

// Mean returns the arithmetic mean of xs; zero for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs.
func Variance(xs []float64) float64 {
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return w.Variance()
}

// LinearFit returns the least-squares slope and intercept of y against x.
// It is used for the GPH log-periodogram regression and the R/S Hurst
// estimator. Fewer than two points yield (0, mean(y)).
func LinearFit(x, y []float64) (slope, intercept float64) {
	n := len(x)
	if n != len(y) {
		panic("stats: LinearFit length mismatch")
	}
	if n < 2 {
		return 0, Mean(y)
	}
	mx, my := Mean(x), Mean(y)
	num, den := 0.0, 0.0
	for i := 0; i < n; i++ {
		dx := x[i] - mx
		num += dx * (y[i] - my)
		den += dx * dx
	}
	if den == 0 {
		return 0, my
	}
	slope = num / den
	return slope, my - slope*mx
}

// Estimate summarizes the replications of one experiment cell.
type Estimate struct {
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stdDev"`
	// CI95 is the half-width of the 95% confidence interval for the mean
	// (Student-t, n-1 degrees of freedom); the interval is Mean ± CI95.
	CI95 float64 `json:"ci95"`
	N    int     `json:"n"`
}

// EstimateOf reduces a sample slice to an Estimate.
func EstimateOf(xs []float64) Estimate {
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	return Estimate{Mean: w.Mean(), StdDev: w.StdDev(), CI95: w.CI95(), N: w.N()}
}
