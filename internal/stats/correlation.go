package stats

import "math"

// Autocorrelation returns the normalized sample autocorrelation r(k) of the
// series for lags 0..maxLag (footnote 2 of the paper defines SRD/LRD in
// terms of the summability of r(k)). r(0) is always 1 for a non-constant
// series. A constant series returns all zeros beyond lag 0.
func Autocorrelation(series []float64, maxLag int) []float64 {
	n := len(series)
	if maxLag >= n {
		maxLag = n - 1
	}
	if maxLag < 0 {
		return nil
	}
	out := make([]float64, maxLag+1)
	mean := Mean(series)
	var c0 float64
	for _, x := range series {
		d := x - mean
		c0 += d * d
	}
	if c0 == 0 {
		if len(out) > 0 {
			out[0] = 1
		}
		return out
	}
	for k := 0; k <= maxLag; k++ {
		var ck float64
		for i := 0; i+k < n; i++ {
			ck += (series[i] - mean) * (series[i+k] - mean)
		}
		out[k] = ck / c0
	}
	return out
}

// HurstRS estimates the Hurst exponent by rescaled-range analysis: the
// series is cut into blocks of doubling sizes, R/S is averaged per size, and
// H is the slope of log(R/S) against log(size). H ≈ 0.5 for SRD processes;
// H → 1 signals LRD. Series shorter than 32 samples return 0.5.
func HurstRS(series []float64) float64 {
	n := len(series)
	if n < 32 {
		return 0.5
	}
	var logSize, logRS []float64
	for size := 8; size <= n/4; size *= 2 {
		var acc Welford
		for start := 0; start+size <= n; start += size {
			rs := rescaledRange(series[start : start+size])
			if rs > 0 {
				acc.Add(rs)
			}
		}
		if acc.N() == 0 {
			continue
		}
		logSize = append(logSize, math.Log(float64(size)))
		logRS = append(logRS, math.Log(acc.Mean()))
	}
	if len(logSize) < 2 {
		return 0.5
	}
	h, _ := LinearFit(logSize, logRS)
	return h
}

func rescaledRange(block []float64) float64 {
	mean := Mean(block)
	var cum, lo, hi, ss float64
	for _, x := range block {
		d := x - mean
		cum += d
		if cum < lo {
			lo = cum
		}
		if cum > hi {
			hi = cum
		}
		ss += d * d
	}
	std := math.Sqrt(ss / float64(len(block)))
	if std == 0 {
		return 0
	}
	return (hi - lo) / std
}
