package core

import (
	"cavenet/internal/geometry"
	"cavenet/internal/phy"
	"cavenet/internal/rng"
)

// This file implements the radio-environment study the paper's §V plans
// ("we also plan to extend our work for different radio propagation modes
// and environments [18], [19]"): reference [18] analyzes ad-hoc network
// connectivity under the log-normal shadowing model, where the crisp
// 250 m disk of two-ray ground becomes a probabilistic connection.

// ShadowingConfig parameterizes the connectivity-vs-distance sweep.
type ShadowingConfig struct {
	// Beta is the path-loss exponent (default 2.7).
	Beta float64
	// SigmaDB is the shadowing deviation in dB; 0 means the default 4.
	// The σ = 0 curve, the deterministic path-loss disk, is
	// DiskConnectivity.
	SigmaDB float64
	// RangeMeters calibrates the receive threshold: the deterministic
	// path-loss power at this distance (default 250, Table I).
	RangeMeters float64
	// Distances to probe; nil gives 50..500 m in 25 m steps.
	Distances []float64
	// Trials per distance (default 2000).
	Trials int
	Seed   int64
}

func (c *ShadowingConfig) normalize() {
	if c.Beta == 0 {
		c.Beta = 2.7
	}
	if c.SigmaDB == 0 {
		c.SigmaDB = 4
	}
	if c.RangeMeters == 0 {
		c.RangeMeters = 250
	}
	if c.Distances == nil {
		for d := 50.0; d <= 500; d += 25 {
			c.Distances = append(c.Distances, d)
		}
	}
	if c.Trials == 0 {
		c.Trials = 2000
	}
}

// ShadowingPoint is one (distance, link probability) sample.
type ShadowingPoint struct {
	DistanceM float64
	LinkProb  float64
}

// ShadowingConnectivity sweeps link probability against distance under
// log-normal shadowing. Under two-ray ground the curve is a step at the
// transmission range; under shadowing it is a smooth sigmoid crossing 0.5
// at the calibrated range — links beyond 250 m become possible and links
// inside it become unreliable, the effect ref [18] studies.
func ShadowingConnectivity(cfg ShadowingConfig) []ShadowingPoint {
	cfg.normalize()
	const txPower = phy.TxPowerW
	rnd := rng.NewSource(cfg.Seed).Stream("shadowing")
	det := phy.Shadowing{Beta: cfg.Beta, SigmaDB: cfg.SigmaDB, Rnd: nil} // mean path loss only
	thresh := det.RxPower(txPower, geometry.Vec2{}, geometry.Vec2{X: cfg.RangeMeters})
	model := phy.Shadowing{Beta: cfg.Beta, SigmaDB: cfg.SigmaDB, Rnd: rnd}
	out := make([]ShadowingPoint, 0, len(cfg.Distances))
	for _, d := range cfg.Distances {
		ok := 0
		for t := 0; t < cfg.Trials; t++ {
			p := model.RxPower(txPower, geometry.Vec2{}, geometry.Vec2{X: d})
			if p >= thresh {
				ok++
			}
		}
		out = append(out, ShadowingPoint{
			DistanceM: d,
			LinkProb:  float64(ok) / float64(cfg.Trials),
		})
	}
	return out
}

// DiskConnectivity gives the two-ray-ground baseline for the same sweep: a
// unit step at the transmission range.
func DiskConnectivity(distances []float64, rangeMeters float64) []ShadowingPoint {
	out := make([]ShadowingPoint, 0, len(distances))
	for _, d := range distances {
		p := 0.0
		if d <= rangeMeters {
			p = 1
		}
		out = append(out, ShadowingPoint{DistanceM: d, LinkProb: p})
	}
	return out
}
