package cavenet

import (
	"cavenet/internal/core"
	"cavenet/internal/metrics"
	"cavenet/internal/mobility"
	"cavenet/internal/stats"
)

// This file exposes the Behavioural Analyzer half of CAVENET: the traffic
// experiments of §IV-A/§IV-B (Figs. 4–7) and the supporting estimators.

// FundamentalConfig parameterizes a Fig. 4 flow-density sweep.
type FundamentalConfig = core.FundamentalConfig

// FundamentalPoint is one (density, flow) sample with its ensemble spread.
type FundamentalPoint = core.FundamentalPoint

// FundamentalDiagram reproduces Fig. 4: the traffic flow J = ρ·v̄ as a
// function of density, ensemble-averaged over Monte-Carlo trials.
func FundamentalDiagram(cfg FundamentalConfig) ([]FundamentalPoint, error) {
	return core.FundamentalDiagram(cfg)
}

// SpaceTimeConfig parameterizes one Fig. 5 space-time panel.
type SpaceTimeConfig = core.SpaceTimeConfig

// SpaceTime reproduces a Fig. 5 panel: one row per step, -1 for empty
// sites, otherwise the vehicle velocity. Render with plotting of choice or
// the cavenet CLI.
func SpaceTime(cfg SpaceTimeConfig) ([][]int, error) {
	return core.SpaceTimePlot(cfg)
}

// VelocityConfig parameterizes a mean-velocity realization (Figs. 6, 7).
type VelocityConfig = core.VelocityConfig

// VelocitySeries reproduces a Fig. 6 sample path of the average velocity.
func VelocitySeries(cfg VelocityConfig) ([]float64, error) {
	return core.VelocityRealization(cfg)
}

// SpectrumResult bundles a periodogram with its long-range-dependence
// indicators (GPH slope near the origin, R/S Hurst exponent).
type SpectrumResult = core.SpectrumResult

// Periodogram reproduces a Fig. 7 panel: the spectrum of v̄(t) with LRD
// diagnostics. The deterministic model (p=0) yields a flat origin (SRD);
// the stochastic model at low density diverges 1/f-like (LRD).
func Periodogram(cfg VelocityConfig) (SpectrumResult, error) {
	return core.PeriodogramAnalysis(cfg)
}

// TransientResult reports the estimated transient length of a velocity
// series by two independent detectors.
type TransientResult = core.TransientResult

// Transient measures the §IV-B transient time τ from a compact-jam start.
func Transient(cfg VelocityConfig) (TransientResult, error) {
	return core.TransientAnalysis(cfg)
}

// RWDecayConfig parameterizes the Random Waypoint contrast experiment.
type RWDecayConfig = core.RWDecayConfig

// RandomWaypointDecay runs the classical Random Waypoint model and returns
// its mobility trace plus the mean-velocity series, which exhibits the
// velocity-decay problem the paper contrasts with the CA model (§IV-B).
func RandomWaypointDecay(cfg RWDecayConfig) (*mobility.SampledTrace, []float64) {
	return core.RandomWaypointDecay(cfg)
}

// Autocorrelation exposes the SRD/LRD diagnostic of the paper's footnote 2:
// the normalized autocorrelation of a series up to maxLag.
func Autocorrelation(series []float64, maxLag int) []float64 {
	return stats.Autocorrelation(series, maxLag)
}

// Hurst estimates the Hurst exponent of a series by rescaled-range
// analysis (≈0.5 short-range dependent, →1 long-range dependent).
func Hurst(series []float64) float64 { return stats.HurstRS(series) }

// TransientTime estimates how many initial samples of a series belong to
// the transient (see stats.TransientTime).
func TransientTime(series []float64, tol float64) int {
	return stats.TransientTime(series, tol)
}

// RandomWaypointStationary runs the RW model initialized in its stationary
// regime ("perfect simulation", the paper's reference [2]): speeds sampled
// from the 1/v-weighted stationary distribution, nodes starting mid-trip.
// Its velocity series shows no decay, unlike RandomWaypointDecay's.
func RandomWaypointStationary(cfg RWDecayConfig) (*mobility.SampledTrace, []float64) {
	return core.RandomWaypointStationary(cfg)
}

// TopologyStats summarizes link dynamics over a mobility trace — the
// "topology change" metric the paper's §V defers to future work, plus the
// link-duration analysis of its refs [8][9].
type TopologyStats = metrics.TopologyStats

// AnalyzeTopology measures link-change rate, link lifetimes and mean node
// degree of a mobility trace for the given radio range.
func AnalyzeTopology(tr *mobility.SampledTrace, rangeMeters float64) TopologyStats {
	return metrics.AnalyzeTopology(tr, rangeMeters)
}

// ShadowingConfig parameterizes the log-normal-shadowing connectivity sweep
// of the paper's future-work reference [18].
type ShadowingConfig = core.ShadowingConfig

// ShadowingPoint is one (distance, link probability) sample.
type ShadowingPoint = core.ShadowingPoint

// ShadowingConnectivity sweeps link probability against distance under
// log-normal shadowing; compare with DiskConnectivity's two-ray step.
func ShadowingConnectivity(cfg ShadowingConfig) []ShadowingPoint {
	return core.ShadowingConnectivity(cfg)
}

// DiskConnectivity is the two-ray-ground baseline: a unit step at the
// transmission range.
func DiskConnectivity(distances []float64, rangeMeters float64) []ShadowingPoint {
	return core.DiskConnectivity(distances, rangeMeters)
}
