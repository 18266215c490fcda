package cavenet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"cavenet/internal/ca"
	"cavenet/internal/core"
	"cavenet/internal/geometry"
	"cavenet/internal/metrics"
	"cavenet/internal/mobility"
	"cavenet/internal/phy"
	"cavenet/internal/rng"
	"cavenet/internal/stats"
)

// This file is the Behavioural Analyzer half of CAVENET: the traffic
// experiments of §IV-A/§IV-B (Figs. 4–7), the Random Waypoint contrast,
// the shadowing study and the supporting estimators. Each study has one
// default value (DefaultFundamental, DefaultVelocity, …): start from it and
// override fields. A zero field means zero, and every study reports a
// config it cannot run as an error before it simulates anything; its
// Validate method reports the same error up front.

// FundamentalConfig parameterizes a Fig. 4 flow-density sweep.
type FundamentalConfig = core.FundamentalConfig

// FundamentalPoint is one (density, flow) sample with its ensemble spread.
type FundamentalPoint = core.FundamentalPoint

// DefaultFundamental is the paper's Fig. 4 sweep: ρ = 0.025 … 0.5 in steps
// of 0.025 on L = 400, 20 trials of 500 steps. Every copy shares its
// Densities: replace the slice rather than writing into it.
var DefaultFundamental = FundamentalConfig{
	LaneLength: 400, Densities: grid(0.025, 0.5001, 0.025), Trials: 20, Iterations: 500,
}

// FundamentalDiagram reproduces Fig. 4: the traffic flow J = ρ·v̄ as a
// function of density, ensemble-averaged over Monte-Carlo trials.
func FundamentalDiagram(cfg FundamentalConfig) ([]FundamentalPoint, error) {
	return core.FundamentalDiagram(cfg)
}

// SpaceTimeConfig parameterizes one Fig. 5 space-time panel.
type SpaceTimeConfig struct {
	LaneLength int     // L, cells
	Density    float64 // ρ; must place at least one vehicle
	SlowdownP  float64 // p
	Steps      int     // rows; the paper's panels show ~100
	Warmup     int     // steps discarded before the first row
	Seed       int64
}

// DefaultSpaceTime is a free-flow panel: ρ = 0.1, p = 0.3, 100 steps on
// L = 400.
var DefaultSpaceTime = SpaceTimeConfig{LaneLength: 400, Density: 0.1, SlowdownP: 0.3, Steps: 100}

// Validate reports the configs the panel cannot run with (see
// VelocityConfig.Validate).
func (c SpaceTimeConfig) Validate() error { return VelocityConfig(c).Validate() }

// SpaceTime reproduces a Fig. 5 panel: one row per step, -1 for empty
// sites, otherwise the vehicle velocity. Render with plotting of choice or
// the cavenet CLI.
func SpaceTime(cfg SpaceTimeConfig) ([][]int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lane, err := VelocityConfig(cfg).lane(ca.RandomPlacement, "spacetime")
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Warmup; i++ {
		lane.Step()
	}
	return ca.SpaceTime(lane, cfg.Steps), nil
}

// VelocityConfig parameterizes one lane's mean velocity v̄(t): the sample
// path of Fig. 6, the spectrum of Fig. 7 and the transient of §IV-B.
type VelocityConfig struct {
	LaneLength int     // L, cells
	Density    float64 // ρ; must place at least one vehicle
	SlowdownP  float64 // p
	Steps      int     // samples of v̄(t) analysed
	// Warmup steps run before Periodogram's Steps and are discarded. Fig. 6
	// plots the raw realization and Transient measures the warm-up itself,
	// so VelocitySeries and Transient ignore it.
	Warmup int
	Seed   int64
}

var (
	// DefaultVelocity is a Fig. 6 realization: ρ = 0.1, p = 0.3, 5000 steps
	// on L = 400.
	DefaultVelocity = VelocityConfig{LaneLength: 400, Density: 0.1, SlowdownP: 0.3, Steps: 5000}
	// DefaultPeriodogram is a Fig. 7 panel near the critical density:
	// ρ = 0.05, p = 0.5, 8192 steps after a 512-step warm-up on L = 400.
	DefaultPeriodogram = VelocityConfig{LaneLength: 400, Density: 0.05, SlowdownP: 0.5, Steps: 8192, Warmup: 512}
	// DefaultTransient is §IV-B's deterministic model (p = 0) at ρ = 0.1:
	// 2000 steps on L = 400.
	DefaultTransient = VelocityConfig{LaneLength: 400, Density: 0.1, Steps: 2000}
)

// Validate reports the configs a lane study cannot run with: a lane
// without a cell, no step, a negative warm-up, or a density that rounds to
// no vehicle or to more vehicles than cells.
func (c VelocityConfig) Validate() error {
	err := errors.Join(atLeast("LaneLength", c.LaneLength, 1), atLeast("Steps", c.Steps, 1), atLeast("Warmup", c.Warmup, 0))
	if n := c.vehicles(); c.LaneLength >= 1 && (n < 1 || n > c.LaneLength) {
		err = errors.Join(err, fmt.Errorf("density %v places %d vehicles on %d cells", c.Density, n, c.LaneLength))
	}
	return err
}

func (c VelocityConfig) vehicles() int { return int(math.Round(c.Density * float64(c.LaneLength))) }

// lane builds the study's lane, its vehicles placed from the named stream
// of its seed.
func (c VelocityConfig) lane(placement ca.Placement, stream string) (*ca.Lane, error) {
	return ca.NewLane(ca.Config{
		Length:    c.LaneLength,
		Vehicles:  c.vehicles(),
		SlowdownP: c.SlowdownP,
		Placement: placement,
	}, rng.NewSource(c.Seed).Stream(stream))
}

// VelocitySeries reproduces a Fig. 6 sample path of the average velocity.
func VelocitySeries(cfg VelocityConfig) ([]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lane, err := cfg.lane(ca.RandomPlacement, "velocity")
	if err != nil {
		return nil, err
	}
	return ca.RunVelocitySeries(lane, cfg.Steps), nil
}

// SpectrumResult bundles a periodogram with its long-range-dependence
// indicators.
type SpectrumResult struct {
	Spectrum stats.Spectrum
	// GPHSlope is the log-log slope near the origin: ≈0 for SRD, clearly
	// negative for 1/f-like LRD.
	GPHSlope float64
	// Hurst is the rescaled-range exponent of the same series: ≈0.5 for
	// SRD, →1 for LRD.
	Hurst float64
}

// Periodogram reproduces a Fig. 7 panel: simulate v̄(t), discard the
// Warmup steps (§IV-B explains why) and estimate the stationary spectrum
// with its long-range-dependence indicators. The deterministic model
// (p=0) yields a flat origin (SRD); the stochastic model at low density
// diverges 1/f-like (LRD).
func Periodogram(cfg VelocityConfig) (SpectrumResult, error) {
	if err := cfg.Validate(); err != nil {
		return SpectrumResult{}, err
	}
	run := cfg
	run.Steps += cfg.Warmup
	series, err := VelocitySeries(run)
	if err != nil {
		return SpectrumResult{}, err
	}
	series = series[cfg.Warmup:]
	spec := stats.Periodogram(series)
	return SpectrumResult{
		Spectrum: spec,
		GPHSlope: stats.GPHSlope(spec, 0.1),
		Hurst:    stats.HurstRS(series),
	}, nil
}

// TransientResult reports the estimated transient length of a velocity
// series by two independent detectors.
type TransientResult struct {
	Tau    int // steps until stationarity (tolerance-band detector)
	MSER   int // MSER-5 truncation point, for cross-checking
	Series []float64
}

// Transient measures the §IV-B transient time τ from a compact-jam start,
// the worst case for convergence.
func Transient(cfg VelocityConfig) (TransientResult, error) {
	if err := cfg.Validate(); err != nil {
		return TransientResult{}, err
	}
	lane, err := cfg.lane(ca.CompactPlacement, "transient")
	if err != nil {
		return TransientResult{}, err
	}
	series := ca.RunVelocitySeries(lane, cfg.Steps)
	return TransientResult{
		Tau:    stats.TransientTime(series, 3),
		MSER:   stats.MSER5(series),
		Series: series,
	}, nil
}

// RWDecayConfig parameterizes the Random Waypoint contrast experiment.
type RWDecayConfig struct {
	Nodes    int
	AreaX    float64 // meters
	AreaY    float64 // meters
	VMin     float64 // m/s; must be > 0, or the model famously never converges
	VMax     float64 // m/s
	Duration float64 // seconds
	Seed     int64
}

// DefaultRWDecay is 100 walkers on a 1 km square at 0.1 … 20 m/s for
// 2000 s; the small VMin makes the decay dramatic.
var DefaultRWDecay = RWDecayConfig{Nodes: 100, AreaX: 1000, AreaY: 1000, VMin: 0.1, VMax: 20, Duration: 2000}

// Validate reports the configs the Random Waypoint model cannot run with.
func (c RWDecayConfig) Validate() error {
	err := errors.Join(atLeast("Nodes", c.Nodes, 1), positive("AreaX", c.AreaX), positive("AreaY", c.AreaY),
		positive("VMin", c.VMin), positive("Duration", c.Duration))
	if !(c.VMax >= c.VMin) {
		err = errors.Join(err, fmt.Errorf("VMax %v must be at least VMin %v", c.VMax, c.VMin))
	}
	return err
}

// RandomWaypointDecay runs the classical Random Waypoint model and returns
// its mobility trace plus the mean-velocity series, which exhibits the
// velocity-decay problem the paper contrasts with the CA model's
// finite-state stationarity (§IV-B).
func RandomWaypointDecay(cfg RWDecayConfig) (*mobility.SampledTrace, []float64, error) {
	return cfg.run(mobility.RandomWaypoint, "rw")
}

// RandomWaypointStationary runs the RW model initialized in its stationary
// regime ("perfect simulation", the paper's reference [2]): speeds sampled
// from the 1/v-weighted stationary distribution, nodes starting mid-trip.
// Its velocity series shows no decay, unlike RandomWaypointDecay's.
func RandomWaypointStationary(cfg RWDecayConfig) (*mobility.SampledTrace, []float64, error) {
	return cfg.run(mobility.RandomWaypointStationary, "rw-stationary")
}

func (c RWDecayConfig) run(model func(mobility.RandomWaypointConfig, float64, *rand.Rand) (*mobility.SampledTrace, []float64), stream string) (*mobility.SampledTrace, []float64, error) {
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	tr, vel := model(mobility.RandomWaypointConfig{
		Nodes: c.Nodes,
		AreaX: c.AreaX,
		AreaY: c.AreaY,
		VMin:  c.VMin,
		VMax:  c.VMax,
	}, c.Duration, rng.NewSource(c.Seed).Stream(stream))
	return tr, vel, nil
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

// TopologyStats summarizes link dynamics over a mobility trace — the
// "topology change" metric the paper's §V defers to future work, plus the
// link-duration analysis of its refs [8][9].
type TopologyStats = metrics.TopologyStats

// AnalyzeTopology measures link-change rate, link lifetimes and mean node
// degree of a mobility trace for the given radio range.
func AnalyzeTopology(tr *mobility.SampledTrace, rangeMeters float64) TopologyStats {
	return metrics.AnalyzeTopology(tr, rangeMeters)
}

// ShadowingConfig parameterizes the connectivity-vs-distance sweep under
// log-normal shadowing, the radio environment the paper's §V plans to
// study ("different radio propagation modes and environments [18], [19]"):
// reference [18] analyzes ad-hoc connectivity under it, where the crisp
// 250 m disk of two-ray ground becomes a probabilistic connection.
type ShadowingConfig struct {
	Beta float64 // path-loss exponent
	// SigmaDB is the shadowing deviation in dB, positive: the σ = 0 curve,
	// the deterministic path-loss disk, is DiskConnectivity.
	SigmaDB float64
	// RangeMeters calibrates the receive threshold: the deterministic
	// path-loss power at this distance.
	RangeMeters float64
	Distances   []float64 // meters
	Trials      int       // draws per distance
	Seed        int64
}

// DefaultShadowing probes 50 … 500 m in 25 m steps, 2000 draws each, at
// β = 2.7 and σ = 4 dB, calibrated to Table I's 250 m range. Every copy
// shares its Distances: replace the slice rather than writing into it.
var DefaultShadowing = ShadowingConfig{Beta: 2.7, SigmaDB: 4, RangeMeters: 250, Distances: grid(50, 500, 25), Trials: 2000}

// Validate reports the configs the sweep cannot run with.
func (c ShadowingConfig) Validate() error {
	err := errors.Join(positive("Beta", c.Beta), positive("SigmaDB", c.SigmaDB), positive("RangeMeters", c.RangeMeters),
		atLeast("Trials", c.Trials, 1))
	if len(c.Distances) == 0 {
		err = errors.Join(err, errors.New("no Distances to probe"))
	}
	return err
}

// ShadowingPoint is one (distance, link probability) sample.
type ShadowingPoint struct {
	DistanceM float64
	LinkProb  float64
}

// ShadowingConnectivity sweeps link probability against distance under
// log-normal shadowing. Under two-ray ground the curve is a step at the
// transmission range (DiskConnectivity); under shadowing it is a smooth
// sigmoid crossing 0.5 at the calibrated range — links beyond 250 m become
// possible and links inside it become unreliable, the effect ref [18]
// studies.
func ShadowingConnectivity(cfg ShadowingConfig) ([]ShadowingPoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	const txPower = phy.TxPowerW
	det := phy.Shadowing{Beta: cfg.Beta, SigmaDB: cfg.SigmaDB} // mean path loss only
	thresh := det.RxPower(txPower, geometry.Vec2{}, geometry.Vec2{X: cfg.RangeMeters})
	model := phy.Shadowing{Beta: cfg.Beta, SigmaDB: cfg.SigmaDB, Rnd: rng.NewSource(cfg.Seed).Stream("shadowing")}
	out := make([]ShadowingPoint, 0, len(cfg.Distances))
	for _, d := range cfg.Distances {
		ok := 0
		for t := 0; t < cfg.Trials; t++ {
			if model.RxPower(txPower, geometry.Vec2{}, geometry.Vec2{X: d}) >= thresh {
				ok++
			}
		}
		out = append(out, ShadowingPoint{DistanceM: d, LinkProb: float64(ok) / float64(cfg.Trials)})
	}
	return out, nil
}

// DiskConnectivity is the two-ray-ground baseline for the same sweep: a
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

// grid returns from, from+step, … while ≤ last, as a running sum: the
// pinned outputs depend on its last bits. It has no spare capacity, so an
// append to a default's copy never writes into the default.
func grid(from, last, step float64) []float64 {
	var xs []float64
	for x := from; x <= last; x += step {
		xs = append(xs, x)
	}
	return slices.Clip(xs)
}

// atLeast reports a count below its minimum.
func atLeast(name string, v, min int) error {
	if v < min {
		return fmt.Errorf("%s %d must be at least %d", name, v, min)
	}
	return nil
}

// positive reports a quantity that is not a finite positive number.
func positive(name string, v float64) error {
	if !(v > 0) || math.IsInf(v, 1) {
		return fmt.Errorf("%s %v must be a finite positive number", name, v)
	}
	return nil
}
