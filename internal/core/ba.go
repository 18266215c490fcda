// Package core is CAVENET's Behavioural Analyzer (Fig. 2 of the paper):
// the mobility-model experiments on the NaS cellular automaton behind
// Figs. 4–7 and the Random Waypoint contrast of §IV-B, plus the Fig. 1-b
// interference study (two Specs over one BuildTrace), the shadowing study
// and the first version's straight-line trace. The other block, the
// Communication Protocol Simulator, is internal/scenario: Spec → Grid →
// Result is the one experiment path. Which nodes are connected is
// metrics.Components.
package core

import (
	"errors"
	"fmt"
	"math"

	"cavenet/internal/ca"
	"cavenet/internal/exp"
	"cavenet/internal/mobility"
	"cavenet/internal/rng"
	"cavenet/internal/stats"
)

// FundamentalPoint is one (ρ, J) sample of the fundamental diagram.
type FundamentalPoint struct {
	Density float64
	Flow    float64
	StdDev  float64
	// CI95 is the 95% confidence half-width of Flow across the ensemble.
	CI95 float64
}

// FundamentalConfig parameterizes a Fig. 4 sweep.
type FundamentalConfig struct {
	LaneLength int       // L; the paper uses 400
	SlowdownP  float64   // p
	Densities  []float64 // ρ sweep; nil gives the paper's 0.025..0.5 grid
	Trials     int       // ensemble size; the paper uses 20
	Iterations int       // steps per trial; the paper uses 500
	Warmup     int       // discarded steps before measuring
	Seed       int64
}

// nonNegative rejects a negative step or ensemble count: zero means "the
// default", a negative one would size a slice or silently run nothing.
func nonNegative(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("core: %s %d must not be negative", name, v)
	}
	return nil
}

// Validate reports the counts the diagram cannot run with. The experiment
// checks it before any stepping; a front end calls it to tell a usage
// mistake from a failed run. The same holds for the other two configs.
func (c FundamentalConfig) Validate() error {
	return errors.Join(nonNegative("Trials", c.Trials), nonNegative("Iterations", c.Iterations), nonNegative("Warmup", c.Warmup))
}

func (c *FundamentalConfig) normalize() {
	if c.LaneLength == 0 {
		c.LaneLength = 400
	}
	if c.Densities == nil {
		for rho := 0.025; rho <= 0.5001; rho += 0.025 {
			c.Densities = append(c.Densities, rho)
		}
	}
	if c.Trials == 0 {
		c.Trials = 20
	}
	if c.Iterations == 0 {
		c.Iterations = 500
	}
}

// FundamentalDiagram reproduces Fig. 4: flow J = ρ·v̄ against density ρ,
// each point the ensemble average over Trials runs of Iterations steps.
//
// The density × trial grid executes on the exp worker pool, every trial on
// its own hierarchical rng fork (seed → density → trial), and points are
// reduced in trial order — the result is bit-identical for any worker
// count.
func FundamentalDiagram(cfg FundamentalConfig) ([]FundamentalPoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.normalize()
	src := rng.NewSource(cfg.Seed)
	counts := make([]int, len(cfg.Densities))
	for di, rho := range cfg.Densities {
		n := int(math.Round(rho * float64(cfg.LaneLength)))
		if n < 1 {
			n = 1
		}
		counts[di] = n
	}
	flows, err := exp.Map(exp.Runner{}, len(cfg.Densities)*cfg.Trials, func(j int) (float64, error) {
		di, trial := j/cfg.Trials, j%cfg.Trials
		lane, err := ca.NewLane(ca.Config{
			Length:    cfg.LaneLength,
			Vehicles:  counts[di],
			SlowdownP: cfg.SlowdownP,
			Placement: ca.RandomPlacement,
		}, src.Fork(di).Fork(trial).Stream("fundamental"))
		if err != nil {
			return 0, fmt.Errorf("core: fundamental diagram at rho=%v: %w", cfg.Densities[di], err)
		}
		return ca.FundamentalPoint(lane, cfg.Warmup, cfg.Iterations), nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]FundamentalPoint, 0, len(cfg.Densities))
	for di := range cfg.Densities {
		est := stats.EstimateOf(flows[di*cfg.Trials : (di+1)*cfg.Trials])
		out = append(out, FundamentalPoint{
			Density: float64(counts[di]) / float64(cfg.LaneLength),
			Flow:    est.Mean,
			StdDev:  est.StdDev,
			CI95:    est.CI95,
		})
	}
	return out, nil
}

// SpaceTimeConfig parameterizes one Fig. 5 panel.
type SpaceTimeConfig struct {
	LaneLength int
	Density    float64
	SlowdownP  float64
	Steps      int // the paper's panels show ~100 steps
	Warmup     int
	Seed       int64
}

// Validate reports the counts the panel cannot run with.
func (c SpaceTimeConfig) Validate() error {
	return errors.Join(nonNegative("Steps", c.Steps), nonNegative("Warmup", c.Warmup))
}

// SpaceTimePlot reproduces one panel of Fig. 5: the occupancy rows after
// warmup.
func SpaceTimePlot(cfg SpaceTimeConfig) ([][]int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.LaneLength == 0 {
		cfg.LaneLength = 400
	}
	if cfg.Steps == 0 {
		cfg.Steps = 100
	}
	n := int(math.Round(cfg.Density * float64(cfg.LaneLength)))
	lane, err := ca.NewLane(ca.Config{
		Length:    cfg.LaneLength,
		Vehicles:  n,
		SlowdownP: cfg.SlowdownP,
		Placement: ca.RandomPlacement,
	}, rng.NewSource(cfg.Seed).Stream("spacetime"))
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Warmup; i++ {
		lane.Step()
	}
	return ca.SpaceTime(lane, cfg.Steps), nil
}

// VelocityConfig parameterizes a Fig. 6 realization.
type VelocityConfig struct {
	LaneLength int
	Density    float64
	SlowdownP  float64
	Steps      int // the paper shows 5000
	// Warmup steps are discarded before spectral analysis (Fig. 6 plots the
	// raw realization including the transient, so VelocityRealization
	// ignores this; PeriodogramAnalysis uses it, defaulting to 512).
	Warmup int
	Seed   int64
}

// Validate reports the counts the realization cannot run with.
func (c VelocityConfig) Validate() error {
	return errors.Join(nonNegative("Steps", c.Steps), nonNegative("Warmup", c.Warmup))
}

// VelocityRealization reproduces one curve of Fig. 6: the sample path of
// the average velocity v̄(t).
func VelocityRealization(cfg VelocityConfig) ([]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.LaneLength == 0 {
		cfg.LaneLength = 400
	}
	if cfg.Steps == 0 {
		cfg.Steps = 5000
	}
	n := int(math.Round(cfg.Density * float64(cfg.LaneLength)))
	lane, err := ca.NewLane(ca.Config{
		Length:    cfg.LaneLength,
		Vehicles:  n,
		SlowdownP: cfg.SlowdownP,
		Placement: ca.RandomPlacement,
	}, rng.NewSource(cfg.Seed).Stream("velocity"))
	if err != nil {
		return nil, err
	}
	return ca.RunVelocitySeries(lane, cfg.Steps), nil
}

// SpectrumResult is the output of a Fig. 7 periodogram analysis.
type SpectrumResult struct {
	Spectrum stats.Spectrum
	// GPHSlope is the log-log slope near the origin: ≈0 for SRD, clearly
	// negative for 1/f-like LRD.
	GPHSlope float64
	// Hurst is the rescaled-range exponent of the same series: ≈0.5 for
	// SRD, →1 for LRD.
	Hurst float64
}

// PeriodogramAnalysis reproduces one panel of Fig. 7: simulate v̄(t),
// discard the warm-up transient (§IV-B explains why) and estimate the
// stationary spectrum with its long-range-dependence indicators.
func PeriodogramAnalysis(cfg VelocityConfig) (SpectrumResult, error) {
	if err := cfg.Validate(); err != nil {
		return SpectrumResult{}, err
	}
	warmup := cfg.Warmup
	if warmup == 0 {
		warmup = 512
	}
	run := cfg
	run.Steps = cfg.Steps + warmup
	if run.Steps == warmup {
		run.Steps = 5000 + warmup
	}
	series, err := VelocityRealization(run)
	if err != nil {
		return SpectrumResult{}, err
	}
	series = series[warmup:]
	spec := stats.Periodogram(series)
	return SpectrumResult{
		Spectrum: spec,
		GPHSlope: stats.GPHSlope(spec, 0.1),
		Hurst:    stats.HurstRS(series),
	}, nil
}

// TransientResult summarizes a §IV-B transient-time measurement.
type TransientResult struct {
	Tau    int // steps until stationarity (tolerance-band detector)
	MSER   int // MSER-5 truncation point, for cross-checking
	Series []float64
}

// TransientAnalysis measures the transient duration τ of the deterministic
// (or stochastic) model from a compact-jam start, the worst case for
// convergence.
func TransientAnalysis(cfg VelocityConfig) (TransientResult, error) {
	if err := cfg.Validate(); err != nil {
		return TransientResult{}, err
	}
	if cfg.LaneLength == 0 {
		cfg.LaneLength = 400
	}
	if cfg.Steps == 0 {
		cfg.Steps = 2000
	}
	n := int(math.Round(cfg.Density * float64(cfg.LaneLength)))
	lane, err := ca.NewLane(ca.Config{
		Length:    cfg.LaneLength,
		Vehicles:  n,
		SlowdownP: cfg.SlowdownP,
		Placement: ca.CompactPlacement,
	}, rng.NewSource(cfg.Seed).Stream("transient"))
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
	AreaX    float64
	AreaY    float64
	VMin     float64
	VMax     float64
	Duration float64
	Seed     int64
}

// model fills the defaults the two Random Waypoint experiments share and
// returns the model configuration and the run length in seconds.
func (c RWDecayConfig) model() (mobility.RandomWaypointConfig, float64) {
	if c.Nodes == 0 {
		c.Nodes = 50
	}
	if c.AreaX == 0 {
		c.AreaX = 1000
	}
	if c.AreaY == 0 {
		c.AreaY = 1000
	}
	if c.VMax == 0 {
		c.VMax = 20
	}
	if c.VMin == 0 {
		c.VMin = 0.1
	}
	if c.Duration == 0 {
		c.Duration = 2000
	}
	return mobility.RandomWaypointConfig{
		Nodes: c.Nodes,
		AreaX: c.AreaX,
		AreaY: c.AreaY,
		VMin:  c.VMin,
		VMax:  c.VMax,
	}, c.Duration
}

// RandomWaypointDecay runs the RW model and returns its mean-velocity
// series, exhibiting the velocity-decay transient the paper contrasts with
// the CA's finite-state stationarity (§IV-B). Small VMin makes the decay
// dramatic.
func RandomWaypointDecay(cfg RWDecayConfig) (*mobility.SampledTrace, []float64) {
	m, duration := cfg.model()
	return mobility.RandomWaypoint(m, duration, rng.NewSource(cfg.Seed).Stream("rw"))
}

// RandomWaypointStationary runs the RW model initialized in its stationary
// regime ("perfect simulation", the paper's reference [2]): speeds sampled
// from the 1/v-weighted stationary distribution, nodes starting mid-trip.
// Its velocity series shows no decay, unlike RandomWaypointDecay's.
func RandomWaypointStationary(cfg RWDecayConfig) (*mobility.SampledTrace, []float64) {
	m, duration := cfg.model()
	return mobility.RandomWaypointStationary(m, duration, rng.NewSource(cfg.Seed).Stream("rw-stationary"))
}
