// Package core is the Fig. 4 ensemble of CAVENET's Behavioural Analyzer
// (Fig. 2 of the paper): the fundamental diagram, a density × trial grid
// of NaS lanes on the exp worker pool. The analyzer's other studies live
// in the root package, the public API, which re-exports this one; it stays
// a package of its own because the benchmark (bench/workloads.go, the
// ba_fundamental workload) compiles against it.
package core

import (
	"errors"
	"fmt"
	"math"

	"cavenet/internal/ca"
	"cavenet/internal/exp"
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

// FundamentalConfig parameterizes a Fig. 4 sweep. Every field means what
// it says, zero included; the paper's sweep is cavenet.DefaultFundamental.
type FundamentalConfig struct {
	LaneLength int       // L; the paper uses 400
	SlowdownP  float64   // p
	Densities  []float64 // ρ sweep; each ρ places at least one vehicle
	Trials     int       // ensemble size; the paper uses 20
	Iterations int       // steps per trial; the paper uses 500
	Warmup     int       // discarded steps before measuring
	Seed       int64
}

// Validate reports the configs the diagram cannot run with. The experiment
// checks it before any stepping; a front end calls it to tell a usage
// mistake from a failed run.
func (c FundamentalConfig) Validate() error {
	err := errors.Join(atLeast("LaneLength", c.LaneLength, 1), atLeast("Trials", c.Trials, 1),
		atLeast("Iterations", c.Iterations, 1), atLeast("Warmup", c.Warmup, 0))
	if len(c.Densities) == 0 {
		err = errors.Join(err, errors.New("core: no Densities to sweep"))
	}
	return err
}

func atLeast(name string, v, min int) error {
	if v < min {
		return fmt.Errorf("core: %s %d must be at least %d", name, v, min)
	}
	return nil
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
