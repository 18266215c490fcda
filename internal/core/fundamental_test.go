package core_test

import (
	"math"
	"testing"

	"cavenet"
	"cavenet/internal/core"
)

func TestFundamentalDiagramShape(t *testing.T) {
	// Reduced Fig. 4: deterministic curve must rise to ≈vmax/(vmax+1) near
	// ρ=1/(vmax+1) and fall beyond; stochastic curve must lie below it.
	cfg := cavenet.DefaultFundamental
	cfg.LaneLength, cfg.SlowdownP, cfg.Trials, cfg.Iterations, cfg.Warmup, cfg.Seed = 200, 0, 5, 200, 200, 1
	det, err := core.FundamentalDiagram(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SlowdownP = 0.5
	sto, err := core.FundamentalDiagram(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(det) != len(sto) || len(det) != 20 {
		t.Fatalf("default density grid size = %d, want 20", len(det))
	}
	peak, peakRho := 0.0, 0.0
	for _, p := range det {
		if p.Flow > peak {
			peak = p.Flow
			peakRho = p.Density
		}
	}
	if math.Abs(peak-5.0/6) > 0.05 {
		t.Fatalf("deterministic peak flow = %v, want ≈0.833", peak)
	}
	if math.Abs(peakRho-1.0/6) > 0.06 {
		t.Fatalf("deterministic peak density = %v, want ≈0.167", peakRho)
	}
	// p=0.5 lies strictly below p=0 in the congested branch and at peak.
	for i := range det {
		if det[i].Density > 0.1 && sto[i].Flow >= det[i].Flow {
			t.Fatalf("stochastic flow %v >= deterministic %v at ρ=%v",
				sto[i].Flow, det[i].Flow, det[i].Density)
		}
	}
	// Low-density branch: J grows ≈ linearly with ρ for the deterministic
	// model (free flow at vmax).
	if math.Abs(det[0].Flow-det[0].Density*5) > 0.01 {
		t.Fatalf("free-flow branch J=%v at ρ=%v", det[0].Flow, det[0].Density)
	}
}

func TestFundamentalDiagramError(t *testing.T) {
	if _, err := core.FundamentalDiagram(core.FundamentalConfig{
		LaneLength: 10, Densities: []float64{2.0}, Trials: 1, Iterations: 1,
	}); err == nil {
		t.Fatal("density > 1 must error (vehicles exceed sites)")
	}
}

// TestNegativeCountsAreErrors: a negative ensemble or step count used to
// reach make() and panic (or, for Iterations and Warmup, run nothing and
// report success), and a zero one used to mean a default; the diagram now
// refuses both before building a lane. The other studies' rows are in the
// root package's TestStudyConfigsRejected.
func TestNegativeCountsAreErrors(t *testing.T) {
	cases := map[string]func(*core.FundamentalConfig){
		"lane length":  func(c *core.FundamentalConfig) { c.LaneLength = 0 },
		"no densities": func(c *core.FundamentalConfig) { c.Densities = nil },
		"trials":       func(c *core.FundamentalConfig) { c.Trials = -1 },
		"zero trials":  func(c *core.FundamentalConfig) { c.Trials = 0 },
		"iters":        func(c *core.FundamentalConfig) { c.Iterations = -5 },
		"zero iters":   func(c *core.FundamentalConfig) { c.Iterations = 0 },
		"warmup":       func(c *core.FundamentalConfig) { c.Warmup = -1 },
	}
	for name, mutate := range cases {
		cfg := core.FundamentalConfig{LaneLength: 10, Densities: []float64{0.5}, Trials: 1, Iterations: 1}
		mutate(&cfg)
		if _, err := core.FundamentalDiagram(cfg); err == nil {
			t.Errorf("%s: %+v accepted", name, cfg)
		}
	}
}
