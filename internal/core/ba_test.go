package core

import (
	"math"
	"testing"
)

func TestFundamentalDiagramShape(t *testing.T) {
	// Reduced Fig. 4: deterministic curve must rise to ≈vmax/(vmax+1) near
	// ρ=1/(vmax+1) and fall beyond; stochastic curve must lie below it.
	det, err := FundamentalDiagram(FundamentalConfig{
		LaneLength: 200, SlowdownP: 0, Trials: 5, Iterations: 200, Warmup: 200, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sto, err := FundamentalDiagram(FundamentalConfig{
		LaneLength: 200, SlowdownP: 0.5, Trials: 5, Iterations: 200, Warmup: 200, Seed: 1,
	})
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
	if _, err := FundamentalDiagram(FundamentalConfig{
		LaneLength: 10, Densities: []float64{2.0}, Trials: 1, Iterations: 1,
	}); err == nil {
		t.Fatal("density > 1 must error (vehicles exceed sites)")
	}
}

// TestNegativeCountsAreErrors: a negative step or ensemble count used to
// reach make() and panic (or, for Iterations and Warmup, run nothing and
// report success); every experiment now refuses it before building a lane.
func TestNegativeCountsAreErrors(t *testing.T) {
	cases := map[string]func() error{
		"fundamental trials": func() error { _, err := FundamentalDiagram(FundamentalConfig{Trials: -1}); return err },
		"fundamental iters":  func() error { _, err := FundamentalDiagram(FundamentalConfig{Iterations: -5}); return err },
		"fundamental warmup": func() error { _, err := FundamentalDiagram(FundamentalConfig{Warmup: -1}); return err },
		"spacetime steps":    func() error { _, err := SpaceTimePlot(SpaceTimeConfig{Density: 0.1, Steps: -1}); return err },
		"spacetime warmup":   func() error { _, err := SpaceTimePlot(SpaceTimeConfig{Density: 0.1, Warmup: -1}); return err },
		"velocity steps":     func() error { _, err := VelocityRealization(VelocityConfig{Density: 0.1, Steps: -5}); return err },
		"periodogram steps":  func() error { _, err := PeriodogramAnalysis(VelocityConfig{Density: 0.1, Steps: -9000}); return err },
		"periodogram warmup": func() error { _, err := PeriodogramAnalysis(VelocityConfig{Density: 0.1, Warmup: -1}); return err },
		"transient steps":    func() error { _, err := TransientAnalysis(VelocityConfig{Density: 0.1, Steps: -1}); return err },
	}
	for name, run := range cases {
		if err := run(); err == nil {
			t.Errorf("%s: negative count accepted", name)
		}
	}
}

func TestSpaceTimePlotPanels(t *testing.T) {
	// The four Fig. 5 panels, reduced.
	panels := []SpaceTimeConfig{
		{LaneLength: 800, Density: 0.0625, SlowdownP: 0.3, Steps: 50, Seed: 1},
		{LaneLength: 400, Density: 0.5, SlowdownP: 0.3, Steps: 50, Seed: 2},
		{LaneLength: 400, Density: 0.1, SlowdownP: 0, Steps: 50, Seed: 3},
		{LaneLength: 400, Density: 0.5, SlowdownP: 0, Steps: 50, Seed: 4},
	}
	for i, cfg := range panels {
		rows, err := SpaceTimePlot(cfg)
		if err != nil {
			t.Fatalf("panel %d: %v", i, err)
		}
		if len(rows) != 50 || len(rows[0]) != cfg.LaneLength {
			t.Fatalf("panel %d shape = %dx%d", i, len(rows), len(rows[0]))
		}
		want := int(math.Round(cfg.Density * float64(cfg.LaneLength)))
		for _, row := range rows {
			n := 0
			for _, c := range row {
				if c >= 0 {
					n++
				}
			}
			if n != want {
				t.Fatalf("panel %d conservation broken: %d vs %d", i, n, want)
			}
		}
	}
}

func TestVelocityRealizationLevels(t *testing.T) {
	// Fig. 6: ρ=0.1 fluctuates near vmax-p; ρ=0.5 is far slower.
	low, err := VelocityRealization(VelocityConfig{Density: 0.1, SlowdownP: 0.3, Steps: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	high, err := VelocityRealization(VelocityConfig{Density: 0.5, SlowdownP: 0.3, Steps: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs[len(xs)/2:] {
			s += x
		}
		return s / float64(len(xs)/2)
	}
	ml, mh := mean(low), mean(high)
	if ml < 4 || ml > 5 {
		t.Fatalf("low-density velocity = %v, want ≈ vmax-p = 4.7", ml)
	}
	if mh > 1.5 {
		t.Fatalf("high-density velocity = %v, want deeply congested", mh)
	}
}

func TestPeriodogramAnalysisSRDvsLRD(t *testing.T) {
	// Fig. 7: the deterministic model is SRD — after the transient its
	// stationary v̄(t) carries no diverging low-frequency power — while the
	// stochastic model near the critical density is 1/f-like (LRD).
	det, err := PeriodogramAnalysis(VelocityConfig{Density: 0.1, SlowdownP: 0, Steps: 4096, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	sto, err := PeriodogramAnalysis(VelocityConfig{Density: 0.1, SlowdownP: 0.5, Steps: 4096, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if det.GPHSlope < -0.3 || det.GPHSlope > 0.3 {
		t.Fatalf("deterministic slope = %v, want ≈0 (SRD)", det.GPHSlope)
	}
	if det.Hurst < 0.4 || det.Hurst > 0.6 {
		t.Fatalf("deterministic Hurst = %v, want ≈0.5", det.Hurst)
	}
	if sto.GPHSlope > -0.8 {
		t.Fatalf("stochastic slope = %v, want strongly negative (1/f)", sto.GPHSlope)
	}
	if sto.Hurst <= 0.8 {
		t.Fatalf("stochastic Hurst = %v, want near 1 (LRD)", sto.Hurst)
	}
	if len(sto.Spectrum.Freq) == 0 {
		t.Fatal("empty spectrum")
	}
}

func TestTransientAnalysis(t *testing.T) {
	res, err := TransientAnalysis(VelocityConfig{Density: 0.1, SlowdownP: 0, Steps: 1000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1000 {
		t.Fatalf("series length = %d", len(res.Series))
	}
	// From a compact jam at ρ=0.1 the deterministic model reaches free flow
	// quickly but not instantly.
	if res.Tau <= 0 || res.Tau > 500 {
		t.Fatalf("tau = %d, want a short positive transient", res.Tau)
	}
	if res.MSER < 0 || res.MSER > 500 {
		t.Fatalf("MSER = %d", res.MSER)
	}
	// After the transient the series must be at vmax.
	if v := res.Series[len(res.Series)-1]; v != 5 {
		t.Fatalf("steady-state velocity = %v, want 5", v)
	}
}

func TestRandomWaypointDecayDefaultConfig(t *testing.T) {
	trace, vel := RandomWaypointDecay(RWDecayConfig{Seed: 8, Duration: 1500, Nodes: 100})
	if trace.NumNodes() != 100 {
		t.Fatalf("nodes = %d", trace.NumNodes())
	}
	if len(vel) != trace.NumSamples() {
		t.Fatal("series/trace mismatch")
	}
	head := vel[0]
	tailMean := 0.0
	tail := vel[len(vel)-100:]
	for _, v := range tail {
		tailMean += v
	}
	tailMean /= float64(len(tail))
	if tailMean >= head {
		t.Fatalf("no decay: head %v tail %v", head, tailMean)
	}
}
