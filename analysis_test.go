package cavenet

import (
	"math"
	"testing"

	"cavenet/internal/mobility"
	"cavenet/internal/sim"
)

// TestStudyConfigsRejected: every study refuses a config it cannot run
// before it simulates anything. A negative count used to reach make() and
// panic, or run nothing and report success; a zero field used to mean a
// default, and a density that places no vehicle used to run an empty road.
func TestStudyConfigsRejected(t *testing.T) {
	rw := func(run func(RWDecayConfig) (*mobility.SampledTrace, []float64, error)) func(RWDecayConfig) ([]float64, error) {
		return func(c RWDecayConfig) ([]float64, error) { _, vel, err := run(c); return vel, err }
	}
	cases := map[string]func() error{
		"spacetime steps":                     rejects(SpaceTime, DefaultSpaceTime, func(c *SpaceTimeConfig) { c.Steps = -1 }),
		"spacetime warmup":                    rejects(SpaceTime, DefaultSpaceTime, func(c *SpaceTimeConfig) { c.Warmup = -1 }),
		"spacetime zero length":               rejects(SpaceTime, DefaultSpaceTime, func(c *SpaceTimeConfig) { c.LaneLength = 0 }),
		"velocity steps":                      rejects(VelocitySeries, DefaultVelocity, func(c *VelocityConfig) { c.Steps = -5 }),
		"velocity zero steps":                 rejects(VelocitySeries, DefaultVelocity, func(c *VelocityConfig) { c.Steps = 0 }),
		"velocity zero density":               rejects(VelocitySeries, DefaultVelocity, func(c *VelocityConfig) { c.Density = 0 }),
		"velocity rounds to no vehicle":       rejects(VelocitySeries, DefaultVelocity, func(c *VelocityConfig) { c.LaneLength, c.Density = 4, 0.1 }),
		"velocity more vehicles than cells":   rejects(VelocitySeries, DefaultVelocity, func(c *VelocityConfig) { c.Density = 1.5 }),
		"periodogram steps":                   rejects(Periodogram, DefaultPeriodogram, func(c *VelocityConfig) { c.Steps = -9000 }),
		"periodogram warmup":                  rejects(Periodogram, DefaultPeriodogram, func(c *VelocityConfig) { c.Warmup = -1 }),
		"periodogram zero steps after warmup": rejects(Periodogram, DefaultPeriodogram, func(c *VelocityConfig) { c.Steps = 0 }),
		"transient steps":                     rejects(Transient, DefaultTransient, func(c *VelocityConfig) { c.Steps = -1 }),
		"transient zero density":              rejects(Transient, DefaultTransient, func(c *VelocityConfig) { c.Density = 0 }),
		"rwdecay zero vmin":                   rejects(rw(RandomWaypointDecay), DefaultRWDecay, func(c *RWDecayConfig) { c.VMin = 0 }),
		"rwdecay vmax below vmin":             rejects(rw(RandomWaypointDecay), DefaultRWDecay, func(c *RWDecayConfig) { c.VMax = c.VMin / 2 }),
		"rwstationary zero nodes":             rejects(rw(RandomWaypointStationary), DefaultRWDecay, func(c *RWDecayConfig) { c.Nodes = 0 }),
		"shadowing zero sigma":                rejects(ShadowingConnectivity, DefaultShadowing, func(c *ShadowingConfig) { c.SigmaDB = 0 }),
		"shadowing no distances":              rejects(ShadowingConnectivity, DefaultShadowing, func(c *ShadowingConfig) { c.Distances = nil }),
		"interference zero rate":              rejects(Interference, DefaultInterference, func(c *InterferenceConfig) { c.BackgroundRate = 0 }),
		"interference no window":              rejects(Interference, DefaultInterference, func(c *InterferenceConfig) { c.SimTime = 10 * sim.Second }),
	}
	for name, run := range cases {
		if err := run(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// rejects runs study on the default changed by mutate and returns its error.
func rejects[C, R any](study func(C) (R, error), def C, mutate func(*C)) func() error {
	return func() error {
		mutate(&def)
		_, err := study(def)
		return err
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
		rows, err := SpaceTime(cfg)
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
	cfg := DefaultVelocity
	cfg.Density, cfg.SlowdownP, cfg.Steps, cfg.Seed = 0.1, 0.3, 2000, 5
	low, err := VelocitySeries(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Density = 0.5
	high, err := VelocitySeries(cfg)
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
	cfg := DefaultPeriodogram
	cfg.Density, cfg.SlowdownP, cfg.Steps, cfg.Seed = 0.1, 0, 4096, 6
	det, err := Periodogram(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SlowdownP = 0.5
	sto, err := Periodogram(cfg)
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
	cfg := DefaultTransient
	cfg.Density, cfg.SlowdownP, cfg.Steps, cfg.Seed = 0.1, 0, 1000, 7
	res, err := Transient(cfg)
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
	cfg := DefaultRWDecay
	cfg.Seed, cfg.Duration, cfg.Nodes = 8, 1500, 100
	trace, vel, err := RandomWaypointDecay(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
