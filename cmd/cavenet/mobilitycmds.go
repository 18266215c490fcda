package main

import (
	"fmt"
	"os"

	"cavenet"
	"cavenet/internal/plot"
	"cavenet/internal/sim"
)

func cmdFundamental(args []string) error {
	fs := newFlagSet("fundamental")
	length := fs.Int("L", 400, "lane length in cells")
	trials := fs.Int("trials", 20, "Monte-Carlo trials per point")
	iters := fs.Int("iters", 500, "iterations per trial")
	warmup := fs.Int("warmup", 0, "discarded steps per trial")
	seed := fs.Int64("seed", 1, "root seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	cfg := cavenet.FundamentalConfig{
		LaneLength: *length,
		Trials:     *trials,
		Iterations: *iters,
		Warmup:     *warmup,
		Seed:       *seed,
	}
	if err := cfg.Validate(); err != nil {
		return badUsage("%v", err)
	}
	// The paper's Fig. 4 overlays p=0 and p=0.5.
	var series [][]float64
	var density []float64
	for _, p := range []float64{0, 0.5} {
		cfg.SlowdownP = p
		pts, err := cavenet.FundamentalDiagram(cfg)
		if err != nil {
			return err
		}
		col := make([]float64, len(pts))
		if density == nil {
			density = make([]float64, len(pts))
			for i, pt := range pts {
				density[i] = pt.Density
			}
		}
		for i, pt := range pts {
			col[i] = pt.Flow
		}
		series = append(series, col)
	}
	return plot.MultiSeries(os.Stdout, "rho", density, []string{"J_p0", "J_p0.5"}, series)
}

func cmdSpaceTime(args []string) error {
	fs := newFlagSet("spacetime")
	length := fs.Int("L", 400, "lane length in cells")
	rho := fs.Float64("rho", 0.1, "vehicle density")
	p := fs.Float64("p", 0.3, "slowdown probability")
	steps := fs.Int("steps", 100, "steps to plot")
	warmup := fs.Int("warmup", 0, "discarded steps")
	seed := fs.Int64("seed", 1, "root seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	cfg := cavenet.SpaceTimeConfig{
		LaneLength: *length,
		Density:    *rho,
		SlowdownP:  *p,
		Steps:      *steps,
		Warmup:     *warmup,
		Seed:       *seed,
	}
	if err := cfg.Validate(); err != nil {
		return badUsage("%v", err)
	}
	rows, err := cavenet.SpaceTime(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("# space-time plot: L=%d rho=%v p=%v (space left-right, time top-down)\n",
		*length, *rho, *p)
	return plot.SpaceTimeASCII(os.Stdout, rows)
}

func cmdVelocity(args []string) error {
	fs := newFlagSet("velocity")
	length := fs.Int("L", 400, "lane length in cells")
	p := fs.Float64("p", 0.3, "slowdown probability")
	steps := fs.Int("steps", 5000, "steps to simulate")
	seed := fs.Int64("seed", 1, "root seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	cfg := cavenet.VelocityConfig{LaneLength: *length, SlowdownP: *p, Steps: *steps, Seed: *seed}
	if err := cfg.Validate(); err != nil {
		return badUsage("%v", err)
	}
	// Fig. 6 overlays ρ=0.1 and ρ=0.5.
	var cols [][]float64
	for _, rho := range []float64{0.1, 0.5} {
		cfg.Density = rho
		s, err := cavenet.VelocitySeries(cfg)
		if err != nil {
			return err
		}
		cols = append(cols, s)
	}
	// As long as the series, not the flag: -steps 0 runs the default length.
	ts := make([]float64, len(cols[0]))
	for i := range ts {
		ts[i] = float64(i)
	}
	return plot.MultiSeries(os.Stdout, "t", ts, []string{"v_rho0.1", "v_rho0.5"}, cols)
}

func cmdPeriodogram(args []string) error {
	fs := newFlagSet("periodogram")
	length := fs.Int("L", 400, "lane length in cells")
	rho := fs.Float64("rho", 0.05, "vehicle density")
	p := fs.Float64("p", 0.5, "slowdown probability")
	steps := fs.Int("steps", 8192, "steps to simulate")
	seed := fs.Int64("seed", 1, "root seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	cfg := cavenet.VelocityConfig{LaneLength: *length, Density: *rho, SlowdownP: *p, Steps: *steps, Seed: *seed}
	if err := cfg.Validate(); err != nil {
		return badUsage("%v", err)
	}
	res, err := cavenet.Periodogram(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("# rho=%v p=%v  GPH slope=%.3f  Hurst=%.3f  (slope≈0, H≈0.5: SRD; slope<0, H→1: LRD)\n",
		*rho, *p, res.GPHSlope, res.Hurst)
	return plot.Series(os.Stdout, "freq", "power", res.Spectrum.Freq, res.Spectrum.Power)
}

func cmdTransient(args []string) error {
	fs := newFlagSet("transient")
	length := fs.Int("L", 400, "lane length in cells")
	rho := fs.Float64("rho", 0.1, "vehicle density")
	p := fs.Float64("p", 0, "slowdown probability")
	steps := fs.Int("steps", 2000, "steps to simulate")
	seed := fs.Int64("seed", 1, "root seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	cfg := cavenet.VelocityConfig{LaneLength: *length, Density: *rho, SlowdownP: *p, Steps: *steps, Seed: *seed}
	if err := cfg.Validate(); err != nil {
		return badUsage("%v", err)
	}
	res, err := cavenet.Transient(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("transient time tau = %d steps (tolerance-band), %d steps (MSER-5)\n",
		res.Tau, res.MSER)
	fmt.Println("mean velocity from a compact-jam start:")
	return plot.AsciiChart(os.Stdout, res.Series[:min(len(res.Series), 200)], 12)
}

func cmdRWDecay(args []string) error {
	fs := newFlagSet("rwdecay")
	nodes := fs.Int("nodes", 100, "number of walkers")
	vmin := fs.Float64("vmin", 0.1, "minimum speed m/s")
	vmax := fs.Float64("vmax", 20, "maximum speed m/s")
	dur := fs.Float64("duration", 2000, "seconds to simulate")
	seed := fs.Int64("seed", 1, "root seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	_, vel := cavenet.RandomWaypointDecay(cavenet.RWDecayConfig{
		Nodes: *nodes, VMin: *vmin, VMax: *vmax, Duration: *dur, Seed: *seed,
	})
	ts := make([]float64, len(vel))
	for i := range ts {
		ts[i] = float64(i)
	}
	fmt.Printf("# Random Waypoint mean velocity: the decay the CA model avoids (v settles only asymptotically)\n")
	return plot.Series(os.Stdout, "t", "v", ts, vel)
}

func cmdTrace(args []string) error {
	fs := newFlagSet("trace")
	nodes := fs.Int("nodes", 30, "vehicles on the circuit")
	circuit := fs.Float64("circuit", 3000, "circuit length in meters")
	dur := fs.Float64("duration", 100, "trace duration in seconds")
	seed := fs.Int64("seed", 1, "root seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	tr, err := cavenet.CircuitTrace(cavenet.Scenario{
		LaneVehicles:  []int{*nodes},
		CircuitMeters: *circuit,
		SimTime:       sim.Seconds(*dur),
		Seed:          *seed,
	})
	if err != nil {
		return err
	}
	return cavenet.ExportNS2(os.Stdout, tr)
}
