package main

import (
	"flag"
	"fmt"
	"os"

	"cavenet"
	"cavenet/internal/plot"
	"cavenet/internal/sim"
)

func cmdFundamental(args []string) error {
	fs := newFlagSet("fundamental")
	cfg := cavenet.DefaultFundamental
	fs.IntVar(&cfg.LaneLength, "L", cfg.LaneLength, "lane length in cells")
	fs.IntVar(&cfg.Trials, "trials", cfg.Trials, "Monte-Carlo trials per point")
	fs.IntVar(&cfg.Iterations, "iters", cfg.Iterations, "iterations per trial")
	fs.IntVar(&cfg.Warmup, "warmup", cfg.Warmup, "discarded steps per trial")
	fs.Int64Var(&cfg.Seed, "seed", 1, "root seed")
	if err := parseFlags(fs, args); err != nil {
		return err
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

// laneFlags binds the lane-study flags to cfg; densityFlag is false for a
// command that sweeps its own densities.
func laneFlags(fs *flag.FlagSet, cfg *cavenet.VelocityConfig, densityFlag bool) {
	fs.IntVar(&cfg.LaneLength, "L", cfg.LaneLength, "lane length in cells")
	if densityFlag {
		fs.Float64Var(&cfg.Density, "rho", cfg.Density, "vehicle density")
	}
	fs.Float64Var(&cfg.SlowdownP, "p", cfg.SlowdownP, "slowdown probability")
	fs.IntVar(&cfg.Steps, "steps", cfg.Steps, "steps to simulate")
	fs.Int64Var(&cfg.Seed, "seed", 1, "root seed")
}

func cmdSpaceTime(args []string) error {
	fs := newFlagSet("spacetime")
	cfg := cavenet.VelocityConfig(cavenet.DefaultSpaceTime)
	laneFlags(fs, &cfg, true)
	fs.IntVar(&cfg.Warmup, "warmup", cfg.Warmup, "discarded steps")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return badUsage("%v", err)
	}
	rows, err := cavenet.SpaceTime(cavenet.SpaceTimeConfig(cfg))
	if err != nil {
		return err
	}
	fmt.Printf("# space-time plot: L=%d rho=%v p=%v (space left-right, time top-down)\n",
		cfg.LaneLength, cfg.Density, cfg.SlowdownP)
	return plot.SpaceTimeASCII(os.Stdout, rows)
}

func cmdVelocity(args []string) error {
	fs := newFlagSet("velocity")
	cfg := cavenet.DefaultVelocity
	laneFlags(fs, &cfg, false)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	// Fig. 6 overlays ρ=0.1 and ρ=0.5.
	var cols [][]float64
	for _, rho := range []float64{0.1, 0.5} {
		cfg.Density = rho
		if err := cfg.Validate(); err != nil {
			return badUsage("%v", err)
		}
		s, err := cavenet.VelocitySeries(cfg)
		if err != nil {
			return err
		}
		cols = append(cols, s)
	}
	ts := make([]float64, cfg.Steps)
	for i := range ts {
		ts[i] = float64(i)
	}
	return plot.MultiSeries(os.Stdout, "t", ts, []string{"v_rho0.1", "v_rho0.5"}, cols)
}

func cmdPeriodogram(args []string) error {
	fs := newFlagSet("periodogram")
	cfg := cavenet.DefaultPeriodogram
	laneFlags(fs, &cfg, true)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return badUsage("%v", err)
	}
	res, err := cavenet.Periodogram(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("# rho=%v p=%v  GPH slope=%.3f  Hurst=%.3f  (slope≈0, H≈0.5: SRD; slope<0, H→1: LRD)\n",
		cfg.Density, cfg.SlowdownP, res.GPHSlope, res.Hurst)
	return plot.Series(os.Stdout, "freq", "power", res.Spectrum.Freq, res.Spectrum.Power)
}

func cmdTransient(args []string) error {
	fs := newFlagSet("transient")
	cfg := cavenet.DefaultTransient
	laneFlags(fs, &cfg, true)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
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
	cfg := cavenet.DefaultRWDecay
	fs.IntVar(&cfg.Nodes, "nodes", cfg.Nodes, "number of walkers")
	fs.Float64Var(&cfg.VMin, "vmin", cfg.VMin, "minimum speed m/s")
	fs.Float64Var(&cfg.VMax, "vmax", cfg.VMax, "maximum speed m/s")
	fs.Float64Var(&cfg.Duration, "duration", cfg.Duration, "seconds to simulate")
	fs.Int64Var(&cfg.Seed, "seed", 1, "root seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return badUsage("%v", err)
	}
	_, vel, err := cavenet.RandomWaypointDecay(cfg)
	if err != nil {
		return err
	}
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
