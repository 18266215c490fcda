// Trafficphysics: a tour of the Behavioural Analyzer (Figs. 4–7).
//
// Reproduces, at reduced scale, the traffic-physics results the paper uses
// to argue that VANET mobility needs care before protocol simulation:
//
//   - the fundamental diagram with its free-flow/congested phase transition,
//   - space-time plots showing laminar flow vs. backward-moving jam waves,
//   - the SRD/LRD dichotomy of the mean-velocity process (the deterministic
//     model has a flat spectrum; the stochastic one is 1/f near criticality),
//   - the Random Waypoint velocity decay that the CA model does not suffer.
//
// go run ./examples/trafficphysics
package main

import (
	"fmt"
	"log"
	"os"

	"cavenet"
	"cavenet/internal/plot"
)

func main() {
	log.SetFlags(0)

	fmt.Println("=== Fig. 4: fundamental diagram (flow vs density) ===")
	fcfg := cavenet.DefaultFundamental
	fcfg.Trials, fcfg.Iterations, fcfg.Warmup, fcfg.Seed = 10, 300, 100, 1
	for _, p := range []float64{0, 0.5} {
		fcfg.SlowdownP = p
		pts, err := cavenet.FundamentalDiagram(fcfg)
		if err != nil {
			log.Fatalf("trafficphysics: %v", err)
		}
		peak, at := 0.0, 0.0
		for _, pt := range pts {
			if pt.Flow > peak {
				peak, at = pt.Flow, pt.Density
			}
		}
		fmt.Printf("p=%.1f: peak flow %.3f veh/step at density %.3f\n", p, peak, at)
	}
	fmt.Println("(deterministic peak ≈0.833 at ρ≈0.167; randomization lowers and shifts it)")

	fmt.Println("\n=== Fig. 5: space-time plots ===")
	for _, cfg := range []cavenet.SpaceTimeConfig{
		{LaneLength: 150, Density: 0.0625, SlowdownP: 0.3, Steps: 24, Warmup: 50, Seed: 2},
		{LaneLength: 150, Density: 0.5, SlowdownP: 0.3, Steps: 24, Warmup: 50, Seed: 2},
	} {
		rows, err := cavenet.SpaceTime(cfg)
		if err != nil {
			log.Fatalf("trafficphysics: %v", err)
		}
		fmt.Printf("\nρ=%v p=%v (digits = velocities, dots = empty road):\n", cfg.Density, cfg.SlowdownP)
		if err := plot.SpaceTimeASCII(os.Stdout, rows); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("low density: laminar free flow; high density: jam clusters drifting backward")

	fmt.Println("\n=== Fig. 7: SRD vs LRD ===")
	pcfg := cavenet.DefaultPeriodogram
	pcfg.Density, pcfg.SlowdownP, pcfg.Steps, pcfg.Seed = 0.1, 0, 4096, 3
	det, err := cavenet.Periodogram(pcfg)
	if err != nil {
		log.Fatalf("trafficphysics: %v", err)
	}
	pcfg.SlowdownP = 0.5
	sto, err := cavenet.Periodogram(pcfg)
	if err != nil {
		log.Fatalf("trafficphysics: %v", err)
	}
	fmt.Printf("deterministic p=0:   GPH slope %+.2f, Hurst %.2f  → short-range dependent\n",
		det.GPHSlope, det.Hurst)
	fmt.Printf("stochastic p=0.5:    GPH slope %+.2f, Hurst %.2f  → 1/f-like, long-range dependent\n",
		sto.GPHSlope, sto.Hurst)

	fmt.Println("\n=== §IV-B: transient time and the RW contrast ===")
	tcfg := cavenet.DefaultTransient
	tcfg.Steps, tcfg.Seed = 1000, 4
	tr, err := cavenet.Transient(tcfg)
	if err != nil {
		log.Fatalf("trafficphysics: %v", err)
	}
	fmt.Printf("CA from a compact jam reaches steady state in τ = %d steps (MSER-5: %d)\n",
		tr.Tau, tr.MSER)
	rcfg := cavenet.DefaultRWDecay
	rcfg.Seed = 5
	_, vel, err := cavenet.RandomWaypointDecay(rcfg)
	if err != nil {
		log.Fatalf("trafficphysics: %v", err)
	}
	rwTau := cavenet.TransientTime(vel, 3)
	fmt.Printf("Random Waypoint mean velocity still decaying after %d of %d samples\n",
		rwTau, len(vel))
	fmt.Println("(the RW model's velocity decay is the problem the finite-state CA avoids)")
}
