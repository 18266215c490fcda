// Protocol comparison: the paper's headline experiment (Figs. 8–11).
//
// Runs AODV, OLSR and DYMO over the SAME cellular-automaton mobility trace
// (Table I) and prints the per-sender PDR comparison of Fig. 11 plus the
// goodput characteristics behind Figs. 8–10. Expect the paper's ordering:
// reactive protocols beat OLSR, DYMO ≈ AODV with lower delay.
//
// With -trials N (N > 1) the comparison becomes a Monte-Carlo ensemble on
// the deterministic parallel experiment engine: N seeded replications per
// protocol run concurrently across cores and the table reports each
// metric as mean ± 95% CI — the error bars the single-trace run cannot
// give.
//
//	go run ./examples/protocolcompare [-full] [-trials 20]
package main

import (
	"flag"
	"fmt"
	"log"

	"cavenet"
	"cavenet/internal/sim"
)

func main() {
	log.SetFlags(0)
	full := flag.Bool("full", true, "run the full 100 s Table I scenario (false: 30 s)")
	seed := flag.Int64("seed", 1, "scenario seed")
	trials := flag.Int("trials", 1, "replications; > 1 reports ensemble mean ± 95% CI")
	flag.Parse()

	cfg := cavenet.Scenario{Name: "table1", Seed: *seed}
	if !*full {
		// Table I's window opens at 10 s; the short run closes it at 25 s.
		cfg.SimTime = 30 * sim.Second
		for s := 1; s <= 8; s++ {
			cfg.Flows = append(cfg.Flows, cavenet.ScenarioFlow{Src: s, Dst: 0, Start: 10 * sim.Second, Stop: 25 * sim.Second})
		}
	}
	protocols := []cavenet.Protocol{cavenet.AODV, cavenet.OLSR, cavenet.DYMO}

	if *trials > 1 {
		runEnsemble(cfg, protocols, *trials)
		return
	}

	results, err := cavenet.Compare(cfg, protocols)
	if err != nil {
		log.Fatalf("protocolcompare: %v", err)
	}

	fmt.Println("=== Fig. 11: packet delivery ratio per sender ===")
	fmt.Printf("%-8s", "sender")
	for _, p := range protocols {
		fmt.Printf("%8s", p)
	}
	fmt.Println()
	senders := results[protocols[0]].Senders
	for _, s := range senders {
		fmt.Printf("%-8d", s)
		for _, p := range protocols {
			fmt.Printf("%8.3f", results[p].PDR[s])
		}
		fmt.Println()
	}

	fmt.Println("\n=== goodput characteristics (Figs. 8–10) ===")
	fmt.Printf("%-8s%12s%14s%16s\n", "proto", "totalPDR", "peak bps", "mean delay (s)")
	offered := 5 * 512 * 8.0
	for _, p := range protocols {
		r := results[p]
		peak := 0.0
		var delaySum float64
		for _, s := range senders {
			for _, bps := range r.Goodput[s] {
				if bps > peak {
					peak = bps
				}
			}
			delaySum += r.MeanDelaySec[s]
		}
		fmt.Printf("%-8s%12.3f%14.0f%16.4f\n",
			p, r.TotalPDR(), peak, delaySum/float64(len(senders)))
		if p == cavenet.AODV && peak > 3*offered {
			fmt.Printf("         ^ AODV peak is %.1f× the offered 20480 bps: buffered bursts\n",
				peak/offered)
		}
	}

	fmt.Println("\n=== routing overhead (the paper's future-work metric) ===")
	for _, p := range protocols {
		r := results[p]
		fmt.Printf("%-8s%8d control packets, %9d bytes\n", p, r.ControlPackets, r.ControlBytes)
	}
}

// runEnsemble replicates the comparison over seeded Monte-Carlo trials on
// the parallel experiment engine and prints mean ± 95% CI per protocol.
func runEnsemble(cfg cavenet.Scenario, protocols []cavenet.Protocol, trials int) {
	pts, err := cavenet.Sweep(cavenet.SweepConfig{
		Specs:     []cavenet.Scenario{cfg},
		Protocols: protocols,
		Trials:    trials,
		Seed:      cfg.Seed,
	})
	if err != nil {
		log.Fatalf("protocolcompare: %v", err)
	}
	fmt.Printf("=== ensemble over %d trials (mean ± 95%% CI) ===\n", trials)
	fmt.Printf("%-8s%20s%22s%24s\n", "proto", "totalPDR", "goodput (bps)", "mean delay (s)")
	for _, pt := range pts {
		fmt.Printf("%-8s%12.3f ± %.3f%15.0f ± %.0f%17.4f ± %.4f\n",
			pt.Protocol,
			pt.PDR.Mean, pt.PDR.CI95,
			pt.GoodputBPS.Mean, pt.GoodputBPS.CI95,
			pt.DelaySec.Mean, pt.DelaySec.CI95)
	}
	fmt.Printf("\n%-8s%20s%20s\n", "proto", "ctrl packets", "MAC retries")
	for _, pt := range pts {
		fmt.Printf("%-8s%12.0f ± %.0f%14.0f ± %.0f\n",
			pt.Protocol,
			pt.ControlPackets.Mean, pt.ControlPackets.CI95,
			pt.MACRetries.Mean, pt.MACRetries.CI95)
	}
}
