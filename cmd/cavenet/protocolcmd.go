package main

import (
	"fmt"
	"math"
	"os"

	"cavenet/internal/plot"
	"cavenet/internal/scenario"
	"cavenet/internal/sim"
)

// Table I's traffic window is absolute: 10 s to 90 s whatever the
// horizon. A Spec's zero window would scale with -time instead, so the
// Table I commands spell it out in the flows.
const (
	table1Start = 10 * sim.Second
	table1Stop  = 90 * sim.Second
)

// table1Spec is the paper's Table I scenario as `protocols` and `sweep`
// parameterize it: nodes vehicles on a circuit of fixed length (so the
// vehicle count is the density axis), CBR from nodes 1..senders to node
// 0. A run that ends before the window opens would report PDR 0 over
// zero packets; that is a usage error.
func table1Spec(nodes int, circuitM, timeSec float64, senders int) (scenario.Spec, error) {
	if !(timeSec > table1Start.Seconds()) {
		return scenario.Spec{}, badUsage("-time %v: Table I's traffic runs from %.0f s to %.0f s, nothing would be sent",
			timeSec, table1Start.Seconds(), table1Stop.Seconds())
	}
	if !(circuitM > 0) || senders < 1 {
		return scenario.Spec{}, badUsage("need a positive -circuit and at least one sender")
	}
	flows := make([]scenario.Flow, senders)
	for i := range flows {
		flows[i] = scenario.Flow{Src: i + 1, Dst: 0, Start: table1Start, Stop: table1Stop}
	}
	return scenario.Spec{
		Name:          "table1",
		LaneVehicles:  []int{nodes},
		CircuitMeters: circuitM,
		SimTime:       sim.Seconds(timeSec),
		Flows:         flows,
	}, nil
}

func cmdProtocols(args []string) error {
	fs := newFlagSet("protocols")
	protocol := fs.String("protocol", "all", "aodv, olsr, dymo, gpsr or all")
	nodes := fs.Int("nodes", 30, "vehicles on the circuit (Table I: 30)")
	circuit := fs.Float64("circuit", 3000, "circuit length in meters (Table I: 3000)")
	simTime := fs.Float64("time", 100, "simulated seconds (Table I: 100)")
	seed := fs.Int64("seed", 1, "root seed")
	etx := fs.Bool("etx", false, "use the OLSR ETX/LQ metric")
	surface := fs.Bool("surface", false, "print the full goodput surface CSV (Figs. 8-10)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	protocols, err := parseProtocolList(*protocol)
	if err != nil {
		return err
	}
	spec, err := table1Spec(*nodes, *circuit, *simTime, 8)
	if err != nil {
		return err
	}
	spec.Seed = *seed
	spec.OLSRETX = *etx
	if err := spec.Validate(); err != nil {
		return badUsage("%v", err)
	}

	results, err := scenario.Compare(spec, protocols)
	if err != nil {
		return err
	}
	senders := results[protocols[0]].Senders

	// Fig. 11: PDR per sender, one column per protocol.
	fmt.Println("# Fig. 11 — packet delivery ratio per sender")
	fmt.Printf("sender")
	for _, p := range protocols {
		fmt.Printf(",%s", p)
	}
	fmt.Println()
	for _, s := range senders {
		fmt.Printf("%d", s)
		for _, p := range protocols {
			fmt.Printf(",%.3f", results[p].PDR[s])
		}
		fmt.Println()
	}
	fmt.Println()

	// Summary (Table I scenario totals + the paper's future-work metrics).
	fmt.Println("# summary")
	fmt.Println("protocol,totalPDR,ctrlPackets,ctrlBytes,meanDelayMaxSender_s,macRetries,peakGoodput_bps")
	for _, p := range protocols {
		r := results[p]
		maxSender := senders[len(senders)-1]
		peak := 0.0
		for _, s := range senders {
			for _, bps := range r.Goodput[s] {
				peak = math.Max(peak, bps)
			}
		}
		fmt.Printf("%s,%.3f,%d,%d,%.4f,%d,%.0f\n",
			p, r.TotalPDR(), r.ControlPackets, r.ControlBytes,
			r.MeanDelaySec[maxSender], r.MACStats.Retries, peak)
	}

	if *surface {
		for _, p := range protocols {
			r := results[p]
			fmt.Printf("\n# goodput surface for %s (Figs. 8-10): rows senders, cols seconds, values bps\n", p)
			bins := len(r.Goodput[senders[0]])
			cols := make([]float64, bins)
			for i := range cols {
				cols[i] = float64(i)
			}
			vals := make([][]float64, len(senders))
			for i, s := range senders {
				vals[i] = r.Goodput[s]
			}
			if err := plot.Surface(os.Stdout, "sender", senders, "t", cols, vals); err != nil {
				return err
			}
		}
	}
	return nil
}
