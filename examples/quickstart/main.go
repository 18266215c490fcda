// Quickstart: run the paper's Table I scenario end to end.
//
// This is the smallest useful CAVENET program — and it no longer assembles
// anything by hand: the Table I workload ("highway") lives in the scenario
// registry, alongside multi-lane, signalized, rush-hour, bidirectional and
// sparse workloads (`cavenet scenario list` shows the catalogue). The
// example fetches it, picks a protocol, runs it under the invariant
// harness, and prints the paper's metrics. It finishes in a few seconds.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"cavenet"
)

func main() {
	log.SetFlags(0)

	// The registered "highway" scenario is exactly Table I of the paper:
	// 30 vehicles on a 3000 m circuit, 100 s, CBR 5 pkt/s × 512 B from
	// nodes 1–8 to node 0 between 10 s and 90 s, 802.11 DCF at 2 Mb/s,
	// 250 m range.
	spec, ok := cavenet.ScenarioByName("highway")
	if !ok {
		log.Fatal("quickstart: highway scenario not registered")
	}
	spec.Protocol = cavenet.DYMO
	spec.Seed = 1

	res, report, err := cavenet.RunScenarioChecked(spec)
	if err != nil {
		log.Fatalf("quickstart: %v", err)
	}

	fmt.Printf("scenario: %s\n", spec.Name)
	fmt.Printf("protocol: %s\n", spec.Protocol)
	fmt.Printf("total packet delivery ratio: %.3f\n", res.TotalPDR())
	fmt.Println("\nper-sender results (Fig. 11's DYMO column):")
	fmt.Println("sender  sent  delivered   PDR   meanDelay   meanHops")
	for _, s := range res.Senders {
		fmt.Printf("%4d   %5d   %6d    %.2f   %7.4fs   %6.1f\n",
			s, res.Sent[s], res.Delivered[s], res.PDR[s], res.MeanDelaySec[s], res.MeanHops[s])
	}
	fmt.Printf("\nrouting overhead: %d control packets, %d bytes\n",
		res.ControlPackets, res.ControlBytes)
	if report.Ok() {
		fmt.Println("invariants: packet conservation, TTL, routing loops, CA sanity all hold")
	} else {
		fmt.Printf("invariants VIOLATED:\n%s", report)
	}

	// The BA→CPS coupling of the paper's Fig. 3: the same spec's mobility
	// can be exported as an ns-2 scenario file.
	trace, err := cavenet.CircuitTrace(spec)
	if err != nil {
		log.Fatalf("quickstart: trace: %v", err)
	}
	f, err := os.CreateTemp("", "cavenet-*.tcl")
	if err != nil {
		log.Fatalf("quickstart: %v", err)
	}
	defer f.Close()
	if err := cavenet.ExportNS2(f, trace); err != nil {
		log.Fatalf("quickstart: export: %v", err)
	}
	fmt.Printf("\nns-2 mobility scenario written to %s\n", f.Name())
}
