// Highway: the multi-lane connectivity analysis of the paper's Fig. 1-a.
//
// A sparse single lane leaves radio gaps between vehicle clusters; adding
// an opposite-direction lane provides relay nodes that bridge those gaps.
// This example quantifies the effect using the scenario registry: it takes
// the registered "bidirectional" workload, derives a single-lane variant,
// and reports how the largest connected component grows when the opposing
// relay lane is present.
//
//	go run ./examples/highway
package main

import (
	"fmt"
	"log"

	"cavenet"
	"cavenet/internal/sim"
)

func main() {
	log.SetFlags(0)
	const (
		rangeM    = 250.0
		steps     = 60
		samplePts = 6
	)

	// The catalogue's bidirectional highway: two opposing lanes. Stretch it
	// and thin the primary lane so the single-lane variant actually has
	// radio gaps, then derive the one-lane control from the same spec.
	double, ok := cavenet.ScenarioByName("bidirectional")
	if !ok {
		log.Fatal("highway: bidirectional scenario not registered")
	}
	double.CircuitMeters = 7500
	double.LaneVehicles = []int{12, 25}
	double.SimTime = sim.Seconds(steps)
	double.Seed = 7
	double.RandomStart = true // clustered starts: the Fig. 1-a radio gaps
	sparse := double.LaneVehicles[0]

	single := double
	single.Lanes = 1
	single.Bidirectional = false
	single.LaneVehicles = []int{sparse}
	// Explicitly empty (not nil, which would default to the Table I
	// workload): the control variant is mobility-only, and its lane-1 flow
	// endpoints do not exist anyway.
	single.Flows = []cavenet.ScenarioFlow{}
	single.Nodes = 0

	singleTr, err := cavenet.CircuitTrace(single)
	if err != nil {
		log.Fatalf("highway: %v", err)
	}
	doubleTr, err := cavenet.CircuitTrace(double)
	if err != nil {
		log.Fatalf("highway: %v", err)
	}

	fmt.Printf("7.5 km circuit, %d m radio range, %d vehicles on the sparse lane\n\n", int(rangeM), sparse)
	fmt.Println("time   1-lane components   largest%   2-lane components   largest% (lane-0 nodes only)")
	for i := 0; i <= samplePts; i++ {
		tsec := float64(i) * float64(steps) / float64(samplePts)
		c1 := cavenet.ConnectivityComponents(singleTr, tsec, rangeM)
		f1 := cavenet.LargestComponentFraction(singleTr, tsec, rangeM)
		c2 := cavenet.ConnectivityComponents(doubleTr, tsec, rangeM)
		// Fraction of lane-0 vehicles inside one component when relays from
		// the second lane are available.
		best := 0
		for _, comp := range c2 {
			n := 0
			for _, id := range comp {
				if id < sparse {
					n++
				}
			}
			if n > best {
				best = n
			}
		}
		f2 := float64(best) / float64(sparse)
		fmt.Printf("%4.0fs %12d %12.0f%% %15d %12.0f%%\n",
			tsec, len(c1), f1*100, len(c2), f2*100)
	}
	fmt.Println("\nThe second lane's vehicles act as relays (Fig. 1-a): the sparse lane's")
	fmt.Println("clusters merge into larger components when the opposite lane is present.")
}
