package cavenet_test

import (
	"fmt"

	"cavenet"
	"cavenet/internal/sim"
)

// ExampleRun executes a reduced Table I scenario and prints the delivery
// ratio. (The paper's full scenario is the Scenario zero value; this one is
// shrunk so the example runs instantly.)
func ExampleRun() {
	res, err := cavenet.Run(cavenet.Scenario{
		Protocol:      cavenet.DYMO,
		LaneVehicles:  []int{10},
		CircuitMeters: 1000,
		SimTime:       20 * sim.Second,
		Flows:         []cavenet.ScenarioFlow{{Src: 1, Dst: 0, Start: 5 * sim.Second, Stop: 15 * sim.Second}},
		CAWarmup:      50,
		Seed:          1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("sender 1 sent %d packets, PDR %.2f\n", res.Sent[1], res.PDR[1])
	// Output: sender 1 sent 50 packets, PDR 1.00
}

// ExampleFundamentalDiagram sweeps the deterministic flow-density curve and
// prints the free-flow branch, which is exactly J = v_max·ρ.
func ExampleFundamentalDiagram() {
	pts, err := cavenet.FundamentalDiagram(cavenet.FundamentalConfig{
		LaneLength: 100,
		Densities:  []float64{0.05, 0.1},
		Trials:     3,
		Iterations: 100,
		Warmup:     100,
		Seed:       1,
	})
	if err != nil {
		panic(err)
	}
	for _, p := range pts {
		fmt.Printf("rho=%.2f J=%.2f\n", p.Density, p.Flow)
	}
	// Output:
	// rho=0.05 J=0.25
	// rho=0.10 J=0.50
}

// ExampleTransientTime shows the stationarity diagnostic on a toy series.
func ExampleTransientTime() {
	series := []float64{0, 1, 2, 3, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}
	fmt.Println(cavenet.TransientTime(series, 3))
	// Output: 5
}
