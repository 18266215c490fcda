package cavenet

import (
	"testing"

	"cavenet/internal/sim"
	"cavenet/internal/stats"
)

// Tests for the future-work extensions (§V of the paper) exposed through
// the public API.

func TestStationaryRWHasNoDecay(t *testing.T) {
	cfg := DefaultRWDecay
	cfg.Nodes, cfg.VMin, cfg.VMax, cfg.Duration, cfg.Seed = 300, 0.1, 20, 2000, 9
	_, decaying, err := RandomWaypointDecay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, stationary, err := RandomWaypointStationary(cfg)
	if err != nil {
		t.Fatal(err)
	}

	meanOf := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	tenth := len(decaying) / 10
	// The classical model decays: last tenth clearly below first tenth.
	if head, tail := meanOf(decaying[:tenth]), meanOf(decaying[len(decaying)-tenth:]); tail > head*0.85 {
		t.Fatalf("classical RW should decay: head %v tail %v", head, tail)
	}
	// The perfect-simulation variant starts at the steady state: first and
	// last tenths agree within a few percent.
	head, tail := meanOf(stationary[:tenth]), meanOf(stationary[len(stationary)-tenth:])
	ratio := tail / head
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("stationary RW drifted: head %v tail %v", head, tail)
	}
	// And its level matches the theoretical stationary mean
	// E[V] = (vmax-vmin)/ln(vmax/vmin) ≈ 3.76 m/s for [0.1, 20].
	theory := (20.0 - 0.1) / 5.2983 // ln(200)
	if overall := meanOf(stationary); overall < theory*0.85 || overall > theory*1.15 {
		t.Fatalf("stationary mean %v, theory %v", overall, theory)
	}
}

func TestTopologyAnalysisOnCircuitTrace(t *testing.T) {
	tr, err := CircuitTrace(Scenario{
		LaneVehicles: []int{15}, CircuitMeters: 1500, SimTime: 30 * sim.Second, CAWarmup: 100, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := AnalyzeTopology(tr, 250)
	if st.MeanDegree <= 0 {
		t.Fatal("circuit trace should have connectivity")
	}
	// 15 vehicles on 1.5 km with 250 m range: dense; links change but the
	// platoon structure keeps the rate moderate.
	if st.ChangeRate < 0 {
		t.Fatal("negative change rate")
	}
	if st.MeanLinkUpSeconds < 0 {
		t.Fatal("negative link lifetime")
	}
}

// TestConnectivityComponentsOnCircuitTrace checks the facade over a
// recorded circuit with radio gaps: at every sample the components are
// exactly the classes of the "within range" relation (union-find over all
// pairs), in the documented order, and LargestComponentFraction is the
// largest class's share of the fleet.
func TestConnectivityComponentsOnCircuitTrace(t *testing.T) {
	tr, err := CircuitTrace(Scenario{
		LaneVehicles: []int{14}, CircuitMeters: 4000, SimTime: 30 * sim.Second,
		RandomStart: true, Flows: []ScenarioFlow{}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	const rangeM = 250.0
	n := tr.NumNodes()
	split, clustered := false, false
	for tsec := 0.0; tsec <= 30; tsec += 2.5 {
		root := make([]int, n)
		for i := range root {
			root[i] = i
		}
		var find func(int) int
		find = func(i int) int {
			if root[i] != i {
				root[i] = find(root[i])
			}
			return root[i]
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if tr.At(i, tsec).Dist(tr.At(j, tsec)) <= rangeM {
					root[find(i)] = find(j)
				}
			}
		}

		comps := ConnectivityComponents(tr, tsec, rangeM)
		if len(comps) == 0 || comps[0][0] != 0 {
			t.Fatalf("t=%v: first component does not hold node 0: %v", tsec, comps)
		}
		member := 0
		best := 0
		for ci, c := range comps {
			if ci > 0 && c[0] <= comps[ci-1][0] {
				t.Fatalf("t=%v: components not ordered by smallest member: %v", tsec, comps)
			}
			for k, id := range c {
				if k > 0 && id <= c[k-1] {
					t.Fatalf("t=%v: members not ascending: %v", tsec, c)
				}
				if find(id) != find(c[0]) {
					t.Fatalf("t=%v: nodes %d and %d share a component but are not connected", tsec, c[0], id)
				}
			}
			member += len(c)
			best = max(best, len(c))
			clustered = clustered || len(c) > 1
		}
		classes := 0
		for i := 0; i < n; i++ {
			if find(i) == i {
				classes++
			}
		}
		if member != n || len(comps) != classes {
			t.Fatalf("t=%v: %d components over %d nodes, want the %d classes over %d", tsec, len(comps), member, classes, n)
		}
		split = split || len(comps) > 1
		if got, want := LargestComponentFraction(tr, tsec, rangeM), float64(best)/float64(n); got != want {
			t.Fatalf("t=%v: LargestComponentFraction = %v, want %v", tsec, got, want)
		}
	}
	if !split || !clustered {
		t.Fatalf("degenerate trace (split %v, clustered %v): choose one with radio gaps and clusters", split, clustered)
	}
}

func TestInterferenceExperimentShape(t *testing.T) {
	cfg := DefaultInterference
	cfg.LaneLengthMeters, cfg.VehiclesPerLane, cfg.SimTime, cfg.Seed = 1500, 10, 30*sim.Second, 5
	res, err := Interference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 1-b's point: the opposite lane's transmissions cost something —
	// at minimum, substantially more MAC retries on the shared channel.
	if res.InterferedRetries <= res.QuietRetries {
		t.Fatalf("interference should add retries: %d vs %d",
			res.InterferedRetries, res.QuietRetries)
	}
	if res.QuietPDR <= 0 {
		t.Fatal("primary flow dead even without interference")
	}
	if res.InterferedPDR > res.QuietPDR+0.05 {
		t.Fatalf("interfered PDR %v should not beat quiet PDR %v",
			res.InterferedPDR, res.QuietPDR)
	}
}

func TestRTSCTSScenarioOption(t *testing.T) {
	cfg := quickScenario(DYMO)
	cfg.Seed = 6
	cfg.RTSThreshold = 256
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MACStats.RTSTx == 0 || res.MACStats.CTSTx == 0 {
		t.Fatalf("RTS/CTS not exercised: %+v", res.MACStats)
	}
	if res.TotalPDR() <= 0 {
		t.Fatal("no delivery with RTS/CTS enabled")
	}
}

func TestVelocitySeriesIsLRDConsistent(t *testing.T) {
	// Cross-check the two LRD indicators on the same public-API series:
	// ACF partial sums growing and Hurst > 0.5 must co-occur near the
	// critical density.
	cfg := DefaultVelocity
	cfg.Density, cfg.SlowdownP, cfg.Steps, cfg.Seed = 0.1, 0.5, 4096, 7
	series, err := VelocitySeries(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series = series[512:]
	acfSum := func(maxLag int) float64 {
		sum := 0.0
		for _, r := range stats.Autocorrelation(series, maxLag)[1:] {
			sum += r
		}
		return sum
	}
	sum50, sum500 := acfSum(50), acfSum(500)
	if sum500 <= sum50 {
		t.Fatalf("ACF partial sums not growing (%v → %v); inconsistent with LRD", sum50, sum500)
	}
	if h := Hurst(series); h < 0.7 {
		t.Fatalf("Hurst %v inconsistent with LRD", h)
	}
}
