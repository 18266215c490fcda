package cavenet

import (
	"testing"

	"cavenet/internal/sim"
	"cavenet/internal/stats"
)

// Tests for the future-work extensions (§V of the paper) exposed through
// the public API.

func TestStationaryRWHasNoDecay(t *testing.T) {
	cfg := RWDecayConfig{Nodes: 300, VMin: 0.1, VMax: 20, Duration: 2000, Seed: 9}
	_, decaying := RandomWaypointDecay(cfg)
	_, stationary := RandomWaypointStationary(cfg)

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

func TestInterferenceExperimentShape(t *testing.T) {
	res, err := Interference(InterferenceConfig{
		LaneLengthMeters: 1500,
		VehiclesPerLane:  10,
		SimTime:          30 * sim.Second,
		Seed:             5,
	})
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
	series, err := VelocitySeries(VelocityConfig{
		Density: 0.1, SlowdownP: 0.5, Steps: 4096, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	series = series[512:]
	sum50 := stats.ACFSum(series, 50)
	sum500 := stats.ACFSum(series, 500)
	if sum500 <= sum50 {
		t.Fatalf("ACF partial sums not growing (%v → %v); inconsistent with LRD", sum50, sum500)
	}
	if h := Hurst(series); h < 0.7 {
		t.Fatalf("Hurst %v inconsistent with LRD", h)
	}
}
