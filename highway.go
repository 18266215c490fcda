package cavenet

import (
	"errors"
	"fmt"

	"cavenet/internal/geometry"
	"cavenet/internal/metrics"
	"cavenet/internal/mobility"
	"cavenet/internal/scenario"
	"cavenet/internal/sim"
)

// This file exposes the multi-lane highway analysis behind the paper's
// Fig. 1 discussion: lanes affect connectivity (relays on other lanes fill
// gaps) and interference (opposite-lane transmissions collide).
//
// Multi-lane highway *assembly* moved to the scenario registry (see
// scenarios.go and `cavenet scenario list`): build traces with
// CircuitTrace from a registered or custom Scenario instead of
// hand-rolling lane configs.

// ConnectivityComponents groups the trace's nodes, at time tsec, into
// radio-connectivity components for the given transmission range: two
// nodes are linked within rangeMeters of each other. Members are listed in
// ascending order and components by their smallest member
// (metrics.Components).
func ConnectivityComponents(tr *mobility.SampledTrace, tsec, rangeMeters float64) [][]int {
	pos := make([]geometry.Vec2, tr.NumNodes())
	for i := range pos {
		pos[i] = tr.At(i, tsec)
	}
	return metrics.Components(pos, rangeMeters)
}

// LargestComponentFraction reports the share of nodes in the largest
// connectivity component at time tsec — a scalar connectivity index that a
// sweep over time or lane configurations can compare.
func LargestComponentFraction(tr *mobility.SampledTrace, tsec, rangeMeters float64) float64 {
	n := tr.NumNodes()
	if n == 0 {
		return 0
	}
	best := 0
	for _, c := range ConnectivityComponents(tr, tsec, rangeMeters) {
		best = max(best, len(c))
	}
	return float64(best) / float64(n)
}

// InterferenceConfig parameterizes the Fig. 1-b experiment: a multihop CBR
// flow along one lane while the opposite lane's vehicles generate their own
// traffic, interfering at the radio level ("the message penetration on a
// particular lane can be affected by the radio interference on the opposite
// lane").
type InterferenceConfig struct {
	LaneLengthMeters float64
	VehiclesPerLane  int // at least 2: the primary flow runs half a lane ahead
	SlowdownP        float64
	// BackgroundRate is the interfering per-node CBR rate in packets/s on
	// the opposite lane.
	BackgroundRate float64
	// BackgroundBytes is the interfering packet size.
	BackgroundBytes int
	// SimTime is the run length; every flow sends from 5 s to SimTime − 5 s.
	SimTime sim.Time
	Seed    int64
}

// DefaultInterference is a 2 km two-lane ring with 16 vehicles a lane at
// p = 0.3, the opposite lane sending 20 packets/s of 512 bytes, for 60 s.
var DefaultInterference = InterferenceConfig{
	LaneLengthMeters: 2000, VehiclesPerLane: 16, SlowdownP: 0.3,
	BackgroundRate: 20, BackgroundBytes: 512, SimTime: 60 * sim.Second,
}

// Validate reports the configs the experiment cannot run with.
func (c InterferenceConfig) Validate() error {
	err := errors.Join(positive("LaneLengthMeters", c.LaneLengthMeters), atLeast("VehiclesPerLane", c.VehiclesPerLane, 2),
		positive("BackgroundRate", c.BackgroundRate), atLeast("BackgroundBytes", c.BackgroundBytes, 1))
	if c.SimTime <= 10*sim.Second {
		err = errors.Join(err, fmt.Errorf("SimTime %v leaves no sending window between 5 s and SimTime − 5 s", c.SimTime))
	}
	return err
}

// InterferenceResult compares the primary flow with a quiet vs. an active
// opposite lane.
type InterferenceResult struct {
	// QuietPDR is the primary flow's delivery ratio when the opposite
	// lane's vehicles are present but silent (pure relay benefit).
	QuietPDR float64
	// InterferedPDR is the same flow when the opposite lane transmits.
	InterferedPDR float64
	// QuietRetries / InterferedRetries total the MAC retries in each run.
	QuietRetries, InterferedRetries uint64
}

// Interference runs the Fig. 1-b experiment: the identical two-lane
// mobility twice — once with the opposite lane silent, once with it
// carrying neighbor-to-neighbor CBR — and reports the primary flow's
// delivery and the MAC-retry impact. The two runs are two Scenarios of a
// bidirectional two-lane ring that differ only in Flows, executed over the
// one trace CircuitTrace records from the quiet one.
func Interference(cfg InterferenceConfig) (InterferenceResult, error) {
	if err := cfg.Validate(); err != nil {
		return InterferenceResult{}, err
	}
	start, stop := 5*sim.Second, cfg.SimTime-5*sim.Second
	// Primary flow: first lane-0 vehicle to the vehicle half a lane ahead
	// (multihop).
	const src = 0
	primary := scenario.Flow{Src: src, Dst: cfg.VehiclesPerLane / 2, Start: start, Stop: stop}
	quiet := scenario.Spec{
		Name:          "interference",
		Lanes:         2,
		LaneVehicles:  []int{cfg.VehiclesPerLane},
		CircuitMeters: cfg.LaneLengthMeters,
		SlowdownP:     cfg.SlowdownP,
		Bidirectional: true,
		Protocol:      scenario.AODV,
		SimTime:       cfg.SimTime,
		Seed:          cfg.Seed,
		Flows:         []scenario.Flow{primary},
	}
	// Opposite lane: each vehicle unicasts to its follower, saturating the
	// shared channel.
	interfered := quiet
	interfered.Flows = []scenario.Flow{primary}
	for i := 0; i < cfg.VehiclesPerLane; i++ {
		interfered.Flows = append(interfered.Flows, scenario.Flow{
			Src:         cfg.VehiclesPerLane + i,
			Dst:         cfg.VehiclesPerLane + (i+1)%cfg.VehiclesPerLane,
			Rate:        cfg.BackgroundRate,
			PacketBytes: cfg.BackgroundBytes,
			Start:       start,
			Stop:        stop,
		})
	}

	trace, err := scenario.BuildTrace(quiet)
	if err != nil {
		return InterferenceResult{}, err
	}
	q, err := scenario.RunOnTrace(quiet, trace)
	if err != nil {
		return InterferenceResult{}, fmt.Errorf("cavenet: quiet run: %w", err)
	}
	in, err := scenario.RunOnTrace(interfered, trace)
	if err != nil {
		return InterferenceResult{}, fmt.Errorf("cavenet: interfered run: %w", err)
	}
	return InterferenceResult{
		QuietPDR:          q.PDR[src],
		InterferedPDR:     in.PDR[src],
		QuietRetries:      q.MACStats.Retries,
		InterferedRetries: in.MACStats.Retries,
	}, nil
}
