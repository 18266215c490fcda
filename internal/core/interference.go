package core

import (
	"fmt"

	"cavenet/internal/scenario"
	"cavenet/internal/sim"
)

// InterferenceConfig parameterizes the Fig. 1-b experiment: a multihop CBR
// flow along one lane while the opposite lane's vehicles generate their own
// traffic, interfering at the radio level ("the message penetration on a
// particular lane can be affected by the radio interference on the opposite
// lane").
type InterferenceConfig struct {
	LaneLengthMeters float64 // default 2000
	VehiclesPerLane  int     // default 16
	SlowdownP        float64 // default 0.3
	// BackgroundRate is the interfering per-node CBR rate in packets/s on
	// the opposite lane (default 10).
	BackgroundRate float64
	// BackgroundBytes is the interfering packet size (default 512).
	BackgroundBytes int
	SimTime         sim.Time // default 60 s
	Seed            int64
}

func (c *InterferenceConfig) normalize() {
	if c.LaneLengthMeters == 0 {
		c.LaneLengthMeters = 2000
	}
	if c.VehiclesPerLane == 0 {
		c.VehiclesPerLane = 16
	}
	if c.SlowdownP == 0 {
		c.SlowdownP = 0.3
	}
	if c.BackgroundRate == 0 {
		c.BackgroundRate = 20
	}
	if c.BackgroundBytes == 0 {
		c.BackgroundBytes = 512
	}
	if c.SimTime == 0 {
		c.SimTime = 60 * sim.Second
	}
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

// InterferenceExperiment quantifies Fig. 1-b: run the identical two-lane
// mobility twice — once with the opposite lane silent, once with it
// carrying neighbor-to-neighbor CBR — and compare the primary flow's PDR.
// The two runs are two scenario.Specs that differ only in Flows, executed
// over the one recorded HighwayTrace (a straight open segment, which no
// Spec generates; the road knobs below describe it for validation).
func InterferenceExperiment(cfg InterferenceConfig) (InterferenceResult, error) {
	cfg.normalize()
	trace, err := HighwayTrace(HighwayConfig{
		Lanes: []HighwayLane{
			{LengthMeters: cfg.LaneLengthMeters, Vehicles: cfg.VehiclesPerLane, SlowdownP: cfg.SlowdownP},
			{LengthMeters: cfg.LaneLengthMeters, Vehicles: cfg.VehiclesPerLane, SlowdownP: cfg.SlowdownP, OffsetY: 5, Reversed: true},
		},
		Warmup: 200,
		Steps:  int(cfg.SimTime/sim.Second) + 1,
		Seed:   cfg.Seed,
	})
	if err != nil {
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

	q, err := scenario.RunOnTrace(quiet, trace)
	if err != nil {
		return InterferenceResult{}, fmt.Errorf("core: quiet run: %w", err)
	}
	in, err := scenario.RunOnTrace(interfered, trace)
	if err != nil {
		return InterferenceResult{}, fmt.Errorf("core: interfered run: %w", err)
	}
	return InterferenceResult{
		QuietPDR:          q.PDR[src],
		InterferedPDR:     in.PDR[src],
		QuietRetries:      q.MACStats.Retries,
		InterferedRetries: in.MACStats.Retries,
	}, nil
}
