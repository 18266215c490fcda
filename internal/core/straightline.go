package core

import (
	"fmt"
	"math"

	"cavenet/internal/ca"
	"cavenet/internal/geometry"
	"cavenet/internal/mobility"
	"cavenet/internal/rng"
	"cavenet/internal/scenario"
)

// StraightLineTrace records the mobility of CAVENET's first version, the
// one the paper's §III-B improves on: the spec's fleet on one open-boundary
// straight lane of the circuit's length, where a vehicle leaving the end
// re-enters at the start and head and tail cannot talk. No Spec expresses
// an open boundary, so this is a trace constructor rather than a knob:
// run it with scenario.RunOnTrace(s, trace) against scenario.Run(s).
func StraightLineTrace(s scenario.Spec) (*mobility.SampledTrace, error) {
	s, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	if s.Urban() {
		return nil, fmt.Errorf("scenario %s: a street grid has no straight-line variant", s.Name)
	}
	road, err := ca.NewRoad([]ca.LaneSpec{{
		Config: ca.Config{
			Length:    int(math.Round(s.CircuitMeters / ca.CellLength)),
			Vehicles:  s.TotalVehicles(),
			SlowdownP: s.SlowdownP,
			Boundary:  ca.OpenBoundary,
		},
		Placement: geometry.Line{Transform: geometry.Translate(0, 10)},
	}}, rng.NewSource(s.Seed).Stream("ca"))
	if err != nil {
		return nil, err
	}
	mobility.WarmupRoad(road, s.CAWarmup)
	return mobility.RecordRoad(road, int(s.SimTime.Seconds())+1), nil
}
