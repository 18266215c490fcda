package scenario

import (
	"fmt"
	"math"

	"cavenet/internal/ca"
	"cavenet/internal/geometry"
	"cavenet/internal/mobility"
	"cavenet/internal/rng"
	"cavenet/internal/scenario/check"
)

// buildNetwork lays the spec's Manhattan street grid down as a CA network
// of one-way signalized segments.
func buildNetwork(s *Spec) (*ca.Network, *geometry.RoadGrid, error) {
	grid, err := geometry.Manhattan(s.GridRows, s.GridCols, s.BlockMeters, geometry.Vec2{})
	if err != nil {
		return nil, nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	src := rng.NewSource(s.Seed)
	net, err := ca.NewGridNetwork(grid, ca.GridNetworkConfig{
		Vehicles:    s.GridVehicles,
		SlowdownP:   s.SlowdownP,
		SignalGreen: s.GridSignalGreen,
		SignalRed:   s.GridSignalRed,
	}, src.Stream("ca"))
	if err != nil {
		return nil, nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return net, grid, nil
}

// rsuPositions reports the static node rows appended after the fleet: the
// uplink RSU parked curbside at its intersection. The (6, 6) m offset
// keeps the RSU off the exact intersection point a vehicle can occupy —
// zero radio distance is a propagation-model singularity, and a real
// roadside unit stands on the corner, not in the junction.
func (s *Spec) rsuPositions(grid *geometry.RoadGrid) []geometry.Vec2 {
	if s.Uplink == nil {
		return nil
	}
	p := grid.Intersections[grid.Intersection(s.Uplink.Row, s.Uplink.Col)]
	return []geometry.Vec2{{X: p.X + 6, Y: p.Y + 6}}
}

// buildRoad assembles the spec's ring road: one lane per Lanes entry on
// concentric circles LaneSpacingM apart, signals installed, lane-change
// coupling enabled when requested.
func buildRoad(s *Spec) (*ca.Road, error) {
	cells := int(math.Round(s.CircuitMeters / ca.CellLength))
	src := rng.NewSource(s.Seed)
	specs := make([]ca.LaneSpec, 0, s.Lanes)
	for li := 0; li < s.Lanes; li++ {
		var signals []ca.Signal
		for _, sig := range s.Signals {
			if sig.Lane != li {
				continue
			}
			signals = append(signals, ca.Signal{
				Site:       int(math.Round(sig.PositionMeters / ca.CellLength)),
				GreenSteps: sig.GreenSteps,
				RedSteps:   sig.RedSteps,
				Offset:     sig.OffsetSteps,
			})
		}
		placement := ca.EvenPlacement
		if s.RandomStart {
			placement = ca.RandomPlacement
		}
		specs = append(specs, ca.LaneSpec{
			Config: ca.Config{
				Length:    cells,
				Vehicles:  s.LaneVehicles[li],
				SlowdownP: s.SlowdownP,
				Boundary:  ca.RingBoundary,
				Placement: placement,
			},
			Placement: geometry.Ring{
				Center:        geometry.Vec2{X: s.CircuitMeters / 2, Y: s.CircuitMeters / 2},
				Circumference: s.CircuitMeters,
				RadialOffset:  float64(li) * s.LaneSpacingM,
			},
			Reversed: s.Bidirectional && li >= (s.Lanes+1)/2,
			Signals:  signals,
		})
	}
	road, err := ca.NewRoad(specs, src.Stream("ca"))
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if s.LaneChangeP > 0 {
		if err := road.EnableLaneChanges(ca.LaneChange{P: s.LaneChangeP}, src.Stream("lanechange")); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}
	return road, nil
}

// BuildSource generates the scenario's mobility as a streaming source:
// the CA road warmed up, then stepping live (O(nodes) retained state) as
// the simulation pulls positions, with the activation-ramp staging
// applied as a per-sample overlay for rush-hour specs.
func BuildSource(s Spec) (mobility.Source, error) {
	s = s.clone()
	if err := s.normalize(); err != nil {
		return nil, err
	}
	return buildSource(&s, nil)
}

// BuildTrace generates the scenario's mobility input as a materialized
// trace: Record over BuildSource. It is the differential oracle for the
// streaming path — a run on the recording is bit-identical to a run on
// the source, which the streamed-vs-recorded property test asserts for
// the whole catalogue.
func BuildTrace(s Spec) (*mobility.SampledTrace, error) {
	s = s.clone()
	if err := s.normalize(); err != nil {
		return nil, err
	}
	return buildTrace(&s)
}

// StraightLineTrace records the mobility of CAVENET's first version, the
// one the paper's §III-B improves on: the spec's fleet on one open-boundary
// straight lane of the circuit's length, where a vehicle leaving the end
// re-enters at the start and head and tail cannot talk. No Spec expresses
// an open boundary, so this is a trace constructor rather than a knob:
// run it with RunOnTrace(s, trace) against Run(s).
func StraightLineTrace(s Spec) (*mobility.SampledTrace, error) {
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

func buildTrace(s *Spec) (*mobility.SampledTrace, error) {
	src, err := buildSource(s, nil)
	if err != nil {
		return nil, err
	}
	return mobility.Record(src), nil
}

func buildSource(s *Spec, report *check.Report) (*mobility.Stream, error) {
	if s.Urban() {
		return buildUrbanSource(s, report)
	}
	road, err := buildRoad(s)
	if err != nil {
		return nil, err
	}
	var after func()
	var onSample func(int, []geometry.Vec2)
	if report != nil {
		watcher := check.WatchRoad(road, report)
		after = watcher.AfterStep
		onSample = check.WatchTrace(s.MaxSampleStepMeters(), s.activationSteps(), report).OnSample
	}
	mobility.WarmupRoadFunc(road, s.CAWarmup, after)
	steps := int(s.SimTime.Seconds()) + 1
	src, err := mobility.NewRoadSource(mobility.RoadSourceConfig{
		Road:      road,
		Steps:     steps,
		AfterStep: after,
		Overlay:   rampOverlay(s),
		OnSample:  onSample,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return src, nil
}

// buildUrbanSource streams the street-grid CA network as the mobility
// source, with the uplink RSU (if any) appended as a static row. Same
// identity contract as the ring path: vehicle i is sample column i for
// the whole run, then infrastructure rows.
func buildUrbanSource(s *Spec, report *check.Report) (*mobility.Stream, error) {
	net, grid, err := buildNetwork(s)
	if err != nil {
		return nil, err
	}
	var after func()
	var onSample func(int, []geometry.Vec2)
	if report != nil {
		watcher := check.WatchNetwork(net, report)
		after = watcher.AfterStep
		onSample = check.WatchTrace(s.MaxSampleStepMeters(), nil, report).OnSample
	}
	mobility.WarmupRoadFunc(net, s.CAWarmup, after)
	steps := int(s.SimTime.Seconds()) + 1
	src, err := mobility.NewRoadSource(mobility.RoadSourceConfig{
		Road:      net,
		Steps:     steps,
		Static:    s.rsuPositions(grid),
		AfterStep: after,
		OnSample:  onSample,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return src, nil
}

// rampOverlay parks every node in an isolated staging spot until its
// activation step — the rush-hour density ramp, applied per produced
// sample row instead of edited into a materialized trace. Staging spots
// are spaced beyond the carrier-sense range (2.2× the decode range, plus
// margin) of the road and of each other, so a staged vehicle is
// radio-dark until it merges, whatever radio range the spec configures.
// Nil without a ramp.
func rampOverlay(s *Spec) func(k int, row []geometry.Vec2) {
	act := s.activationSteps()
	if act == nil {
		return nil
	}
	spacing := 600.0
	if cs := s.RangeMeters * 2.2 * 1.05; cs > spacing {
		spacing = cs
	}
	return func(k int, row []geometry.Vec2) {
		for n, at := range act {
			if n >= len(row) {
				break
			}
			if k < at {
				row[n] = geometry.Vec2{X: -spacing * float64(n+1), Y: -spacing}
			}
		}
	}
}
