// Package cavenet is a Go reproduction of CAVENET, the Cellular Automaton
// based VEhicular NETwork simulation tool of Barolli et al. (ICDCS
// Workshops 2010).
//
// CAVENET separates vehicular-network simulation into two blocks:
//
//   - the Behavioural Analyzer generates and analyses vehicle mobility with
//     a 1-dimensional Nagel–Schreckenberg cellular automaton (fundamental
//     diagrams, space-time plots, stationarity and long-range-dependence
//     analysis);
//   - the Communication Protocol Simulator evaluates MANET routing
//     protocols (AODV, OLSR, DYMO) over those mobility patterns on an
//     IEEE 802.11 DCF / two-ray-ground network substrate.
//
// This package is the public facade. The quickstart:
//
//	res, err := cavenet.Run(cavenet.Scenario{Protocol: cavenet.DYMO, Seed: 1})
//	fmt.Println(res.TotalPDR())
//
// runs the paper's Table I scenario (30 vehicles on a 3000 m circuit, CBR
// traffic from nodes 1–8 to node 0) and returns the goodput and packet
// delivery metrics of Figs. 8–11.
package cavenet

import (
	"fmt"
	"io"

	"cavenet/internal/core"
	"cavenet/internal/mobility"
	"cavenet/internal/scenario"
	"cavenet/internal/stats"
	"cavenet/internal/trace"
)

// Protocol names a routing protocol under test.
type Protocol = scenario.Protocol

// The routing protocols evaluated by the paper, plus the GPSR geographic
// baseline added for the urban road-network workloads.
const (
	AODV = scenario.AODV
	OLSR = scenario.OLSR
	DYMO = scenario.DYMO
	GPSR = scenario.GPSR
)

// Scenario is the declarative description of one experiment: road
// generator, CBR flows, protocol, radio and metric expectations in one
// plain struct. The zero value reproduces the paper's Table I exactly;
// the registered catalogue (scenarios.go) holds the named workloads.
//
// Two fields deserve a second look. Nodes is the number of *stations*
// over the fleet, not the fleet size: N vehicles on the circuit is
// LaneVehicles: []int{N}. And a flow's zero Start/Stop derive from the
// horizon (SimTime/10 and SimTime − SimTime/10, Table I's 10 s and 90 s
// at the default 100 s); spell the window out in Flows to pin it.
type Scenario = scenario.Spec

// Result carries the evaluation outputs: per-sender goodput series
// (Figs. 8–10), PDR (Fig. 11), delays, routing overhead and MAC counters.
type Result = scenario.Result

// Run generates the scenario's mobility and executes it.
func Run(s Scenario) (*Result, error) { return scenario.Run(s) }

// MobilitySource is the streaming mobility substrate: a forward-only
// cursor over node positions with O(nodes) retained state. A recorded
// *mobility.SampledTrace satisfies it, as do the live CA road, ns-2 and
// BonnMotion playback sources.
type MobilitySource = mobility.Source

// RunOnTrace executes a scenario over a caller-supplied mobility trace,
// e.g. one parsed from an ns-2 scenario file.
func RunOnTrace(s Scenario, t *mobility.SampledTrace) (*Result, error) {
	return scenario.RunOnTrace(s, t)
}

// RunOnSource executes a scenario over any mobility source — streaming
// (O(nodes) memory, closed-loop capable) or materialized.
func RunOnSource(s Scenario, src MobilitySource) (*Result, error) {
	return scenario.RunOnSource(s, src)
}

// Compare runs the same scenario (and the same mobility trace) once per
// protocol, the way the paper compares AODV, OLSR and DYMO.
func Compare(s Scenario, protocols []Protocol) (map[Protocol]*Result, error) {
	return scenario.Compare(s, protocols)
}

// SweepConfig spans a scenario × protocol × seed grid. The scenario axis
// is a list of catalogue names or of Scenario values (Specs): the paper's
// density sweep is Table I at several LaneVehicles.
type SweepConfig = scenario.SweepConfig

// SweepRow is one aggregated (scenario, protocol) cell of a sweep.
type SweepRow = scenario.SweepRow

// Estimate is a mean ± spread summary of Monte-Carlo replications.
type Estimate = stats.Estimate

// Sweep executes a scenario × protocol × seed grid on the deterministic
// parallel experiment engine: replications run concurrently (one worker
// per core unless cfg.Workers says otherwise), every trial on its own
// forked RNG stream, all protocols of a trial over the same mobility, and
// the aggregated output is bit-identical for any worker count.
func Sweep(cfg SweepConfig) ([]SweepRow, error) { return scenario.Sweep(cfg) }

// CircuitTrace generates only the scenario's mobility (for Table I:
// vehicles on a ring "circuit" driven by the NaS cellular automaton,
// recorded after warmup) without running the network — the materialized
// view of ScenarioSource.
func CircuitTrace(s Scenario) (*mobility.SampledTrace, error) { return scenario.BuildTrace(s) }

// StraightLineTrace generates the first CAVENET version's mobility for
// the scenario's fleet: one open-boundary straight lane instead of the
// circuit. Run it with RunOnTrace against Run to measure the paper's
// §III-B improvement.
func StraightLineTrace(s Scenario) (*mobility.SampledTrace, error) {
	return core.StraightLineTrace(s)
}

// ExportNS2 writes a mobility trace as an ns-2 scenario file, the coupling
// format of the paper's Fig. 3.
func ExportNS2(w io.Writer, t *mobility.SampledTrace) error {
	return trace.Write(w, trace.FromSampled(t))
}

// ImportNS2 parses an ns-2 scenario file into a sampled mobility trace.
// interval and duration (seconds) control the re-sampling of the setdest
// playback.
func ImportNS2(r io.Reader, interval, duration float64) (*mobility.SampledTrace, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("cavenet: non-positive sample interval %v", interval)
	}
	script, err := trace.Parse(r)
	if err != nil {
		return nil, err
	}
	if len(script.Nodes) == 0 {
		return script.Sample(interval, duration), nil
	}
	src, err := script.Source(interval, duration)
	if err != nil {
		return nil, err
	}
	return mobility.Record(src), nil
}

// ImportNS2Source parses an ns-2 scenario file into a streaming mobility
// source: the setdest playback advances live as the simulation pulls
// positions, retaining O(nodes) state instead of the full re-sampled
// matrix. Bit-identical to running on the ImportNS2 trace.
func ImportNS2Source(r io.Reader, interval, duration float64) (MobilitySource, error) {
	script, err := trace.Parse(r)
	if err != nil {
		return nil, err
	}
	return script.Source(interval, duration)
}
