// Package scenario is the declarative workload registry of the repo: a
// Scenario spec bundles a road/mobility generator (lanes, density,
// signals, ramps), a traffic workload (CBR flows), a routing protocol and
// metric expectations in one plain config struct. Specs are registered
// into a catalogue (Register/Get/Names), runnable from the CLI
// (`cavenet scenario list|run`), sweepable over scenarios × protocols ×
// seeds on the deterministic parallel engine (Sweep), and checkable under
// the cross-protocol invariant harness (RunChecked).
//
// Every future workload registers a Spec here instead of hand-rolling a
// main(): registration buys CLI access, property tests across protocols
// and seeds, determinism regression, and the invariant harness for free.
package scenario

import (
	"fmt"
	"math"

	"cavenet/internal/ca"
	"cavenet/internal/fault"
	"cavenet/internal/sim"
)

// Flow is one constant-bit-rate traffic flow of a scenario.
type Flow struct {
	// Src and Dst are node IDs (global vehicle IDs of the road).
	Src, Dst int
	// Rate is packets per second (default 5, Table I).
	Rate float64
	// PacketBytes is the application payload size (default 512, Table I).
	PacketBytes int
	// Start and Stop bound the active window; zero values default to
	// SimTime/10 and SimTime − SimTime/10 (Table I's 10 s and 90 s shape).
	Start, Stop sim.Time
}

// SignalSpec places a traffic signal on one lane of the scenario road.
type SignalSpec struct {
	// Lane indexes the signalized lane.
	Lane int
	// PositionMeters locates the blocked site along the lane.
	PositionMeters float64
	// GreenSteps/RedSteps set the cycle in CA steps (1 s each); OffsetSteps
	// shifts the phase.
	GreenSteps, RedSteps, OffsetSteps int
}

// Uplink declares the V2I infrastructure uplink of an urban scenario: a
// fixed roadside unit (RSU) placed at a grid intersection, appended to
// the node list after the fleet, advertising an external address range
// via OLSR HNA (the car-to-hotspot workload of the paper's §II). Flows
// may then address any ID in the external range; vehicles route them to
// the RSU — the MANET-side endpoint — which delivers them locally.
// Protocols without network-association support drop such flows
// explicitly, so the workload stays conservation-clean under every
// protocol even though only OLSR can complete the uplink.
type Uplink struct {
	// Row, Col locate the RSU's intersection on the grid.
	Row, Col int
	// ExternalBase and ExternalCount define the advertised external
	// destination range [ExternalBase, ExternalBase+ExternalCount). The
	// range must sit above every node ID.
	ExternalBase, ExternalCount int
}

// Contains reports whether dst falls in the advertised external range.
func (u *Uplink) Contains(dst int) bool {
	return dst >= u.ExternalBase && dst < u.ExternalBase+u.ExternalCount
}

// Expect declares the metric floors a scenario promises to meet under
// every routing protocol; the invariant harness reports a violation when a
// run falls short. Zero values disable a bound.
type Expect struct {
	// MinTotalPDR is the minimum packet delivery ratio across all senders.
	MinTotalPDR float64
	// MinDelivered is the minimum total number of delivered data packets.
	MinDelivered uint64
	// MaxMeanDelaySec caps the per-sender mean end-to-end delay.
	MaxMeanDelaySec float64
}

// Spec is the plain config struct a Scenario is constructed from. The zero
// value (plus a Name) reproduces the paper's Table I single-lane highway.
type Spec struct {
	// Name identifies the scenario in the registry and the CLI.
	Name string
	// Description is the one-line catalogue summary.
	Description string

	// ---- Road / mobility generator ----

	// Lanes is the number of parallel lanes (default 1).
	Lanes int
	// LaneVehicles is the vehicle count per lane. A single entry is
	// replicated across lanes; the default is {30} (Table I).
	LaneVehicles []int
	// CircuitMeters is the ring-lane circumference (default 3000, Table I).
	CircuitMeters float64
	// SlowdownP is the NaS randomization parameter (default 0.3).
	SlowdownP float64
	// CAWarmup is the number of CA steps discarded before recording
	// (default 300).
	CAWarmup int
	// LaneSpacingM separates parallel lanes radially (default 4 m).
	LaneSpacingM float64
	// RandomStart places vehicles at random distinct sites instead of the
	// default even spacing — clustered initial conditions for
	// connectivity studies.
	RandomStart bool
	// LaneChangeP > 0 couples same-direction lanes with the symmetric
	// lane-change rule at that probability.
	LaneChangeP float64
	// Bidirectional reverses the second half of the lanes (opposing
	// traffic, Fig. 1's interference setting). Incompatible with
	// LaneChangeP.
	Bidirectional bool
	// Signals places traffic signals on lanes (queue-forming crosspoints).
	Signals []SignalSpec
	// RampSeconds > 0 staggers network entry over the first RampSeconds of
	// the run (rush hour): node i is parked in an isolated staging area
	// until its activation time i·RampSeconds/(N−1), then joins the road.
	RampSeconds float64
	// ---- Urban road-network generator ----

	// GridRows and GridCols switch the road generator from ring lanes to
	// a Manhattan street grid of one-way signalized segments (both must
	// be >= 2 when either is set; see geometry.Manhattan for the
	// direction scheme). Grid specs size their fleet with GridVehicles
	// and reject the ring-only knobs (Lanes, LaneVehicles, CircuitMeters,
	// Bidirectional, LaneChangeP, Signals, RandomStart, RampSeconds).
	GridRows, GridCols int
	// BlockMeters is the street length between adjacent intersections
	// (default 150 m, a downtown block of 20 CA cells).
	BlockMeters float64
	// GridVehicles is the total fleet, apportioned over the grid's
	// streets proportionally to length (default 40).
	GridVehicles int
	// GridSignalGreen and GridSignalRed set every intersection's
	// exit-signal cycle in CA steps (1 s each); vertical streets run in
	// antiphase. Both zero means unsignalized intersections.
	GridSignalGreen, GridSignalRed int
	// Uplink declares a V2I roadside-unit gateway (urban specs only).
	Uplink *Uplink

	// Heavy marks a scenario too large for the exhaustive property
	// suites (every-scenario × every-protocol × 20 seeds) and for the
	// default sweep catalogue: tests and sweeps cover heavy scenarios
	// with targeted, scaled or explicitly named runs instead. It has no
	// effect on running the scenario itself.
	Heavy bool

	// ---- Network & traffic workload ----

	// Nodes is the station count (default: all vehicles).
	Nodes int
	// Protocol is the routing protocol under test (default AODV).
	Protocol Protocol
	// SimTime is the simulated duration (default 100 s, Table I).
	SimTime sim.Time
	// RangeMeters is the radio decode range (default 250, Table I).
	RangeMeters float64
	// DataRateBPS is the 802.11 data rate (default 2 Mb/s, Table I).
	DataRateBPS float64
	// Seed drives every RNG stream of the scenario.
	Seed int64
	// Flows is the CBR workload; the default is Table I's nodes 1–8 → 0.
	Flows []Flow

	// ---- Ablations ----

	// OLSRETX switches OLSR to the ETX/LQ metric of §III-B.1.
	OLSRETX bool
	// AODVNoExpandingRing disables AODV's expanding-ring search.
	AODVNoExpandingRing bool
	// DYMONoPathAccumulation disables DYMO path accumulation.
	DYMONoPathAccumulation bool
	// NoCapture disables PHY capture so any overlap collides.
	NoCapture bool
	// RTSThreshold enables the 802.11 RTS/CTS exchange for unicast data of
	// at least this many bytes. Table I says "RTS/CTS: None", so the
	// default is off.
	RTSThreshold int

	// ---- Fault injection ----

	// Faults declares the scenario's fault workload (node churn, blackout
	// windows, link impairments); the zero value is fault-free and leaves
	// the run byte-identical to a world that never saw the fault layer.
	// The plan is expanded per run from (Faults, Seed, Nodes, SimTime), so
	// sweeps stay bit-identical for any worker count.
	Faults fault.Spec

	// Expect declares the scenario's metric floors.
	Expect Expect
}

// Urban reports whether the spec uses the road-network (street grid)
// generator instead of ring lanes.
func (s *Spec) Urban() bool { return s.GridRows != 0 || s.GridCols != 0 }

// rsuCount reports the number of fixed roadside-unit nodes appended after
// the fleet.
func (s *Spec) rsuCount() int {
	if s.Uplink != nil {
		return 1
	}
	return 0
}

// GatewayNode reports the RSU gateway's node ID (the first static node
// after the fleet), or -1 when the spec declares no uplink.
func (s *Spec) GatewayNode() int {
	if s.Uplink == nil {
		return -1
	}
	return s.TotalVehicles()
}

// ExternalDst reports whether dst addresses the uplink's external range
// (and therefore terminates at the gateway RSU rather than at a node).
func (s *Spec) ExternalDst(dst int) bool {
	return s.Uplink != nil && s.Uplink.Contains(dst)
}

// TotalVehicles reports the vehicle count across lanes — or the grid
// fleet size for urban specs (after normalize).
func (s *Spec) TotalVehicles() int {
	if s.Urban() {
		return s.GridVehicles
	}
	n := 0
	for _, v := range s.LaneVehicles {
		n += v
	}
	return n
}

// maxGridDim caps the street-grid side length: far beyond any plausible
// workload, small enough that hostile specs (fuzzers, config files)
// cannot force quadratic intersection/segment allocations.
const maxGridDim = 64

// normalizeUrban validates and defaults the street-grid generator knobs.
func (s *Spec) normalizeUrban() error {
	if s.GridRows < 2 || s.GridCols < 2 {
		return fmt.Errorf("scenario %s: street grid %dx%d needs at least 2x2 intersections", s.Name, s.GridRows, s.GridCols)
	}
	if s.GridRows > maxGridDim || s.GridCols > maxGridDim {
		return fmt.Errorf("scenario %s: street grid %dx%d exceeds the %d-intersection side cap", s.Name, s.GridRows, s.GridCols, maxGridDim)
	}
	if s.Lanes != 0 || len(s.LaneVehicles) != 0 || s.CircuitMeters != 0 || s.Bidirectional ||
		s.LaneChangeP != 0 || len(s.Signals) != 0 || s.RandomStart || s.RampSeconds != 0 {
		return fmt.Errorf("scenario %s: ring-road knobs are incompatible with a street grid", s.Name)
	}
	if s.BlockMeters == 0 {
		s.BlockMeters = 150
	}
	if minBlock := float64(s.vmax()+1) * ca.CellLength; s.BlockMeters < minBlock {
		return fmt.Errorf("scenario %s: %v m blocks are shorter than the %v m a street needs (vmax+1 cells)", s.Name, s.BlockMeters, minBlock)
	}
	if s.BlockMeters > 10000 {
		return fmt.Errorf("scenario %s: %v m blocks exceed the 10 km cap", s.Name, s.BlockMeters)
	}
	if s.GridVehicles == 0 {
		s.GridVehicles = 40
	}
	if s.GridVehicles < 0 {
		return fmt.Errorf("scenario %s: negative fleet %d", s.Name, s.GridVehicles)
	}
	// Mirror ca.NewGridNetwork's per-street capacity (half the sites of
	// each street) so over-dense specs fail at validation, not at build.
	cells := int(s.BlockMeters/ca.CellLength + 0.5)
	if cells < s.vmax()+1 {
		cells = s.vmax() + 1
	}
	streets := s.GridRows*(s.GridCols-1) + s.GridCols*(s.GridRows-1)
	if capacity := streets * (cells / 2); s.GridVehicles > capacity {
		return fmt.Errorf("scenario %s: %d vehicles exceed the grid's capacity of %d", s.Name, s.GridVehicles, capacity)
	}
	if s.GridSignalGreen < 0 || s.GridSignalRed < 0 || (s.GridSignalGreen == 0) != (s.GridSignalRed == 0) {
		return fmt.Errorf("scenario %s: signal cycle %d/%d (both phases positive, or both zero for unsignalized)", s.Name, s.GridSignalGreen, s.GridSignalRed)
	}
	if u := s.Uplink; u != nil {
		if u.Row < 0 || u.Row >= s.GridRows || u.Col < 0 || u.Col >= s.GridCols {
			return fmt.Errorf("scenario %s: uplink RSU at intersection (%d,%d) outside the %dx%d grid", s.Name, u.Row, u.Col, s.GridRows, s.GridCols)
		}
		if u.ExternalCount <= 0 || u.ExternalCount > 1<<20 {
			return fmt.Errorf("scenario %s: uplink external range size %d", s.Name, u.ExternalCount)
		}
		if u.ExternalBase <= s.GridVehicles || u.ExternalBase > 1<<30 {
			return fmt.Errorf("scenario %s: uplink external base %d must sit above every node ID (fleet %d + RSU)", s.Name, u.ExternalBase, s.GridVehicles)
		}
	}
	return nil
}

func (s *Spec) normalize() error {
	if s.Urban() {
		if err := s.normalizeUrban(); err != nil {
			return err
		}
		return s.normalizeShared()
	}
	if s.Uplink != nil {
		return fmt.Errorf("scenario %s: a V2I uplink needs a street grid for its RSU", s.Name)
	}
	if s.BlockMeters != 0 || s.GridVehicles != 0 || s.GridSignalGreen != 0 || s.GridSignalRed != 0 {
		return fmt.Errorf("scenario %s: street-grid knobs without GridRows/GridCols", s.Name)
	}
	if s.Lanes == 0 {
		s.Lanes = 1
	}
	if s.Lanes < 0 {
		return fmt.Errorf("scenario %s: negative lane count %d", s.Name, s.Lanes)
	}
	switch len(s.LaneVehicles) {
	case 0:
		s.LaneVehicles = []int{30}
	case 1:
	default:
		if len(s.LaneVehicles) != s.Lanes {
			return fmt.Errorf("scenario %s: %d lane vehicle counts for %d lanes", s.Name, len(s.LaneVehicles), s.Lanes)
		}
	}
	if len(s.LaneVehicles) == 1 && s.Lanes > 1 {
		v := s.LaneVehicles[0]
		s.LaneVehicles = make([]int, s.Lanes)
		for i := range s.LaneVehicles {
			s.LaneVehicles[i] = v
		}
	}
	for i, v := range s.LaneVehicles {
		if v <= 0 {
			return fmt.Errorf("scenario %s: lane %d has %d vehicles", s.Name, i, v)
		}
	}
	if s.CircuitMeters == 0 {
		s.CircuitMeters = 3000
	}
	if s.CircuitMeters < ca.CellLength {
		return fmt.Errorf("scenario %s: circuit %v m shorter than one cell", s.Name, s.CircuitMeters)
	}
	if s.LaneChangeP < 0 || s.LaneChangeP > 1 {
		return fmt.Errorf("scenario %s: lane-change probability %v outside [0,1]", s.Name, s.LaneChangeP)
	}
	if s.LaneChangeP > 0 && s.Bidirectional {
		return fmt.Errorf("scenario %s: lane changes across opposing lanes are not modeled", s.Name)
	}
	if s.LaneChangeP > 0 && s.Lanes < 2 {
		return fmt.Errorf("scenario %s: lane changes need >= 2 lanes", s.Name)
	}
	if s.Bidirectional && s.Lanes < 2 {
		return fmt.Errorf("scenario %s: bidirectional traffic needs >= 2 lanes", s.Name)
	}
	cells := int(math.Round(s.CircuitMeters / ca.CellLength))
	for i, sig := range s.Signals {
		if sig.Lane < 0 || sig.Lane >= s.Lanes {
			return fmt.Errorf("scenario %s: signal %d on lane %d of %d", s.Name, i, sig.Lane, s.Lanes)
		}
		site := int(math.Round(sig.PositionMeters / ca.CellLength))
		if site < 0 || site >= cells {
			return fmt.Errorf("scenario %s: signal %d at %v m outside the lane", s.Name, i, sig.PositionMeters)
		}
	}
	if s.RampSeconds < 0 {
		return fmt.Errorf("scenario %s: negative ramp %v", s.Name, s.RampSeconds)
	}
	return s.normalizeShared()
}

// normalizeShared defaults and validates the knobs common to both road
// generators: CA parameters, station count, protocol, timing, radio and
// the traffic workload.
func (s *Spec) normalizeShared() error {
	if s.SlowdownP == 0 {
		s.SlowdownP = 0.3
	}
	if s.SlowdownP < 0 || s.SlowdownP > 1 {
		return fmt.Errorf("scenario %s: slowdown probability %v outside [0,1]", s.Name, s.SlowdownP)
	}
	if s.CAWarmup == 0 {
		s.CAWarmup = 300
	}
	if s.LaneSpacingM == 0 {
		s.LaneSpacingM = 4
	}
	if s.Urban() {
		// Urban worlds network the whole fleet plus any RSU: the gateway's
		// node ID is TotalVehicles(), and a partial station count would
		// shift it silently.
		want := s.TotalVehicles() + s.rsuCount()
		if s.Nodes == 0 {
			s.Nodes = want
		}
		if s.Nodes != want {
			return fmt.Errorf("scenario %s: %d stations for a grid of %d vehicles + %d RSU", s.Name, s.Nodes, s.TotalVehicles(), s.rsuCount())
		}
	} else {
		if s.Nodes == 0 {
			s.Nodes = s.TotalVehicles()
		}
		if s.Nodes < 0 || s.Nodes > s.TotalVehicles() {
			return fmt.Errorf("scenario %s: %d stations for %d vehicles", s.Name, s.Nodes, s.TotalVehicles())
		}
	}
	switch s.Protocol {
	case AODV, OLSR, DYMO, GPSR:
	case "":
		s.Protocol = AODV
	default:
		return fmt.Errorf("scenario %s: unknown protocol %q", s.Name, s.Protocol)
	}
	if s.SimTime == 0 {
		s.SimTime = 100 * sim.Second
	}
	if s.SimTime < 0 {
		return fmt.Errorf("scenario %s: negative sim time %v", s.Name, s.SimTime)
	}
	// A ramp longer than the horizon would strand the tail of the fleet in
	// the staging area for the whole run — silently turning a density ramp
	// into a smaller static network (e.g. a rushhour run shortened with
	// -time). Clamp so activation always completes with the second half of
	// the run at full density.
	if half := s.SimTime.Seconds() / 2; s.RampSeconds > half {
		s.RampSeconds = half
	}
	if s.RangeMeters == 0 {
		s.RangeMeters = 250
	}
	if s.DataRateBPS == 0 {
		s.DataRateBPS = 2e6
	}
	// nil means "default workload" (Table I's 1–8 → 0); an explicitly
	// empty, non-nil slice is a traffic-free scenario — legitimate for
	// control-overhead-only measurements.
	if s.Flows == nil {
		s.Flows = make([]Flow, 0, 8)
		for i := 1; i <= 8 && i < s.Nodes; i++ {
			s.Flows = append(s.Flows, Flow{Src: i, Dst: 0})
		}
	}
	// A sender must not mix external (uplink) and in-network destinations:
	// per-sender delivery counters would then conflate V2I and V2V traffic
	// and the uplink PDR could not be attributed exactly.
	extSender := make(map[int]bool)
	for i := range s.Flows {
		f := &s.Flows[i]
		ext := s.ExternalDst(f.Dst)
		if f.Src < 0 || f.Src >= s.Nodes || f.Dst < 0 || (!ext && f.Dst >= s.Nodes) {
			return fmt.Errorf("scenario %s: flow %d endpoints %d->%d outside [0,%d)", s.Name, i, f.Src, f.Dst, s.Nodes)
		}
		if was, seen := extSender[f.Src]; seen && was != ext {
			return fmt.Errorf("scenario %s: flow %d: sender %d mixes uplink and in-network destinations", s.Name, i, f.Src)
		}
		extSender[f.Src] = ext
		if f.Src == f.Dst {
			return fmt.Errorf("scenario %s: flow %d sends to itself", s.Name, i)
		}
		if f.Rate == 0 {
			f.Rate = 5
		}
		if f.Rate < 0 {
			return fmt.Errorf("scenario %s: flow %d rate %v", s.Name, i, f.Rate)
		}
		if f.PacketBytes == 0 {
			f.PacketBytes = 512
		}
		if f.Start == 0 {
			f.Start = s.SimTime / 10
		}
		if f.Stop == 0 {
			f.Stop = s.SimTime - s.SimTime/10
		}
		if f.Stop < f.Start {
			return fmt.Errorf("scenario %s: flow %d window [%v,%v] inverted", s.Name, i, f.Start, f.Stop)
		}
	}
	if err := s.Faults.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return nil
}

// Validate normalizes a copy of the spec and reports whether it is
// runnable.
func (s Spec) Validate() error {
	s = s.clone()
	return s.normalize()
}

// Normalized returns a copy of the spec with every default applied.
func (s Spec) Normalized() (Spec, error) {
	s = s.clone()
	err := s.normalize()
	return s, err
}

// clone deep-copies the spec's slices so mutating one copy (normalize
// defaults, Shrunk rewrites) can never alias another — in particular the
// registered catalogue entries. Flows preserves nil-ness: nil means
// "default workload" while an empty non-nil slice means "no traffic", and
// collapsing the latter to nil would resurrect the default.
func (s Spec) clone() Spec {
	s.LaneVehicles = append([]int(nil), s.LaneVehicles...)
	s.Signals = append([]SignalSpec(nil), s.Signals...)
	if s.Flows != nil {
		s.Flows = append(make([]Flow, 0, len(s.Flows)), s.Flows...)
	}
	if s.Uplink != nil {
		u := *s.Uplink
		s.Uplink = &u
	}
	s.Faults = s.Faults.Clone()
	return s
}

// Shrunk returns a copy scaled down for fast property tests: simulation
// time is cut to 20 s, flow windows to [2 s, 18 s], the CA warmup to 100
// steps and any activation ramp to the first half of the run. Densities,
// lane structure and flow endpoints — the scenario's identity — are
// untouched.
func (s Spec) Shrunk() Spec {
	s = s.clone()
	s.shrink()
	return s
}

// shrink is Shrunk in place, for a spec the caller owns.
func (s *Spec) shrink() {
	if err := s.normalize(); err != nil {
		return
	}
	if s.SimTime > 20*sim.Second {
		s.SimTime = 20 * sim.Second
	}
	for i := range s.Flows {
		s.Flows[i].Start = 2 * sim.Second
		s.Flows[i].Stop = s.SimTime - 2*sim.Second
	}
	if s.CAWarmup > 100 {
		s.CAWarmup = 100
	}
	if half := s.SimTime.Seconds() / 2; s.RampSeconds > half {
		s.RampSeconds = half
	}
}

// WithVehicles returns a copy of the spec rescaled to a total of n
// vehicles at the original traffic density: vehicles are distributed
// over the existing lanes proportionally and the circuit (with its
// signal positions) is stretched or shrunk by the same factor, so the
// CA dynamics stay in the same regime — the quick scale-experiment knob
// behind `cavenet scenario run -nodes`. Urban specs rescale the same
// way: the block length stretches by the fleet factor (snapped to the
// CA cell grid), so vehicles-per-street-meter is preserved while the
// grid shape, signals and any uplink stay fixed. Flows are kept as
// declared; scaling below a flow endpoint is a validation error.
func (s Spec) WithVehicles(n int) (Spec, error) {
	s = s.clone()
	err := s.rescale(n)
	return s, err
}

// rescale is WithVehicles in place, for a spec the caller owns.
func (s *Spec) rescale(n int) error {
	if err := s.normalize(); err != nil {
		return err
	}
	orig := s.TotalVehicles()
	if n <= 0 {
		return fmt.Errorf("scenario %s: cannot rescale to %d vehicles", s.Name, n)
	}
	if n == orig {
		return nil
	}
	factor := float64(n) / float64(orig)
	if s.Urban() {
		s.GridVehicles = n
		s.BlockMeters = math.Round(s.BlockMeters*factor/ca.CellLength) * ca.CellLength
		s.Nodes = n + s.rsuCount()
		return s.normalize()
	}
	// Largest-remainder apportionment keeps every lane populated and the
	// counts summing exactly to n.
	counts := make([]int, len(s.LaneVehicles))
	rem := make([]float64, len(s.LaneVehicles))
	total := 0
	for i, v := range s.LaneVehicles {
		exact := float64(v) * factor
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		total += counts[i]
	}
	for total < n {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
		total++
	}
	for i := range counts {
		if counts[i] == 0 {
			return fmt.Errorf("scenario %s: rescaling to %d vehicles empties lane %d", s.Name, n, i)
		}
	}
	s.LaneVehicles = counts
	s.CircuitMeters = math.Round(s.CircuitMeters*factor/ca.CellLength) * ca.CellLength
	for i := range s.Signals {
		s.Signals[i].PositionMeters *= factor
	}
	s.Nodes = n
	return s.normalize()
}

// WithSimTime returns a copy of the spec with the simulated duration
// replaced and every flow window cleared, so normalization re-derives the
// windows from the new horizon — the `-time` override of `cavenet
// scenario run` and `scenario sweep`. The copy is not normalized.
func (s Spec) WithSimTime(d sim.Time) Spec {
	s = s.clone()
	s.setSimTime(d)
	return s
}

// setSimTime is WithSimTime in place, for a spec the caller owns.
func (s *Spec) setSimTime(d sim.Time) {
	s.SimTime = d
	for i := range s.Flows {
		s.Flows[i].Start = 0
		s.Flows[i].Stop = 0
	}
}

// activationSteps reports, for a ramp scenario, the trace sample index at
// which each node joins the road (0 for always-active nodes); nil without
// a ramp.
func (s *Spec) activationSteps() []int {
	if s.RampSeconds <= 0 || s.Nodes < 2 {
		return nil
	}
	steps := make([]int, s.Nodes)
	for i := range steps {
		at := s.RampSeconds * float64(i) / float64(s.Nodes-1)
		steps[i] = int(math.Ceil(at))
	}
	return steps
}

// vmax reports the speed limit in sites per step (the CA default; specs
// currently do not override it).
func (s *Spec) vmax() int { return ca.DefaultVMax }

// MaxSampleStepMeters bounds how far any vehicle can move between two
// trace samples: the CA speed limit plus one lane-change sideways hop,
// with a meter of slack for ring-chord rounding.
func (s *Spec) MaxSampleStepMeters() float64 {
	return float64(s.vmax())*ca.CellLength + s.LaneSpacingM + 1
}
