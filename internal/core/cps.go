package core

import (
	"fmt"
	"math"

	"cavenet/internal/ca"
	"cavenet/internal/exp"
	"cavenet/internal/geometry"
	"cavenet/internal/mac"
	"cavenet/internal/mobility"
	"cavenet/internal/rng"
	"cavenet/internal/scenario"
	"cavenet/internal/sim"
)

// Protocol selects the routing protocol under test. It is the scenario
// registry's protocol type: the Table I entry points below are adapters
// over the scenario substrate, which owns world assembly.
type Protocol = scenario.Protocol

// The protocols evaluated by the paper, plus the GPSR geographic
// baseline.
const (
	AODV = scenario.AODV
	OLSR = scenario.OLSR
	DYMO = scenario.DYMO
	GPSR = scenario.GPSR
)

// ScenarioConfig mirrors Table I of the paper. Zero values give exactly the
// paper's parameters: 30 nodes on a 3000 m circuit, 100 s of simulated
// time, CBR 5 packets/s × 512 bytes from nodes 1–8 to node 0 between 10 s
// and 90 s, IEEE 802.11 DCF at 2 Mbps without RTS/CTS, 250 m two-ray-ground
// transmission range, HELLO 1 s, TC 2 s.
type ScenarioConfig struct {
	Protocol Protocol

	Nodes         int     // Table I: 30
	CircuitMeters float64 // Table I: 3000 m circuit
	SlowdownP     float64 // NaS randomization while driving (default 0.3)
	CAWarmup      int     // CA steps discarded before the trace (default 300)

	SimTime      sim.Time // Table I: 100 s
	Receiver     int      // Table I: node 0
	Senders      []int    // Table I: nodes 1..8
	Rate         float64  // Table I: 5 packets/s
	PacketBytes  int      // Table I: 512 bytes
	TrafficStart sim.Time // Table I: 10 s
	TrafficStop  sim.Time // Table I: 90 s

	RangeMeters float64 // Table I: 250 m
	DataRateBPS float64 // Table I: 2 Mb/s

	Seed int64

	// OLSRETX switches OLSR to the ETX/LQ metric of §III-B.1.
	OLSRETX bool
	// AODVNoExpandingRing disables AODV's expanding-ring search (ablation).
	AODVNoExpandingRing bool
	// DYMONoPathAccumulation disables DYMO path accumulation (ablation).
	DYMONoPathAccumulation bool
	// NoCapture disables PHY capture so any overlap collides (ablation).
	NoCapture bool
	// RTSThreshold enables the 802.11 RTS/CTS exchange for unicast data of
	// at least this many bytes. Table I says "RTS/CTS: None", so the
	// default is off; the ablation bench measures the trade-off.
	RTSThreshold int
	// StraightLine uses the pre-improvement open-boundary straight-line
	// mobility instead of the circuit (the paper's §III-B motivation).
	StraightLine bool
	// StaticNodes freezes vehicles at their warm-up positions; used by
	// integration tests that need a stable topology.
	StaticNodes bool
}

func (c *ScenarioConfig) normalize() error {
	switch c.Protocol {
	case AODV, OLSR, DYMO, GPSR:
	case "":
		c.Protocol = AODV
	default:
		return fmt.Errorf("core: unknown protocol %q", c.Protocol)
	}
	if c.Nodes == 0 {
		c.Nodes = 30
	}
	if c.CircuitMeters == 0 {
		c.CircuitMeters = 3000
	}
	if c.SlowdownP == 0 {
		c.SlowdownP = 0.3
	}
	if c.CAWarmup == 0 {
		c.CAWarmup = 300
	}
	if c.SimTime == 0 {
		c.SimTime = 100 * sim.Second
	}
	if c.Senders == nil {
		for i := 1; i <= 8; i++ {
			c.Senders = append(c.Senders, i)
		}
	}
	if c.Rate == 0 {
		c.Rate = 5
	}
	if c.PacketBytes == 0 {
		c.PacketBytes = 512
	}
	if c.TrafficStart == 0 {
		c.TrafficStart = 10 * sim.Second
	}
	if c.TrafficStop == 0 {
		c.TrafficStop = 90 * sim.Second
	}
	if c.RangeMeters == 0 {
		c.RangeMeters = 250
	}
	if c.DataRateBPS == 0 {
		c.DataRateBPS = 2e6
	}
	if c.Receiver < 0 || c.Receiver >= c.Nodes {
		return fmt.Errorf("core: receiver %d out of range", c.Receiver)
	}
	for _, s := range c.Senders {
		if s < 0 || s >= c.Nodes {
			return fmt.Errorf("core: sender %d out of range", s)
		}
		if s == c.Receiver {
			return fmt.Errorf("core: sender %d is the receiver", s)
		}
	}
	return nil
}

// ScenarioResult carries everything Figs. 8–11 plot, plus the overhead and
// delay metrics the paper defers to future work.
type ScenarioResult struct {
	Config ScenarioConfig
	// Goodput maps sender ID to its goodput time series in bps, 1-s bins
	// (Figs. 8–10).
	Goodput map[int][]float64
	// PDR maps sender ID to its packet delivery ratio (Fig. 11).
	PDR map[int]float64
	// Sent and Delivered count data packets per sender.
	Sent, Delivered map[int]uint64
	// MeanDelaySec maps sender ID to mean end-to-end delay of delivered
	// packets in seconds.
	MeanDelaySec map[int]float64
	// MeanHops maps sender ID to the average route length used.
	MeanHops map[int]float64
	// ControlPackets and ControlBytes total the routing overhead.
	ControlPackets, ControlBytes uint64
	// MACStats aggregates MAC counters over all nodes.
	MACStats mac.Stats
	// Drops counts data-packet drops by reason.
	Drops map[string]uint64
}

// TotalPDR reports the delivery ratio across all senders.
func (r *ScenarioResult) TotalPDR() float64 {
	var sent, del uint64
	for _, s := range r.Sent {
		sent += s
	}
	for _, d := range r.Delivered {
		del += d
	}
	if sent == 0 {
		return 0
	}
	return float64(del) / float64(sent)
}

// BuildCircuitTrace produces the Table I mobility input: vehicles on a ring
// lane whose circumference is the configured circuit length, warmed into
// the stationary regime, then recorded for the scenario duration.
func BuildCircuitTrace(cfg ScenarioConfig) (*mobility.SampledTrace, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	trace, err := cfg.circuitTrace()
	if err != nil {
		return nil, err
	}
	if cfg.StaticNodes {
		for n := range trace.Positions {
			for i := range trace.Positions[n] {
				trace.Positions[n][i] = trace.Positions[n][0]
			}
		}
	}
	return trace, nil
}

// circuitTrace records the ring through the scenario substrate (it is
// cfg.spec()'s own single-lane road); only the pre-improvement
// open-boundary straight line, which no Spec expresses, is built here.
func (c *ScenarioConfig) circuitTrace() (*mobility.SampledTrace, error) {
	if !c.StraightLine {
		return scenario.BuildTrace(c.spec())
	}
	road, err := ca.NewRoad([]ca.LaneSpec{{
		Config: ca.Config{
			Length:    int(math.Round(c.CircuitMeters / ca.CellLength)),
			Vehicles:  c.Nodes,
			SlowdownP: c.SlowdownP,
			Boundary:  ca.OpenBoundary,
		},
		Placement: geometry.Line{Transform: geometry.Translate(0, 10)},
	}}, rng.NewSource(c.Seed).Stream("ca"))
	if err != nil {
		return nil, err
	}
	mobility.WarmupRoad(road, c.CAWarmup)
	return mobility.RecordRoad(road, int(c.SimTime/sim.Second)+1), nil
}

// RunScenario executes one Table I protocol evaluation and returns the
// paper's metrics.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	trace, err := BuildCircuitTrace(cfg)
	if err != nil {
		return nil, err
	}
	return RunScenarioOnTrace(cfg, trace)
}

// spec maps the Table I configuration onto the scenario substrate: its
// road fields generate the circuit trace (circuitTrace), the rest drives
// the protocol evaluation over it.
func (c *ScenarioConfig) spec() scenario.Spec {
	flows := make([]scenario.Flow, len(c.Senders))
	for i, s := range c.Senders {
		flows[i] = scenario.Flow{
			Src:         s,
			Dst:         c.Receiver,
			Rate:        c.Rate,
			PacketBytes: c.PacketBytes,
			Start:       c.TrafficStart,
			Stop:        c.TrafficStop,
		}
	}
	return scenario.Spec{
		Name:          "table1",
		LaneVehicles:  []int{c.Nodes},
		CircuitMeters: c.CircuitMeters,
		SlowdownP:     c.SlowdownP,
		CAWarmup:      c.CAWarmup,
		Nodes:         c.Nodes,
		Protocol:      c.Protocol,
		SimTime:       c.SimTime,
		RangeMeters:   c.RangeMeters,
		DataRateBPS:   c.DataRateBPS,
		Seed:          c.Seed,
		Flows:         flows,

		OLSRETX:                c.OLSRETX,
		AODVNoExpandingRing:    c.AODVNoExpandingRing,
		DYMONoPathAccumulation: c.DYMONoPathAccumulation,
		NoCapture:              c.NoCapture,
		RTSThreshold:           c.RTSThreshold,
	}
}

// RunScenarioOnTrace runs the protocol evaluation on a caller-provided
// mobility trace (e.g. one parsed from an ns-2 scenario file, preserving
// the paper's BA/CPS separation) — RunScenarioOnSource specialized to
// the materialized oracle. A nil trace means no mobility (a typed nil
// must not masquerade as a live Source).
func RunScenarioOnTrace(cfg ScenarioConfig, trace *mobility.SampledTrace) (*ScenarioResult, error) {
	if trace == nil {
		return RunScenarioOnSource(cfg, nil)
	}
	return RunScenarioOnSource(cfg, trace)
}

// RunScenarioOnSource runs the protocol evaluation over any mobility
// source, streaming or materialized. World assembly is delegated to the
// scenario substrate — this adapter only translates the Table I
// configuration shape.
func RunScenarioOnSource(cfg ScenarioConfig, src mobility.Source) (*ScenarioResult, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	sres, err := scenario.RunOnSource(cfg.spec(), src)
	if err != nil {
		return nil, err
	}
	return &ScenarioResult{
		Config:         cfg,
		Goodput:        sres.Goodput,
		PDR:            sres.PDR,
		Sent:           sres.Sent,
		Delivered:      sres.Delivered,
		MeanDelaySec:   sres.MeanDelaySec,
		MeanHops:       sres.MeanHops,
		ControlPackets: sres.ControlPackets,
		ControlBytes:   sres.ControlBytes,
		MACStats:       sres.MACStats,
		Drops:          sres.Drops,
	}, nil
}

// CompareProtocols runs the Table I scenario once per protocol on the SAME
// mobility trace ("the mobility pattern for all scenarios is the same"),
// which is what makes Fig. 11's per-sender comparison meaningful.
//
// The per-protocol runs execute concurrently on the exp worker pool: each
// builds its own world and kernel, shares only the read-only trace, and
// seeds every RNG stream from cfg.Seed — so the results are identical to
// the old sequential loop for any worker count.
func CompareProtocols(cfg ScenarioConfig, protocols []Protocol) (map[Protocol]*ScenarioResult, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	trace, err := BuildCircuitTrace(cfg)
	if err != nil {
		return nil, err
	}
	results, err := exp.Map(exp.Runner{}, len(protocols), func(i int) (*ScenarioResult, error) {
		c := cfg
		c.Protocol = protocols[i]
		res, err := RunScenarioOnTrace(c, trace)
		if err != nil {
			return nil, fmt.Errorf("core: %s scenario: %w", protocols[i], err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[Protocol]*ScenarioResult, len(protocols))
	for i, p := range protocols {
		out[p] = results[i]
	}
	return out, nil
}
