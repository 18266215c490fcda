package scenario

import (
	"fmt"

	"cavenet/internal/exp"
	"cavenet/internal/fault"
	"cavenet/internal/mac"
	"cavenet/internal/metrics"
	"cavenet/internal/mobility"
	"cavenet/internal/netsim"
	"cavenet/internal/phy"
	"cavenet/internal/routing/olsr"
	"cavenet/internal/scenario/check"
	"cavenet/internal/sim"
	"cavenet/internal/traffic"
)

// Result carries a scenario run's outcome: the paper's metrics keyed by
// sender node ID, plus the aggregate overhead and MAC counters.
type Result struct {
	// Spec is the normalized scenario that ran.
	Spec Spec
	// Senders lists the distinct flow sources in first-appearance order.
	Senders []int
	// Goodput maps sender ID to its goodput time series in bps, 1-s bins.
	Goodput map[int][]float64
	// PDR maps sender ID to its packet delivery ratio.
	PDR map[int]float64
	// Sent and Delivered count data packets per sender.
	Sent, Delivered map[int]uint64
	// MeanDelaySec maps sender ID to the mean end-to-end delay of its
	// delivered packets.
	MeanDelaySec map[int]float64
	// MeanHops maps sender ID to the average route length used.
	MeanHops map[int]float64
	// ControlPackets and ControlBytes total the routing overhead every node
	// sent, including what was sent by routers a crash later replaced.
	ControlPackets, ControlBytes uint64
	// InFlight is sent − delivered − dropped at end of run. Drops counts
	// each fork's witness drop, so it can be negative; see
	// metrics.Collector.InFlight.
	InFlight int64
	// MACStats aggregates MAC counters over all nodes.
	MACStats mac.Stats
	// Drops counts data-packet drops by reason.
	Drops map[string]uint64
	// Unreachable maps sender ID to packets dropped because routing had no
	// route to their destination — the loss signature of a dead or
	// never-reachable destination, kept apart from congestion loss.
	Unreachable map[int]uint64
	// Resilience summarizes traffic against the fault plan; nil when the
	// scenario declares no faults, so fault-free results stay structurally
	// identical to pre-fault ones.
	Resilience *fault.Resilience
	// Uplink summarizes the V2I uplink workload; nil unless the spec
	// declares an uplink and at least one flow targets its external range.
	Uplink *UplinkStats
}

// UplinkStats aggregates the flows addressed to the uplink's external
// range — the traffic that must exit the MANET through the RSU gateway.
// Senders cannot mix uplink and in-network destinations (normalize
// rejects it), so these totals attribute exactly.
type UplinkStats struct {
	Sent, Delivered uint64
	PDR             float64
}

// TotalPDR reports the delivery ratio across all senders.
func (r *Result) TotalPDR() float64 {
	var sent, del uint64
	for _, s := range r.Sent { // order-free: an integer sum
		sent += s
	}
	for _, d := range r.Delivered { // order-free: an integer sum
		del += d
	}
	if sent == 0 {
		return 0
	}
	return float64(del) / float64(sent)
}

// TotalDelivered reports the delivered packet count across all senders.
func (r *Result) TotalDelivered() uint64 {
	var del uint64
	for _, d := range r.Delivered { // order-free: an integer sum
		del += d
	}
	return del
}

// Run generates the spec's mobility and executes the scenario on the
// streaming substrate: the CA road steps live inside the kernel, O(nodes)
// mobility state, no materialized trace. The recorded path (BuildTrace +
// RunOnTrace) is the retained differential oracle — bit-identical by the
// streamed-vs-recorded property test.
func Run(s Spec) (*Result, error) {
	s = s.clone()
	if err := s.normalize(); err != nil {
		return nil, err
	}
	src, err := buildSource(&s, nil)
	if err != nil {
		return nil, err
	}
	res, _, err := runOnSource(&s, src, nil, nil)
	return res, err
}

// runWork is what a run cost, which no Result byte shows: the kernel's and
// the channel's work counts, and OLSR's recompute stamps and kernel runs
// summed over the routers alive at the horizon.
type runWork struct {
	kernel sim.Work
	air    phy.Work
	olsr   olsr.TableStats
}

// RunOnSource executes the scenario's network evaluation over a
// caller-provided mobility source (streaming or materialized).
func RunOnSource(s Spec, src mobility.Source) (*Result, error) {
	s = s.clone()
	if err := s.normalize(); err != nil {
		return nil, err
	}
	res, _, err := runOnSource(&s, src, nil, nil)
	return res, err
}

// RunOnTrace executes the scenario's network evaluation over a
// caller-provided materialized mobility trace — RunOnSource specialized
// to the recorded oracle. A nil trace means no mobility (a typed nil
// must not masquerade as a live Source).
func RunOnTrace(s Spec, trace *mobility.SampledTrace) (*Result, error) {
	if trace == nil {
		return RunOnSource(s, nil)
	}
	return RunOnSource(s, trace)
}

// Compare runs the scenario once per protocol over the SAME recorded
// mobility ("the mobility pattern for all scenarios is the same"), which
// is what makes Fig. 11's per-sender comparison meaningful. The runs
// execute concurrently on the exp worker pool: each builds its own world
// and kernel, shares only the read-only trace, and seeds every RNG
// stream from s.Seed — so the results equal direct runs over that trace
// for any worker count.
func Compare(s Spec, protocols []Protocol) (map[Protocol]*Result, error) {
	trace, err := BuildTrace(s)
	if err != nil {
		return nil, err
	}
	results, err := exp.Map(exp.Runner{}, len(protocols), func(i int) (*Result, error) {
		run := s
		run.Protocol = protocols[i]
		return RunOnTrace(run, trace)
	})
	if err != nil {
		return nil, err
	}
	out := make(map[Protocol]*Result, len(protocols))
	for i, p := range protocols {
		out[p] = results[i]
	}
	return out, nil
}

// RunChecked runs the scenario under the full invariant harness: CA and
// trace sanity consumed from the mobility stream as it advances, the
// packet-conservation ledger, TTL discipline, AODV/DYMO loop freedom at
// every route write and OLSR tree consistency at every routing-table
// build during the run, custody settlement afterwards, and the spec's
// metric expectations on the result. The returned report lists every
// violation; err covers configuration problems only.
func RunChecked(s Spec) (*Result, *check.Report, error) {
	s = s.clone()
	if err := s.normalize(); err != nil {
		return nil, nil, err
	}
	report := check.NewReport()
	src, err := buildSource(&s, report)
	if err != nil {
		return nil, nil, err
	}
	res, _, err := runCheckedOnSource(&s, src, report)
	return res, report, err
}

// RunCheckedOnSource is RunChecked over a pre-built mobility source whose
// generation-time checks (if any) the caller owns.
func RunCheckedOnSource(s Spec, src mobility.Source) (*Result, *check.Report, error) {
	s = s.clone()
	if err := s.normalize(); err != nil {
		return nil, nil, err
	}
	report := check.NewReport()
	res, _, err := runCheckedOnSource(&s, src, report)
	return res, report, err
}

func runCheckedOnSource(s *Spec, src mobility.Source, report *check.Report) (*Result, runWork, error) {
	res, work, err := runOnSource(s, src, report, nil)
	if err != nil {
		return nil, runWork{}, err
	}
	checkExpect(s, res, report)
	return res, work, nil
}

// checkExpect evaluates the spec's metric floors on a finished result.
func checkExpect(s *Spec, res *Result, report *check.Report) {
	e := s.Expect
	if e.MinTotalPDR > 0 {
		if pdr := res.TotalPDR(); pdr < e.MinTotalPDR {
			report.Add("expect", "total PDR %.3f below the scenario's floor %.3f", pdr, e.MinTotalPDR)
		}
	}
	if e.MinDelivered > 0 {
		if del := res.TotalDelivered(); del < e.MinDelivered {
			report.Add("expect", "%d packets delivered, scenario promises >= %d", del, e.MinDelivered)
		}
	}
	if e.MaxMeanDelaySec > 0 {
		for _, snd := range res.Senders {
			if d := res.MeanDelaySec[snd]; d > e.MaxMeanDelaySec {
				report.Add("expect", "sender %d mean delay %.3fs above the scenario's cap %.3fs", snd, d, e.MaxMeanDelaySec)
			}
		}
	}
}

// runOnSource assembles the world — this is the single place in the repo
// where a protocol-evaluation world is wired together — and executes the
// run, pulling node positions from the mobility source per tick. A
// non-nil report additionally installs the invariant ledger and the loop
// checks, which run at every route write and routing-table build, and
// after the run settles custody and holds the tree check to the routers'
// build count; a non-nil observe is installed last. Beside the Result it
// returns the run's work counts, which a checked run leaves equal to the
// unchecked run's.
func runOnSource(s *Spec, src mobility.Source, report *check.Report, observe func(netsim.PacketEvent)) (*Result, runWork, error) {
	capture := 10.0
	if s.NoCapture {
		capture = 0
	}
	factory := s.routerFactory()
	var writeLoops *check.WriteLoops
	if report != nil {
		writeLoops = check.NewWriteLoops(report)
		factory = writeLoops.Wrap(factory)
	}
	world, err := netsim.NewWorld(netsim.WorldConfig{
		Nodes:       s.Nodes,
		Seed:        s.Seed,
		Propagation: phy.TwoRayGround{},
		Channel: phy.Config{
			RxRangeM:     s.RangeMeters,
			CSRangeM:     s.RangeMeters * 2.2,
			CaptureRatio: capture,
		},
		MAC:      mac.Config{DataRateBPS: s.DataRateBPS, RTSThreshold: s.RTSThreshold},
		Mobility: src,
	}, factory)
	if err != nil {
		return nil, runWork{}, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if writeLoops != nil {
		writeLoops.Bind(world)
	}

	collector := metrics.NewCollector(sim.Second, s.SimTime)
	collector.Bind(world)

	var ledger *check.Ledger
	if report != nil {
		ledger = check.NewLedger(report)
		world.Observe(ledger.Observe)
	}

	// Fault plan: expanded deterministically from the spec and applied as
	// kernel-scheduled actuators. An empty plan installs nothing — the
	// fault-free path stays byte-identical to a world that never imported
	// the fault layer (the empty-plan differential test pins this).
	var meter *fault.Meter
	if !s.Faults.Empty() {
		plan, err := s.Faults.Build(s.Seed, s.Nodes, s.SimTime)
		if err != nil {
			return nil, runWork{}, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		if err := fault.Apply(world, plan); err != nil {
			return nil, runWork{}, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		meter = fault.NewMeter(plan, s.SimTime)
		world.Observe(meter.Observe)
	}
	if observe != nil {
		world.Observe(observe)
	}

	// One sink per distinct destination node, attached before any source
	// starts (flows all ride the CBR port). External uplink destinations
	// terminate at the gateway RSU — the MANET-side endpoint of the
	// advertised range — so every external ID shares the gateway's sink.
	sinks := make(map[int]*traffic.Sink)
	for _, f := range s.Flows {
		node := f.Dst
		if s.ExternalDst(f.Dst) {
			node = s.GatewayNode()
		}
		if sinks[node] == nil {
			sk := &traffic.Sink{}
			world.Node(node).AttachPort(netsim.PortCBR, sk)
			sinks[node] = sk
		}
	}
	for _, f := range s.Flows {
		cbr := traffic.NewCBR(world.Node(f.Src), traffic.CBRConfig{
			Dst:         netsim.NodeID(f.Dst),
			PacketBytes: f.PacketBytes,
			Rate:        f.Rate,
			Start:       f.Start,
			Stop:        f.Stop,
		})
		cbr.Start()
	}

	world.Run(s.SimTime)

	work := runWork{kernel: world.Kernel.Work(), air: world.Channel.Work()}
	for _, n := range world.Nodes() {
		if r, ok := n.Router().(*olsr.Router); ok {
			st := r.TableStats()
			work.olsr.Recomputes += st.Recomputes
			work.olsr.MPRRuns += st.MPRRuns
			work.olsr.RouteRuns += st.RouteRuns
		}
	}
	if report != nil {
		writeLoops.Settle(work.olsr.RouteRuns)
		ledger.Finish(world)
	}

	senders := make([]int, 0, len(s.Flows))
	seen := make(map[int]bool, len(s.Flows))
	for _, f := range s.Flows {
		if !seen[f.Src] {
			seen[f.Src] = true
			senders = append(senders, f.Src)
		}
	}
	res := &Result{
		Spec:         *s,
		Senders:      senders,
		Goodput:      make(map[int][]float64, len(senders)),
		PDR:          make(map[int]float64, len(senders)),
		Sent:         make(map[int]uint64, len(senders)),
		Delivered:    make(map[int]uint64, len(senders)),
		MeanDelaySec: make(map[int]float64, len(senders)),
		MeanHops:     make(map[int]float64, len(senders)),
		InFlight:     collector.InFlight(),
		Drops:        collector.Drops(),
		Unreachable:  make(map[int]uint64, len(senders)),
	}
	for _, snd := range senders {
		id := netsim.NodeID(snd)
		res.Goodput[snd] = collector.GoodputBPS(id)
		res.PDR[snd] = collector.PDR(id)
		res.Sent[snd] = collector.Sent(id)
		res.Delivered[snd] = collector.Delivered(id)
		res.MeanDelaySec[snd] = collector.MeanDelay(id).Seconds()
		res.MeanHops[snd] = collector.MeanHops(id)
		if u := collector.Unreachable(id); u > 0 {
			res.Unreachable[snd] = u
		}
	}
	if meter != nil {
		r := meter.Result()
		res.Resilience = &r
	}
	if s.Uplink != nil {
		ext := make(map[int]bool, len(s.Flows))
		for _, f := range s.Flows {
			if s.ExternalDst(f.Dst) {
				ext[f.Src] = true
			}
		}
		if len(ext) > 0 {
			u := &UplinkStats{}
			for _, snd := range senders {
				if !ext[snd] {
					continue
				}
				u.Sent += res.Sent[snd]
				u.Delivered += res.Delivered[snd]
			}
			if u.Sent > 0 {
				u.PDR = float64(u.Delivered) / float64(u.Sent)
			}
			res.Uplink = u
		}
	}
	res.ControlPackets, res.ControlBytes = metrics.RoutingOverhead(world)
	for _, n := range world.Nodes() {
		st := n.MAC().Stats()
		res.MACStats.DataTx += st.DataTx
		res.MACStats.DataRx += st.DataRx
		res.MACStats.AckTx += st.AckTx
		res.MACStats.AckRx += st.AckRx
		res.MACStats.RTSTx += st.RTSTx
		res.MACStats.CTSTx += st.CTSTx
		res.MACStats.Retries += st.Retries
		res.MACStats.Failures += st.Failures
		res.MACStats.QueueDrops += st.QueueDrops
		res.MACStats.DownDrops += st.DownDrops
		res.MACStats.Duplicates += st.Duplicates
		res.MACStats.BytesTx += st.BytesTx
		res.MACStats.NAVSettings += st.NAVSettings
	}
	return res, work, nil
}
