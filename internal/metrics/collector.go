// Package metrics computes the paper's evaluation quantities: the
// per-sender goodput-over-time surfaces of Figs. 8–10, the Packet Delivery
// Ratio of Fig. 11, routing overhead (the paper's future-work metric) and
// end-to-end delay.
package metrics

import (
	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// Collector observes a world's data-plane events and aggregates them.
// Attach with Bind before World.Run.
type Collector struct {
	binWidth sim.Time
	bins     int

	world       *netsim.World
	delivered   map[netsim.NodeID]uint64
	delaySum    map[netsim.NodeID]sim.Time
	hopSum      map[netsim.NodeID]uint64
	goodput     map[netsim.NodeID][]uint64 // received payload bits per bin, by sender
	drops       map[dropKey]uint64
	unreachable map[netsim.NodeID]uint64 // per-sender routing-unreachable drops
}

// dropKey is what a drop is counted by; Drops renders it.
type dropKey struct {
	router string
	cause  netsim.Cause
}

// NewCollector creates a collector with the given goodput bin width and
// horizon (number of bins). The paper uses 1-second bins over 100 s.
func NewCollector(binWidth sim.Time, horizon sim.Time) *Collector {
	return &Collector{
		binWidth:    binWidth,
		bins:        int(horizon/binWidth) + 1,
		delivered:   make(map[netsim.NodeID]uint64),
		delaySum:    make(map[netsim.NodeID]sim.Time),
		hopSum:      make(map[netsim.NodeID]uint64),
		goodput:     make(map[netsim.NodeID][]uint64),
		drops:       make(map[dropKey]uint64),
		unreachable: make(map[netsim.NodeID]uint64),
	}
}

// Bind installs the collector's observer on a world. Originations are not
// observed: the source node counts them (Sent).
func (c *Collector) Bind(w *netsim.World) {
	c.world = w
	w.Observe(c.observe)
}

func (c *Collector) observe(e netsim.PacketEvent) {
	p := e.Packet
	switch e.Kind {
	case netsim.Delivered:
		c.delivered[p.Src]++
		c.delaySum[p.Src] += e.At - p.CreatedAt
		c.hopSum[p.Src] += uint64(p.Hops)
		series := c.goodput[p.Src]
		if series == nil {
			series = make([]uint64, c.bins)
			c.goodput[p.Src] = series
		}
		if bin := int(e.At / c.binWidth); bin >= 0 && bin < len(series) {
			series[bin] += uint64(p.Size-netsim.IPHeaderBytes) * 8
		}
	case netsim.Dropped:
		c.drops[dropKey{e.Node.Router().Name(), e.Cause}]++
		// Routing-unreachable drops get a per-sender attribution so a
		// flow whose destination crashed (or never came up) is
		// distinguishable from congestion or mobility loss.
		if e.Cause == netsim.CauseNoRoute || e.Cause == netsim.CauseNoForwardRoute {
			c.unreachable[p.Src]++
		}
	}
}

// Sent reports packets originated by src: its node's DataOriginated,
// because SendData counts each packet at its source. An unbound collector
// or an id outside the world reports zero.
func (c *Collector) Sent(src netsim.NodeID) uint64 {
	if c.world == nil || src < 0 || int(src) >= c.world.NumNodes() {
		return 0
	}
	return c.world.Node(int(src)).Counters().DataOriginated
}

// Delivered reports packets from src that reached their destination.
func (c *Collector) Delivered(src netsim.NodeID) uint64 { return c.delivered[src] }

// PDR reports the packet delivery ratio for sender src (Fig. 11).
func (c *Collector) PDR(src netsim.NodeID) float64 {
	s := c.Sent(src)
	if s == 0 {
		return 0
	}
	return float64(c.delivered[src]) / float64(s)
}

// GoodputBPS returns the goodput time series for sender src in bits per
// second per bin (Figs. 8–10). The slice has one entry per bin and is a
// fresh copy.
func (c *Collector) GoodputBPS(src netsim.NodeID) []float64 {
	out := make([]float64, c.bins)
	scale := 1 / c.binWidth.Seconds()
	for i, bits := range c.goodput[src] {
		out[i] = float64(bits) * scale
	}
	return out
}

// MeanDelay reports the average end-to-end delay of delivered packets from
// src; zero when nothing was delivered.
func (c *Collector) MeanDelay(src netsim.NodeID) sim.Time {
	d := c.delivered[src]
	if d == 0 {
		return 0
	}
	return c.delaySum[src] / sim.Time(d)
}

// MeanHops reports the average hop count of delivered packets from src.
func (c *Collector) MeanHops(src netsim.NodeID) float64 {
	d := c.delivered[src]
	if d == 0 {
		return 0
	}
	return float64(c.hopSum[src]) / float64(d)
}

// Unreachable reports packets from src dropped because routing had no
// route to their destination (CauseNoRoute, CauseNoForwardRoute) — the
// signature of a destination that is down or was never reachable.
func (c *Collector) Unreachable(src netsim.NodeID) uint64 { return c.unreachable[src] }

// Drops reports drop counts by reason, "<router>:<cause>" as
// netsim.Cause.Reason renders it.
func (c *Collector) Drops() map[string]uint64 {
	out := make(map[string]uint64, len(c.drops))
	for k, v := range c.drops { // order-free: an integer sum per reason
		out[k.cause.Reason(k.router)] += v
	}
	return out
}

// InFlight reports sent − delivered − dropped from the nodes' counters:
// the packets with no terminal event at the end (held in MAC queues or
// router buffers) minus every terminal event beyond a packet's first.
// Drops counts each fork's witness drop (an ACK-loss link failure, or a
// node:down flush of a copy decoded downstream), so it can be negative.
func (c *Collector) InFlight() int64 {
	var n int64
	for _, node := range c.world.Nodes() {
		k := node.Counters()
		n += int64(k.DataOriginated) - int64(k.DataDelivered) - int64(k.DataDropped)
	}
	return n
}

// RoutingOverhead sums the control traffic every node of a world sent —
// the routing-overhead metric the paper defers to future work. The nodes
// count it, so a router a crash replaced still contributes what it sent.
func RoutingOverhead(w *netsim.World) (packets, bytes uint64) {
	for _, n := range w.Nodes() {
		c := n.Counters()
		packets += c.ControlPackets
		bytes += c.ControlBytes
	}
	return packets, bytes
}
