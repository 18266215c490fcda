// Package metrics computes the paper's evaluation quantities: the
// per-sender goodput-over-time surfaces of Figs. 8–10, the Packet Delivery
// Ratio of Fig. 11, routing overhead (the paper's future-work metric) and
// end-to-end delay.
package metrics

import (
	"strings"

	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// Collector observes data-plane events via netsim.Hooks and aggregates
// them. Attach with Bind before World.Run.
type Collector struct {
	binWidth sim.Time
	bins     int

	sent        map[netsim.NodeID]uint64
	delivered   map[netsim.NodeID]uint64
	bytesRx     map[netsim.NodeID]uint64
	delaySum    map[netsim.NodeID]sim.Time
	hopSum      map[netsim.NodeID]uint64
	goodput     map[netsim.NodeID][]uint64 // received payload bits per bin, by sender
	drops       map[string]uint64
	unreachable map[netsim.NodeID]uint64 // per-sender routing-unreachable drops
}

// NewCollector creates a collector with the given goodput bin width and
// horizon (number of bins). The paper uses 1-second bins over 100 s.
func NewCollector(binWidth sim.Time, horizon sim.Time) *Collector {
	bins := int(horizon/binWidth) + 1
	return &Collector{
		binWidth:    binWidth,
		bins:        bins,
		sent:        make(map[netsim.NodeID]uint64),
		delivered:   make(map[netsim.NodeID]uint64),
		bytesRx:     make(map[netsim.NodeID]uint64),
		delaySum:    make(map[netsim.NodeID]sim.Time),
		hopSum:      make(map[netsim.NodeID]uint64),
		goodput:     make(map[netsim.NodeID][]uint64),
		drops:       make(map[string]uint64),
		unreachable: make(map[netsim.NodeID]uint64),
	}
}

// Bind installs the collector's observers on a world.
func (c *Collector) Bind(w *netsim.World) {
	w.SetHooks(netsim.Hooks{
		DataSent: func(n *netsim.Node, p *netsim.Packet) {
			c.sent[p.Src]++
		},
		DataDelivered: func(n *netsim.Node, p *netsim.Packet) {
			now := n.Kernel().Now()
			c.delivered[p.Src]++
			payload := uint64(p.Size - netsim.IPHeaderBytes)
			c.bytesRx[p.Src] += payload
			c.delaySum[p.Src] += now - p.CreatedAt
			c.hopSum[p.Src] += uint64(p.Hops)
			series := c.goodput[p.Src]
			if series == nil {
				series = make([]uint64, c.bins)
				c.goodput[p.Src] = series
			}
			bin := int(now / c.binWidth)
			if bin >= 0 && bin < len(series) {
				series[bin] += payload * 8
			}
		},
		DataDropped: func(n *netsim.Node, p *netsim.Packet, reason string) {
			c.drops[reason]++
			// Routing-unreachable drops get a per-sender attribution so a
			// flow whose destination crashed (or never came up) is
			// distinguishable from congestion or mobility loss.
			if strings.HasSuffix(reason, ":no-route") || strings.HasSuffix(reason, ":no-forward-route") {
				c.unreachable[p.Src]++
			}
		},
	})
}

// Sent reports packets originated by src.
func (c *Collector) Sent(src netsim.NodeID) uint64 { return c.sent[src] }

// Delivered reports packets from src that reached their destination.
func (c *Collector) Delivered(src netsim.NodeID) uint64 { return c.delivered[src] }

// PDR reports the packet delivery ratio for sender src (Fig. 11).
func (c *Collector) PDR(src netsim.NodeID) float64 {
	s := c.sent[src]
	if s == 0 {
		return 0
	}
	return float64(c.delivered[src]) / float64(s)
}

// GoodputBPS returns the goodput time series for sender src in bits per
// second per bin (Figs. 8–10). The slice has one entry per bin and is a
// fresh copy.
func (c *Collector) GoodputBPS(src netsim.NodeID) []float64 {
	series := c.goodput[src]
	out := make([]float64, c.bins)
	if series == nil {
		return out
	}
	scale := 1 / c.binWidth.Seconds()
	for i, bits := range series {
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
// route to their destination (":no-route" / ":no-forward-route" reasons) —
// the signature of a destination that is down or was never reachable.
func (c *Collector) Unreachable(src netsim.NodeID) uint64 { return c.unreachable[src] }

// Drops reports drop counts by reason.
func (c *Collector) Drops() map[string]uint64 {
	out := make(map[string]uint64, len(c.drops))
	for k, v := range c.drops {
		out[k] = v
	}
	return out
}

// TotalPDR reports the delivery ratio across all senders.
func (c *Collector) TotalPDR() float64 {
	sent, delivered, _ := c.Totals()
	if sent == 0 {
		return 0
	}
	return float64(delivered) / float64(sent)
}

// Totals reports the data-plane ledger across all senders: packets
// originated, delivered, and dropped with a recorded reason.
func (c *Collector) Totals() (sent, delivered, dropped uint64) {
	for _, s := range c.sent {
		sent += s
	}
	for _, d := range c.delivered {
		delivered += d
	}
	for _, d := range c.drops {
		dropped += d
	}
	return sent, delivered, dropped
}

// InFlight reports sent − delivered − dropped: the packets still in MAC
// queues or router buffers when the run ended. It can dip slightly
// negative on 802.11 ACK-loss forks, where one packet legitimately earns
// both a delivery and a link-failure drop. The scenario invariant harness
// (internal/scenario/check) audits the per-packet version of this ledger
// against actual end-of-run custody.
func (c *Collector) InFlight() int64 {
	sent, delivered, dropped := c.Totals()
	return int64(sent) - int64(delivered) - int64(dropped)
}

// RoutingOverhead sums control traffic across all routers of a world — the
// routing-overhead metric the paper defers to future work.
func RoutingOverhead(w *netsim.World) (packets, bytes uint64) {
	for _, n := range w.Nodes() {
		p, b := n.Router().ControlTraffic()
		packets += p
		bytes += b
	}
	return packets, bytes
}
