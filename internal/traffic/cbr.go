// Package traffic provides the application-layer agents of the paper's
// evaluation: a Constant Bit Rate source (Table I: 5 packets/s of 512
// bytes, active between 10 s and 90 s) and a sink that records deliveries.
package traffic

import (
	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// CBRConfig parameterizes a constant-bit-rate flow. Packets are addressed
// to netsim.PortCBR.
type CBRConfig struct {
	// Dst is the traffic destination.
	Dst netsim.NodeID
	// PacketBytes is the application payload size (Table I: 512).
	PacketBytes int
	// Rate is packets per second (Table I: 5).
	Rate float64
	// Start and Stop bound the active period (Table I: 10 s and 90 s).
	Start, Stop sim.Time
}

func (c *CBRConfig) normalize() {
	if c.PacketBytes == 0 {
		c.PacketBytes = 512
	}
	if c.Rate == 0 {
		c.Rate = 5
	}
}

// CBR is a constant-bit-rate source attached to a node.
type CBR struct {
	cfg   CBRConfig
	node  *netsim.Node
	sent  uint64
	ev    sim.Handle
	began bool // Start has been called and StopNow has not
}

// NewCBR attaches a CBR source to node; call Start to begin. The source
// follows the node's fault lifecycle: while the node is down the flow emits
// nothing, and on recovery it resumes at the configured rate for whatever
// remains of its window (a window already past stays finished — recovery
// does not resurrect dead flows).
func NewCBR(node *netsim.Node, cfg CBRConfig) *CBR {
	cfg.normalize()
	c := &CBR{cfg: cfg, node: node}
	node.OnLifecycle(func(up bool) {
		if !c.began {
			return
		}
		if up {
			c.Start()
			return
		}
		c.node.Kernel().Cancel(c.ev)
		c.ev = sim.Handle{}
	})
	return c
}

// Start schedules the flow. A flow whose window already lies entirely in
// the past (Stop > 0 and the clamped start is at or past it) emits
// nothing and schedules nothing. Calling Start on a flow with a pending
// emission reschedules it instead of stacking a second emission chain.
func (c *CBR) Start() {
	k := c.node.Kernel()
	k.Cancel(c.ev)
	c.ev = sim.Handle{}
	c.began = true
	start := c.cfg.Start
	if start < k.Now() {
		start = k.Now()
	}
	if c.cfg.Stop > 0 && start >= c.cfg.Stop {
		return
	}
	c.ev = k.ScheduleArg(start, cbrEmit, c)
}

// cbrEmit is the shared emission callback; package-level so rescheduling
// reuses a pooled kernel event without allocating a closure.
func cbrEmit(a any) {
	c := a.(*CBR)
	k := c.node.Kernel()
	if c.cfg.Stop > 0 && k.Now() >= c.cfg.Stop {
		c.ev = sim.Handle{}
		return
	}
	p := c.node.NewPacket(c.cfg.Dst, netsim.PortCBR, c.cfg.PacketBytes)
	c.node.SendData(p)
	c.sent++
	interval := sim.Seconds(1 / c.cfg.Rate)
	c.ev = k.AfterArg(interval, cbrEmit, c)
}

// Sink counts packets arriving on a port; deliveries are also visible to
// the world's observers, so Sink is mostly a convenience for examples and
// tests.
type Sink struct {
	Received uint64
	Bytes    uint64
	LastAt   sim.Time
}

// HandlePacket implements netsim.PortHandler.
func (s *Sink) HandlePacket(p *netsim.Packet, at sim.Time) {
	s.Received++
	s.Bytes += uint64(p.Size - netsim.IPHeaderBytes)
	s.LastAt = at
}

var _ netsim.PortHandler = (*Sink)(nil)
