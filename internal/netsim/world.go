package netsim

import (
	"fmt"
	"math/rand"

	"cavenet/internal/geometry"
	"cavenet/internal/mac"
	"cavenet/internal/mobility"
	"cavenet/internal/phy"
	"cavenet/internal/rng"
	"cavenet/internal/sim"
)

// RouterFactory builds the routing protocol instance for a node.
type RouterFactory func(n *Node) Router

// WorldConfig assembles a scenario.
type WorldConfig struct {
	// Nodes is the station count.
	Nodes int
	// Seed drives every RNG stream in the scenario.
	Seed int64
	// Propagation defaults to two-ray ground (Table I).
	Propagation phy.Propagation
	// Channel holds radio parameters (ranges, capture).
	Channel phy.Config
	// MAC holds DCF parameters (data rate, RTS threshold).
	MAC mac.Config
	// Mobility positions the nodes over time; nil keeps nodes wherever
	// Static places them. Any mobility.Source works: a materialized
	// *mobility.SampledTrace or a streaming source (CA road, ns-2
	// playback) that the world drives live, one forward-only
	// position query per node per tick.
	Mobility mobility.Source
	// Static is used when Mobility is nil: fixed node positions.
	Static []geometry.Vec2
}

// mobilityInterval is how often the world moves every node to its Mobility
// position (sources interpolate between their samples): a few meters of
// travel at highway speed.
const mobilityInterval = 100 * sim.Millisecond

// World is an assembled scenario: kernel, channel, nodes.
type World struct {
	Kernel  *sim.Kernel
	Channel *phy.Channel
	nodes   []*Node
	cfg     WorldConfig
	src     *rng.Source
	factory RouterFactory // kept for crash recovery: a crashed node gets a fresh router
	uid     uint64
	observe []func(PacketEvent) // data-plane observers, in install order
	// pktFree recycles the per-reception clones of control broadcasts
	// (see macUpper.MACReceive); the world is single-kernel and
	// single-goroutine, so a plain freelist suffices.
	pktFree []*Packet
}

// clonePacket copies src into a pooled Packet record.
func (w *World) clonePacket(src *Packet) *Packet {
	var p *Packet
	if n := len(w.pktFree); n > 0 {
		p = w.pktFree[n-1]
		w.pktFree[n-1] = nil
		w.pktFree = w.pktFree[:n-1]
	} else {
		p = new(Packet)
	}
	*p = *src
	return p
}

// releasePacket returns a pooled clone; the record is zeroed so it retains
// no payload reference.
func (w *World) releasePacket(p *Packet) {
	*p = Packet{}
	w.pktFree = append(w.pktFree, p)
}

// NewWorld wires up a scenario. Routers are created per node via factory
// but not started; Run starts them.
func NewWorld(cfg WorldConfig, factory RouterFactory) (*World, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("netsim: node count %d must be positive", cfg.Nodes)
	}
	if cfg.Mobility == nil && len(cfg.Static) != cfg.Nodes {
		return nil, fmt.Errorf("netsim: need %d static positions, have %d", cfg.Nodes, len(cfg.Static))
	}
	if cfg.Mobility != nil {
		// Materialized traces carry structural invariants worth checking up
		// front; streaming sources validate at construction instead.
		if v, ok := cfg.Mobility.(interface{ Validate() error }); ok {
			if err := v.Validate(); err != nil {
				return nil, err
			}
		}
		if cfg.Mobility.NumNodes() < cfg.Nodes {
			return nil, fmt.Errorf("netsim: mobility trace has %d nodes, scenario needs %d",
				cfg.Mobility.NumNodes(), cfg.Nodes)
		}
	}
	if cfg.Propagation == nil {
		cfg.Propagation = phy.TwoRayGround{}
	}
	w := &World{
		Kernel:  sim.NewKernel(),
		cfg:     cfg,
		src:     rng.NewSource(cfg.Seed),
		factory: factory,
	}
	w.Channel = phy.NewChannel(w.Kernel, cfg.Propagation, cfg.Channel)
	for i := 0; i < cfg.Nodes; i++ {
		n := &Node{
			id:    NodeID(i),
			world: w,
			ports: make(map[int]PortHandler),
			rnd:   w.src.Stream(fmt.Sprintf("node/%d", i)),
		}
		if cfg.Mobility != nil {
			n.pos = cfg.Mobility.At(i, 0)
		} else {
			n.pos = cfg.Static[i]
		}
		n.radio = w.Channel.Attach(n.pos)
		n.mac = mac.New(w.Kernel, n.radio, mac.Address(i), cfg.MAC,
			w.src.Stream(fmt.Sprintf("mac/%d", i)), macUpper{n})
		n.router = factory(n)
		if n.router == nil {
			return nil, fmt.Errorf("netsim: router factory returned nil for node %d", i)
		}
		w.nodes = append(w.nodes, n)
	}
	return w, nil
}

// Observe installs f after the observers already installed; call before
// Run. Every data-plane event reaches every observer in install order, so
// the collector, the ledger and the fault meter watch a run independently.
func (w *World) Observe(f func(PacketEvent)) { w.observe = append(w.observe, f) }

// Stream derives a named deterministic RNG stream from the world's seed;
// the fault layer uses it so impairment loss draws stay decorrelated from
// every node- and MAC-level stream.
func (w *World) Stream(name string) *rand.Rand { return w.src.Stream(name) }

// Node returns node i.
func (w *World) Node(i int) *Node { return w.nodes[i] }

// NumNodes reports the station count.
func (w *World) NumNodes() int { return len(w.nodes) }

// Nodes returns the node slice (shared; callers must not mutate).
func (w *World) Nodes() []*Node { return w.nodes }

func (w *World) nextUID() uint64 {
	w.uid++
	return w.uid
}

// Run starts all routers and mobility updates, then executes events until
// the given duration of simulated time has elapsed.
func (w *World) Run(duration sim.Time) {
	for _, n := range w.nodes {
		n.router.Start()
	}
	if w.cfg.Mobility != nil {
		w.scheduleMobility(duration)
	}
	w.Kernel.RunUntil(duration)
	for _, n := range w.nodes {
		n.router.Stop()
	}
}

func (w *World) scheduleMobility(duration sim.Time) {
	var tick func()
	tick = func() {
		now := w.Kernel.Now()
		tsec := now.Seconds()
		for i, n := range w.nodes {
			// Parked or static vehicles sample the same position every
			// tick; skipping them avoids pointless spatial-index churn.
			if p := w.cfg.Mobility.At(i, tsec); p != n.pos {
				n.SetPosition(p)
			}
		}
		if now < duration {
			w.Kernel.After(mobilityInterval, tick)
		}
	}
	w.Kernel.Schedule(0, tick)
}
