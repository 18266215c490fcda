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

// Hooks let observers (the metrics collector, the invariant ledger, the
// fault meter, a packet log) watch data-plane events without coupling the
// stack to any of them. A nil field is not called.
type Hooks struct {
	DataSent      func(n *Node, p *Packet)
	DataDelivered func(n *Node, p *Packet)
	DataDropped   func(n *Node, p *Packet, reason string)
}

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
	// *mobility.SampledTrace or a streaming source (CA road, ns-2 /
	// BonnMotion playback) that the world drives live, one forward-only
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
	hooks   []Hooks // observers, in install order
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

// AddHooks installs a set of observers beside those already installed;
// call before Run. Each event reaches every set in install order, which is
// what lets the metrics collector and the invariant harness watch the same
// run independently.
func (w *World) AddHooks(h Hooks) { w.hooks = append(w.hooks, h) }

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

// ConnectivityMatrix reports which node pairs are currently within decode
// range — the analysis behind the paper's Fig. 1 multi-lane connectivity
// discussion. The rows share one flat []bool backing array, and when the
// channel's spatial culling is active only grid-near pairs are evaluated,
// so sparse topologies cost O(N·neighbors) model evaluations instead of
// O(N²).
func (w *World) ConnectivityMatrix() [][]bool {
	n := len(w.nodes)
	m := make([][]bool, n)
	flat := make([]bool, n*n)
	for i := range m {
		m[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	thresh := w.Channel.RxThreshW()
	for i := 0; i < n; i++ {
		node := w.nodes[i]
		// A down node has no links; the grid path skips it implicitly
		// (its radio is detached from the index), the brute path here.
		if node.down {
			continue
		}
		if w.Channel.EachNearRx(node.pos, func(rx *phy.Radio) {
			// Evaluate each unordered pair once, from its lower index.
			// Radios attached to the channel beyond the world's nodes
			// (monitors, sniffers) are not part of node connectivity.
			j := rx.Index()
			if j <= i || j >= n {
				return
			}
			power := w.cfg.Propagation.RxPower(phy.TxPowerW, node.pos, w.nodes[j].pos)
			ok := power >= thresh
			m[i][j] = ok
			m[j][i] = ok
		}) {
			continue
		}
		for j := i + 1; j < n; j++ {
			if w.nodes[j].down {
				continue
			}
			power := w.cfg.Propagation.RxPower(phy.TxPowerW, node.pos, w.nodes[j].pos)
			ok := power >= thresh
			m[i][j] = ok
			m[j][i] = ok
		}
	}
	return m
}

// ConnectedComponents returns the partition of nodes into radio-connectivity
// components (used by the highway example to show relay lanes closing gaps).
// With spatial culling active the traversal expands each node through a
// grid query instead of materializing the O(N²) connectivity matrix; both
// paths share one flood fill, differing only in how a node's unseen
// neighbors are enumerated.
func (w *World) ConnectedComponents() [][]int {
	n := len(w.nodes)
	seen := make([]bool, n)
	var neighbors func(v int, visit func(u int))
	if w.Channel.Culling() {
		thresh := w.Channel.RxThreshW()
		neighbors = func(v int, visit func(u int)) {
			src := w.nodes[v]
			// A down node is a singleton component: its radio is out of
			// the grid so nobody reaches it, and it reaches nobody.
			if src.down {
				return
			}
			w.Channel.EachNearRx(src.pos, func(rx *phy.Radio) {
				// Skip non-node radios (see ConnectivityMatrix) and
				// already-seen nodes before paying for the model.
				u := rx.Index()
				if u >= n || seen[u] {
					return
				}
				if w.cfg.Propagation.RxPower(phy.TxPowerW, src.pos, w.nodes[u].pos) >= thresh {
					visit(u)
				}
			})
		}
	} else {
		m := w.ConnectivityMatrix()
		neighbors = func(v int, visit func(u int)) {
			for u := 0; u < n; u++ {
				if m[v][u] && !seen[u] {
					visit(u)
				}
			}
		}
	}
	var comps [][]int
	for i := 0; i < n; i++ {
		if seen[i] {
			continue
		}
		var comp []int
		stack := []int{i}
		seen[i] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			neighbors(v, func(u int) {
				seen[u] = true
				stack = append(stack, u)
			})
		}
		comps = append(comps, comp)
	}
	return comps
}
