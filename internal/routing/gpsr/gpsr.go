// Package gpsr implements Greedy Perimeter Stateless Routing (Karp &
// Kung, MobiCom 2000): geographic forwarding for position-aware networks
// such as the VANET worlds this simulator models.
//
// Every node periodically beacons its position; each receiver keeps a
// neighbor table of the positions it heard, expired lazily after a hold
// time. A data packet is stamped at its origin with the destination's
// position (an idealized location service — see Node.PeerPosition) and
// then forwarded greedily: each hop relays to the neighbor strictly
// closest to the destination. When no neighbor improves on the current
// node — a local maximum at the edge of a radio void — the packet enters
// perimeter mode and walks the faces of the Gabriel-planarized neighbor
// graph by the right-hand rule until it reaches a node closer to the
// destination than where greedy forwarding failed, then resumes greedy.
//
// Unlike AODV/DYMO (reactive) and OLSR (proactive link state), GPSR keeps
// no routes at all: per-node state is one beacon-fed neighbor table, and
// control overhead is independent of traffic and of network diameter.
//
// Greedy next-hop selection runs on a spatial-grid nearest-neighbor query;
// the brute-force scan over the neighbor table it replaced is the
// reference the package's tests compare it against, bit for bit (the
// strict (distance, id) order is the same on both sides).
package gpsr

import (
	"fmt"

	"cavenet/internal/geometry"
	"cavenet/internal/netsim"
	"cavenet/internal/sim"
	"cavenet/internal/spatial"
)

// beaconBytes is the GPSR beacon payload: the paper's position beacon of
// one address plus two 4-byte coordinates.
const beaconBytes = 12

// Config holds protocol parameters; zero fields take defaults matching
// the paper's simulations (1 s beacons, 3-beacon neighbor hold).
type Config struct {
	BeaconInterval sim.Time // default 1 s
	// NeighborHold is how long a neighbor survives without a fresh beacon
	// (default 3 × BeaconInterval, the AllowedHelloLoss idiom).
	NeighborHold sim.Time
	// CellSize is the neighbor index cell edge in meters (default 250 m,
	// the two-ray receive range bounding neighbor distances). A
	// performance knob only: Nearest is exact, so results are independent
	// of it.
	CellSize float64
}

func (c *Config) normalize() {
	if c.BeaconInterval == 0 {
		c.BeaconInterval = sim.Second
	}
	if c.NeighborHold == 0 {
		c.NeighborHold = 3 * c.BeaconInterval
	}
	if c.CellSize == 0 {
		c.CellSize = 250
	}
}

// Beacon is GPSR's only control message: the sender's current position.
type Beacon struct {
	Pos geometry.Vec2
}

// Packet forwarding modes (Karp & Kung §3.3).
const (
	modeGreedy = iota
	modePerimeter
)

// geoHeader is the per-packet GPSR state, carried in Packet.Payload from
// origin to delivery. The MAC's ACK-loss fork shallow-clones packets, so
// a header pointer may be shared with a sibling copy still in flight —
// every mutation goes through a copy-on-write (see mutate).
type geoHeader struct {
	Mode int
	Dst  geometry.Vec2 // destination position stamped at the origin
	Lp   geometry.Vec2 // position where the packet entered perimeter mode
	Lf   geometry.Vec2 // point where the packet entered the current face
	// First edge traversed on the current face; revisiting it means the
	// face tour closed without progress — the destination is unreachable
	// on the planar graph. E0From < 0 when unset.
	E0From, E0To netsim.NodeID
	// App preserves the original application payload under the header.
	App any
}

// neighbor is one beacon-learned entry.
type neighbor struct {
	pos   geometry.Vec2
	until sim.Time
}

// Router is one node's GPSR instance.
type Router struct {
	cfg  Config
	node *netsim.Node

	neighbors map[netsim.NodeID]neighbor
	expiry    sim.ExpiryHeap[netsim.NodeID]
	grid      *spatial.Grid

	beaconTicker *sim.Ticker
	purgeTicker  *sim.Ticker

	ctrlPackets uint64
	ctrlBytes   uint64

	// Scratch buffers for the perimeter-mode planarization.
	allBuf, planarBuf []netsim.NodeID
}

var _ netsim.Router = (*Router)(nil)

// New builds a GPSR router for node.
func New(node *netsim.Node, cfg Config) *Router {
	cfg.normalize()
	r := &Router{
		cfg:       cfg,
		node:      node,
		neighbors: make(map[netsim.NodeID]neighbor),
		grid:      spatial.NewGrid(cfg.CellSize),
	}
	jitter := func() sim.Time {
		// ±10% emission jitter, standard to decorrelate beacon storms.
		span := int64(cfg.BeaconInterval / 5)
		return sim.Time(node.Rand().Int63n(span) - span/2)
	}
	r.beaconTicker = sim.NewTicker(node.Kernel(), cfg.BeaconInterval, jitter, r.sendBeacon)
	r.purgeTicker = sim.NewTicker(node.Kernel(), sim.Second, nil, r.purge)
	return r
}

// Name implements netsim.Router.
func (r *Router) Name() string { return "gpsr" }

// Start implements netsim.Router.
func (r *Router) Start() {
	r.beaconTicker.Start()
	r.purgeTicker.Start()
}

// Stop implements netsim.Router.
func (r *Router) Stop() {
	r.beaconTicker.Stop()
	r.purgeTicker.Stop()
}

// ControlTraffic implements netsim.Router.
func (r *Router) ControlTraffic() (uint64, uint64) { return r.ctrlPackets, r.ctrlBytes }

// NeighborCount reports the live neighbor-table size (for tests/stats).
func (r *Router) NeighborCount() int { return len(r.neighbors) }

func (r *Router) sendBeacon() {
	p := &netsim.Packet{
		UID:       0, // control packets are not tracked by metrics UIDs
		Kind:      netsim.KindControl,
		Src:       r.node.ID(),
		Dst:       netsim.BroadcastID,
		Port:      netsim.PortRouting,
		TTL:       1,
		Size:      beaconBytes + netsim.IPHeaderBytes,
		Payload:   &Beacon{Pos: r.node.Position()},
		CreatedAt: r.node.Kernel().Now(),
	}
	r.ctrlPackets++
	r.ctrlBytes += uint64(p.Size)
	r.node.SendFrame(netsim.BroadcastID, p)
}

// learnNeighbor installs or refreshes a beacon-learned entry, keeping the
// spatial index in lockstep with the neighbor map.
func (r *Router) learnNeighbor(id netsim.NodeID, pos geometry.Vec2) {
	until := r.node.Kernel().Now() + r.cfg.NeighborHold
	if _, ok := r.neighbors[id]; ok {
		r.grid.Move(int(id), pos)
	} else {
		r.grid.Insert(int(id), pos)
		r.expiry.Push(id, until)
	}
	r.neighbors[id] = neighbor{pos: pos, until: until}
}

// dropNeighbor evicts id from the table and the index (no-op if absent).
func (r *Router) dropNeighbor(id netsim.NodeID) {
	if _, ok := r.neighbors[id]; !ok {
		return
	}
	delete(r.neighbors, id)
	r.grid.Remove(int(id))
}

func (r *Router) purge() {
	now := r.node.Kernel().Now()
	r.expiry.Expire(now,
		func(id netsim.NodeID) (sim.Time, bool) {
			nb, ok := r.neighbors[id]
			return nb.until, ok
		},
		r.dropNeighbor)
}

// Origin implements netsim.Router: stamp the destination position from
// the location service and route.
func (r *Router) Origin(p *netsim.Packet) {
	dstPos, ok := r.node.PeerPosition(p.Dst)
	if !ok {
		r.node.DropData(p, "gpsr:no-location")
		return
	}
	p.Payload = &geoHeader{Mode: modeGreedy, Dst: dstPos, App: p.Payload}
	r.route(p, -1, false)
}

// Receive implements netsim.Router.
func (r *Router) Receive(p *netsim.Packet, from netsim.NodeID) {
	if p.Kind == netsim.KindControl {
		switch msg := p.Payload.(type) {
		case *Beacon:
			r.learnNeighbor(from, msg.Pos)
		default:
			panic(fmt.Sprintf("gpsr: unexpected control payload %T", p.Payload))
		}
		return
	}
	p.TTL--
	if p.TTL <= 0 {
		r.node.DropData(p, "gpsr:ttl")
		return
	}
	// Any relayed beacon (data heard in promiscuous forwarding position)
	// keeps the sender alive implicitly via its own beacons; the data
	// path needs only the header.
	if _, ok := p.Payload.(*geoHeader); !ok {
		// Data that never passed a GPSR origin — impossible in a
		// single-protocol world, unroutable here.
		r.node.DropData(p, "gpsr:no-location")
		return
	}
	r.route(p, from, true)
}

// LinkFailure implements netsim.Router. A failed unicast is stronger
// neighbor-loss evidence than beacon silence: evict immediately so the
// next decision picks another relay, and account the data loss.
func (r *Router) LinkFailure(next netsim.NodeID, p *netsim.Packet) {
	r.dropNeighbor(next)
	if p.Kind != netsim.KindControl {
		r.node.DropData(p, "gpsr:link-failure")
	}
}

// mutate installs and returns a private copy of p's geo header — the
// copy-on-write that keeps MAC-forked sibling packets consistent.
func (r *Router) mutate(p *netsim.Packet, h *geoHeader) *geoHeader {
	c := *h
	p.Payload = &c
	return &c
}

// route decides p's next hop and transmits it. from is the previous hop
// (-1 at the origin); forwarded selects the forward counter.
func (r *Router) route(p *netsim.Packet, from netsim.NodeID, forwarded bool) {
	h := p.Payload.(*geoHeader)
	self := r.node.Position()
	dSelf := self.Dist(h.Dst)

	// A perimeter packet reverts to greedy as soon as the current node is
	// closer to the destination than where perimeter mode began (§3.3).
	if h.Mode == modePerimeter && dSelf < h.Lp.Dist(h.Dst) {
		h = r.mutate(p, h)
		h.Mode = modeGreedy
	}

	if h.Mode == modeGreedy {
		if next, ok := r.greedyNext(h.Dst, dSelf); ok {
			r.send(next, p, forwarded)
			return
		}
		// Local maximum: no neighbor is closer to the destination than
		// this node. Enter perimeter mode here.
		h = r.mutate(p, h)
		h.Mode = modePerimeter
		h.Lp, h.Lf = self, self
		h.E0From, h.E0To = -1, -1
		from = -1 // reference direction becomes the bearing to Dst
	}
	r.perimeterForward(p, h, from, forwarded)
}

// greedyNext picks the neighbor strictly closer to dst than this node,
// minimizing (distance-to-dst, id), through the spatial grid. The answer
// is a pure function of the neighbor table, so TestGreedyDifferential —
// against a brute-force scan of r.neighbors, over randomized tables
// maintained through learnNeighbor/dropNeighbor, including exact ties and
// empty candidate sets — is the whole gate.
func (r *Router) greedyNext(dst geometry.Vec2, dSelf float64) (netsim.NodeID, bool) {
	id, _, ok := r.grid.Nearest(dst, dSelf)
	return netsim.NodeID(id), ok
}

func (r *Router) send(next netsim.NodeID, p *netsim.Packet, forwarded bool) {
	if forwarded {
		r.node.NoteForward(p)
	}
	r.node.SendFrame(next, p)
}
