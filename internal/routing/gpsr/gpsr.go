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

// Protocol constants, matching the paper's 1 s HELLO interval.
const (
	beaconInterval = sim.Second
	// neighborHold is how long a neighbor survives without a fresh beacon:
	// three beacons, the AllowedHelloLoss idiom of AODV and DYMO.
	neighborHold = 3 * beaconInterval
	// cellSize is the neighbor index cell edge in meters: the two-ray
	// receive range bounding neighbor distances. A performance choice only:
	// Nearest is exact, so results are independent of it.
	cellSize = 250.0
)

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

// neighbor is one beacon-learned entry and its item in the expiry list.
type neighbor struct {
	pos   geometry.Vec2
	until sim.Time
	item  int32
}

// Router is one node's GPSR instance.
type Router struct {
	node *netsim.Node

	neighbors map[netsim.NodeID]neighbor
	// Every until is written as now + neighborHold, so refresh order is
	// deadline order: purge pops from the head, and an eviction removes
	// the neighbor's item.
	expiry sim.HoldList[netsim.NodeID]
	grid   *spatial.Grid

	beaconTicker *sim.Ticker
	purgeTicker  *sim.Ticker

	// Scratch buffers for the perimeter-mode planarization.
	allBuf, planarBuf []netsim.NodeID
}

var _ netsim.Router = (*Router)(nil)

// New builds a GPSR router for node.
func New(node *netsim.Node) *Router {
	r := &Router{
		node:      node,
		neighbors: make(map[netsim.NodeID]neighbor),
		expiry:    sim.NewHoldList[netsim.NodeID](),
		grid:      spatial.NewGrid(cellSize),
	}
	r.beaconTicker = sim.NewTicker(node.Kernel(), beaconInterval, node.Jitter(beaconInterval), r.sendBeacon)
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

func (r *Router) sendBeacon() {
	r.node.SendControl(netsim.BroadcastID, netsim.BroadcastID, 1, beaconBytes, &Beacon{Pos: r.node.Position()})
}

// learnNeighbor installs or refreshes a beacon-learned entry, keeping the
// spatial index in lockstep with the neighbor map.
func (r *Router) learnNeighbor(id netsim.NodeID, pos geometry.Vec2) {
	nb, ok := r.neighbors[id]
	if ok {
		r.grid.Move(int(id), pos)
		r.expiry.Refresh(nb.item)
	} else {
		r.grid.Insert(int(id), pos)
		nb.item = r.expiry.Add(id)
	}
	nb.pos, nb.until = pos, r.node.Kernel().Now()+neighborHold
	r.neighbors[id] = nb
}

// dropNeighbor evicts id from the table, the index and the expiry list
// (no-op if absent).
func (r *Router) dropNeighbor(id netsim.NodeID) {
	nb, ok := r.neighbors[id]
	if !ok {
		return
	}
	delete(r.neighbors, id)
	r.grid.Remove(int(id))
	r.expiry.Remove(nb.item)
}

// purge evicts the neighbors whose until passed, from the head of the
// expiry list: every until is now + neighborHold, so the head is the
// earliest, and each neighbor goes at the first purge with now ≥ until.
// Each due head item is removed itself, so an item whose neighbor is
// already gone is passed over instead of stopping the walk.
func (r *Router) purge() {
	now := r.node.Kernel().Now()
	for i, ok := r.expiry.Front(); ok; i, ok = r.expiry.Front() {
		id := *r.expiry.At(i)
		nb, live := r.neighbors[id]
		if live && nb.until > now {
			break
		}
		r.expiry.Remove(i)
		if live {
			delete(r.neighbors, id)
			r.grid.Remove(int(id))
		}
	}
}

// Origin implements netsim.Router: stamp the destination position from
// the location service and route.
func (r *Router) Origin(p *netsim.Packet) {
	dstPos, ok := r.node.PeerPosition(p.Dst)
	if !ok {
		r.node.DropData(p, netsim.CauseNoLocation)
		return
	}
	p.Payload = &geoHeader{Mode: modeGreedy, Dst: dstPos, App: p.Payload}
	r.route(p, -1)
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
		r.node.DropData(p, netsim.CauseTTL)
		return
	}
	// Any relayed beacon (data heard in promiscuous forwarding position)
	// keeps the sender alive implicitly via its own beacons; the data
	// path needs only the header.
	if _, ok := p.Payload.(*geoHeader); !ok {
		// Data that never passed a GPSR origin — impossible in a
		// single-protocol world, unroutable here.
		r.node.DropData(p, netsim.CauseNoLocation)
		return
	}
	r.route(p, from)
}

// LinkFailure implements netsim.Router. A failed unicast is stronger
// neighbor-loss evidence than beacon silence: evict immediately so the
// next decision picks another relay, and account the data loss.
func (r *Router) LinkFailure(next netsim.NodeID, p *netsim.Packet) {
	r.dropNeighbor(next)
	if p.Kind != netsim.KindControl {
		r.node.DropData(p, netsim.CauseLinkFailure)
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
// (-1 at the origin).
func (r *Router) route(p *netsim.Packet, from netsim.NodeID) {
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
			r.node.SendFrame(next, p)
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
	r.perimeterForward(p, h, from)
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
