package netsim

import (
	"fmt"
	"math/rand"

	"cavenet/internal/geometry"
	"cavenet/internal/mac"
	"cavenet/internal/phy"
	"cavenet/internal/sim"
)

// NodeCounters tracks the packets that pass through one node. They are
// counted where they cross the node (SendData, SendFrame, DeliverLocal,
// DropData), never by a router, so they survive a crash that replaces the
// router.
type NodeCounters struct {
	DataOriginated uint64
	DataDelivered  uint64
	DataForwarded  uint64
	DataDropped    uint64 // no route / TTL expiry / router discard
	ControlPackets uint64 // routing overhead: control packets sent
	ControlBytes   uint64
}

// Node is one simulated station: position, radio, MAC, router and
// application ports.
type Node struct {
	id     NodeID
	world  *World
	pos    geometry.Vec2
	radio  *phy.Radio
	mac    *mac.DCF
	router Router
	ports  map[int]PortHandler
	rnd    *rand.Rand

	down      bool
	rebooted  bool            // a crash has rebuilt the router: it has lost its state
	lifecycle []func(up bool) // fault-injection observers (traffic sources)

	counters NodeCounters
}

// ID reports the node identifier.
func (n *Node) ID() NodeID { return n.id }

// Kernel exposes the shared simulation kernel to routers and agents.
func (n *Node) Kernel() *sim.Kernel { return n.world.Kernel }

// Jitter returns a draw of ±10 % of period from the node's own stream:
// the emission jitter a router adds to a periodic beacon so neighbours'
// beacons decorrelate. It is the only use of that stream.
func (n *Node) Jitter(period sim.Time) func() sim.Time {
	span := int64(period / 5)
	return func() sim.Time { return sim.Time(n.rnd.Int63n(span) - span/2) }
}

// Position reports the node's current location.
func (n *Node) Position() geometry.Vec2 { return n.pos }

// PeerPosition reports the current plane position of another node in the
// same world — the idealized location service geographic routing assumes:
// a sender knows where its destination is, but learns about relay
// candidates only through beacons. Out-of-range ids report ok=false.
func (n *Node) PeerPosition(id NodeID) (geometry.Vec2, bool) {
	if int(id) < 0 || int(id) >= len(n.world.nodes) {
		return geometry.Vec2{}, false
	}
	return n.world.nodes[id].pos, true
}

// SetPosition moves the node (called by the world's mobility driver),
// keeping the channel's spatial index in sync.
func (n *Node) SetPosition(p geometry.Vec2) {
	n.pos = p
	n.radio.SetPosition(p)
}

// MAC exposes the MAC for stats collection.
func (n *Node) MAC() *mac.DCF { return n.mac }

// OnLifecycle registers an observer for fault-injection transitions: f is
// called with up=false when the node goes down and up=true when it
// recovers. Traffic sources use it to pause and resume their flows.
func (n *Node) OnLifecycle(f func(up bool)) {
	n.lifecycle = append(n.lifecycle, f)
}

// dataBufferer is implemented by routers that park data packets while
// discovering a route (AODV, DYMO).
type dataBufferer interface {
	EachBuffered(f func(p *Packet))
}

// EachBuffered visits every data packet the router holds in its
// route-discovery buffers: the router's share of the node's custody, which
// a crash drains as drops and the conservation ledger audits.
func (n *Node) EachBuffered(f func(p *Packet)) {
	if b, ok := n.router.(dataBufferer); ok {
		b.EachBuffered(f)
	}
}

// Down takes the node out of service: its router stops, its MAC flushes
// every queued frame upward as a "node:down" drop, and its radio leaves the
// air (and the spatial index) so neighbors stop hearing it mid-flight.
// A crash (graceful=false) additionally loses all routing state: buffered
// data packets drain as "node:down" drops and the router is replaced with a
// fresh instance, so a recovered node rejoins the network cold. Taking a
// down node down again is a fault-schedule bug and panics.
func (n *Node) Down(graceful bool) {
	if n.down {
		panic(fmt.Sprintf("netsim: t=%v: node %d already down", n.world.Kernel.Now(), n.id))
	}
	n.down = true
	n.router.Stop()
	// MAC flush first: frames in the interface queue route through
	// macUpper.MACDownDrop and terminate in the ledger.
	n.mac.Down()
	if !graceful {
		n.EachBuffered(func(p *Packet) { n.DropData(p, CauseNodeDown) })
		n.rebooted = true
		n.router = n.world.factory(n)
		if n.router == nil {
			panic(fmt.Sprintf("netsim: t=%v: router factory returned nil for node %d", n.world.Kernel.Now(), n.id))
		}
	}
	n.radio.Detach()
	for _, f := range n.lifecycle {
		f(false)
	}
}

// Up returns a down node to service: radio back on the air at the node's
// current position (mobility keeps tracking while down), MAC reset, router
// restarted — the original instance after a graceful shutdown, the fresh
// replacement after a crash. Bringing an in-service node up is a
// fault-schedule bug and panics.
func (n *Node) Up() {
	if !n.down {
		panic(fmt.Sprintf("netsim: t=%v: node %d already up", n.world.Kernel.Now(), n.id))
	}
	n.down = false
	n.radio.Reattach()
	n.mac.Up()
	n.router.Start()
	for _, f := range n.lifecycle {
		f(true)
	}
}

// Router exposes the routing protocol instance.
func (n *Node) Router() Router { return n.router }

// Counters returns a copy of the node's packet counters.
func (n *Node) Counters() NodeCounters { return n.counters }

// AttachPort registers a handler for data packets addressed to this node on
// the given port. Registering a port twice is a scenario bug and panics.
func (n *Node) AttachPort(port int, h PortHandler) {
	if _, dup := n.ports[port]; dup {
		panic(fmt.Sprintf("netsim: t=%v: node %d: port %d already attached", n.world.Kernel.Now(), n.id, port))
	}
	n.ports[port] = h
}

// Packet returns a packet from the world's pool holding v: how SendControl
// builds routing control packets and NewPacket data. The caller owns it
// until it hands it to a terminal event (see Router).
func (n *Node) Packet(v Packet) *Packet {
	return n.world.clonePacket(&v)
}

// SendControl sends a routing message as a control packet of size bytes
// plus the IP header, addressed to dst and handed to the MAC for next
// (BroadcastID for both on a flood or a beacon). It is how every router
// sends its own messages and re-floods.
func (n *Node) SendControl(next, dst NodeID, ttl, size int, msg any) {
	n.SendFrame(next, n.Packet(Packet{
		Kind:      KindControl,
		Src:       n.id,
		Dst:       dst,
		Port:      PortRouting,
		TTL:       ttl,
		Size:      size + IPHeaderBytes,
		Payload:   msg,
		CreatedAt: n.world.Kernel.Now(),
	}))
}

// NewPacket takes a data packet originating here from the world's pool.
func (n *Node) NewPacket(dst NodeID, port, payloadBytes int) *Packet {
	return n.Packet(Packet{
		UID:       n.world.nextUID(),
		Kind:      KindData,
		Src:       n.id,
		Dst:       dst,
		Port:      port,
		TTL:       DefaultTTL,
		Size:      payloadBytes + IPHeaderBytes,
		CreatedAt: n.world.Kernel.Now(),
	})
}

// SendData originates a data packet toward dst via the routing protocol.
func (n *Node) SendData(p *Packet) {
	n.counters.DataOriginated++
	n.emit(Sent, p, 0)
	if p.Dst == n.id {
		n.DeliverLocal(p)
		return
	}
	n.router.Origin(p)
}

// SendFrame hands a packet to the MAC addressed to the given next hop
// (BroadcastID for link-layer broadcast). Every control packet a router
// sends crosses here, so this is where routing overhead is counted; a data
// packet that has already crossed a link (MACReceive counted the hop) is
// being forwarded. A zeroed packet — one already back in the pool — is a
// custody bug and panics.
func (n *Node) SendFrame(next NodeID, p *Packet) {
	if p.Kind == 0 {
		panic(fmt.Sprintf("netsim: t=%v: node %d sends a released packet", n.world.Kernel.Now(), n.id))
	}
	if p.Kind == KindControl {
		n.counters.ControlPackets++
		n.counters.ControlBytes += uint64(p.Size)
	} else if p.Hops > 0 {
		n.counters.DataForwarded++
	}
	n.mac.Send(mac.Address(next), p, p.Size)
}

// DeliverLocal hands a data packet to its destination port. Delivery is a
// terminal custody event: once the port handler returns, p goes back to
// the world's packet pool, so neither handlers nor observers may retain it.
func (n *Node) DeliverLocal(p *Packet) {
	n.counters.DataDelivered++
	n.emit(Delivered, p, 0)
	if handler, ok := n.ports[p.Port]; ok {
		handler.HandlePacket(p, n.world.Kernel.Now())
	}
	n.world.releasePacket(p)
}

// DropData records a data packet discarded for cause c (no route, TTL).
// A drop is a terminal custody event: once the observers return, p goes
// back to the world's packet pool, so callers must not touch it afterwards.
func (n *Node) DropData(p *Packet, c Cause) {
	n.counters.DataDropped++
	n.emit(Dropped, p, c)
	n.world.releasePacket(p)
}

// emit hands one data-plane event to the world's observers.
func (n *Node) emit(kind EventKind, p *Packet, c Cause) {
	e := PacketEvent{Kind: kind, At: n.world.Kernel.Now(), Node: n, Packet: p, Cause: c}
	for _, f := range n.world.observe {
		f(e)
	}
}

// macUpper adapts the node to the MAC's Upper interface.
type macUpper struct{ n *Node }

var _ mac.Upper = macUpper{}

// MACReceive implements mac.Upper.
func (u macUpper) MACReceive(payload any, from mac.Address) {
	shared, ok := payload.(*Packet)
	if !ok || shared.Kind == 0 {
		// Kind 0 is a zeroed record: the sender's packet went back to the
		// pool while a frame still carried it.
		panic(fmt.Sprintf("netsim: t=%v: node %d: MAC delivered %T %v",
			u.n.world.Kernel.Now(), u.n.id, payload, payload))
	}
	n := u.n
	if shared.Kind == KindControl {
		// The channel hands every receiver the same payload pointer, so the
		// per-receiver view is a clone — and control packets are consumed
		// within Router.Receive (routers re-clone before re-flooding; see
		// the Router contract in packet.go), so the clone comes from the
		// world's pool and goes straight back. Flood-heavy protocols pay
		// zero allocations per control reception this way. Data packets —
		// including any on PortRouting, which routers may retain through
		// SendFrame — must not take this path.
		p := n.world.clonePacket(shared)
		p.Hops++
		n.router.Receive(p, NodeID(from))
		n.world.releasePacket(p)
		return
	}
	// Data packets outlive the receive callback (delivery to ports,
	// forwarding, discovery buffers), so each receiver still needs a
	// private clone — from the pool, because every packet terminates
	// through exactly one custody event that returns it: DeliverLocal,
	// DropData, or the sender-side MAC hand-back of its last hop.
	p := n.world.clonePacket(shared)
	p.Hops++
	switch {
	case p.Port == PortRouting:
		n.router.Receive(p, NodeID(from))
	case p.Dst == n.id, p.Dst == BroadcastID:
		n.DeliverLocal(p)
	default:
		// Data in transit: the routing protocol forwards it.
		n.router.Receive(p, NodeID(from))
	}
}

// MACSendDone implements mac.Upper: a unicast was acknowledged or a
// broadcast aired, and no receiver will decode the frame again, so the
// sender-side packet goes back to the pool — the sending router released
// custody at SendFrame.
func (u macUpper) MACSendDone(to mac.Address, payload any) {
	u.n.world.releasePacket(payload.(*Packet))
}

// MACSendFailed implements mac.Upper: custody goes back to the router,
// which drops a data packet and only reads a control packet, so a control
// packet goes back to the pool when the router returns.
func (u macUpper) MACSendFailed(to mac.Address, payload any) {
	p := payload.(*Packet)
	// Read first: a dropped data packet may be back in use by the time
	// LinkFailure returns.
	control := p.Kind == KindControl
	u.n.router.LinkFailure(NodeID(to), p)
	if control {
		u.n.world.releasePacket(p)
	}
}

// MACQueueDrop implements mac.Upper: a drop-tail loss of a data
// packet is a data-plane drop like any other and must reach the metrics
// observers — without this, queue-overflow losses silently violated packet
// conservation. Control packets are the routing protocol's own traffic and
// are only counted in the MAC stats.
func (u macUpper) MACQueueDrop(to mac.Address, payload any) {
	u.n.macDrop(payload.(*Packet), CauseQueueFull)
}

// MACDownDrop implements mac.Upper: when fault injection takes the
// interface down, every data frame in MAC custody terminates as an
// explicit "node:down" drop so the conservation ledger sees where it died.
// Control frames, as with queue drops, are only MAC statistics.
func (u macUpper) MACDownDrop(to mac.Address, payload any) {
	u.n.macDrop(payload.(*Packet), CauseNodeDown)
}

// macDrop terminates a packet the MAC gave up on: a data packet as a
// drop, a control packet straight back to the pool.
func (n *Node) macDrop(p *Packet, c Cause) {
	if p.Kind == KindData {
		n.DropData(p, c)
		return
	}
	n.world.releasePacket(p)
}
