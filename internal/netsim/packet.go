// Package netsim assembles the CPS node stack: network-layer packets, the
// per-node protocol plumbing (radio → MAC → router → application ports) and
// the World scenario container that wires mobility, channel and traffic
// together — the role ns-2 plays for the paper.
package netsim

import (
	"fmt"

	"cavenet/internal/sim"
)

// NodeID identifies a node; node IDs double as MAC addresses.
type NodeID int

// BroadcastID addresses all nodes in range.
const BroadcastID NodeID = -1

// Kind classifies network-layer packets.
type Kind int

// Packet kinds.
const (
	KindData Kind = iota + 1
	KindControl
)

// Well-known ports.
const (
	// PortCBR is the default application traffic port.
	PortCBR = 1000
	// PortRouting is where routing-protocol messages are demultiplexed.
	PortRouting = 255
)

// IPHeaderBytes is the network-layer header overhead added to payload
// sizes, matching ns-2's accounting of a CBR packet over IP.
const IPHeaderBytes = 20

// DefaultTTL bounds forwarding loops; 32 is ns-2's default for DSR/AODV
// class protocols and more than enough for 30 nodes.
const DefaultTTL = 32

// Packet is the network-layer PDU.
type Packet struct {
	UID       uint64
	Kind      Kind
	Src       NodeID
	Dst       NodeID
	Port      int
	TTL       int
	Size      int // bytes on the wire at the network layer
	Payload   any
	CreatedAt sim.Time
	Hops      int
}

// String summarizes the packet for diagnostics.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt{uid=%d %d->%d port=%d size=%d ttl=%d}",
		p.UID, p.Src, p.Dst, p.Port, p.Size, p.TTL)
}

// Router is a routing protocol instance bound to one node.
//
// Data path: locally-originated packets enter via Origin; packets arriving
// from the MAC that are not addressed to this node (or are control traffic
// on PortRouting) enter via Receive. The router sends its own messages
// with Node.SendControl, forwards data with Node.SendFrame and delivers it
// with Node.DeliverLocal.
//
// A router never counts its own traffic: whatever crosses Node.SendFrame,
// SendData, DeliverLocal or DropData is counted there (Node.Counters), so
// the counts outlive a crash that replaces the router.
//
// Every packet is pooled, with custody-transfer semantics. Node.SendControl
// takes each control message (or re-flood of one received) from the pool
// and hands it straight to the MAC. A data packet a router is given to
// originate or forward is its own until it hands the packet to exactly one
// terminal event — Node.DeliverLocal, Node.DropData, or Node.SendFrame
// (after which the MAC hands it back to the node once no receiver can still
// decode it, and the node releases it). After that call the pointer is
// dead: the pool may zero and reuse it, so routers must read anything they
// still need (say, the destination of a dropped packet) before the handoff,
// and must not park the same pointer in two places (netsim.Discoveries
// parks each once). Sending a zeroed packet panics.
// World observers and PortHandlers observe packets during their terminal
// events and must copy values, never retain the pointer.
type Router interface {
	// Name identifies the protocol ("aodv", "olsr", "dymo", "static", ...).
	Name() string
	// Start begins protocol operation (timers, hello emission), or
	// resumes it after a graceful Stop.
	Start()
	// Stop halts all protocol timers.
	Stop()
	// Origin routes a locally generated data packet.
	Origin(p *Packet)
	// Receive handles a packet handed up by the MAC: either a routing
	// control message or a data packet to forward. A KindControl *Packet
	// is only valid for the duration of the call, so a router that
	// re-floods one sends a new one with Node.SendControl (payloads are not
	// pooled and may be retained).
	Receive(p *Packet, from NodeID)
	// LinkFailure is data-link feedback: a unicast to next exhausted its
	// MAC retries while carrying p. A data packet comes back into the
	// router's custody; a control packet is only valid for the call.
	LinkFailure(next NodeID, p *Packet)
}

// PortHandler consumes data packets delivered to a local port.
type PortHandler interface {
	HandlePacket(p *Packet, at sim.Time)
}

// PortFunc adapts a function to PortHandler.
type PortFunc func(p *Packet, at sim.Time)

// HandlePacket implements PortHandler.
func (f PortFunc) HandlePacket(p *Packet, at sim.Time) { f(p, at) }

// EventKind says what happened to a data packet in a PacketEvent.
type EventKind uint8

// The data-plane events: an origination and the two terminal events.
const (
	Sent EventKind = iota + 1
	Delivered
	Dropped
)

// Cause says why a data packet was dropped. It is typed so that no drop
// builds a string: Reason renders it, and nothing else does.
type Cause uint8

// The drop causes. The first eight are a router's and read
// "<router>:<cause>"; the MAC's queue-full and a node's outage keep their
// fixed prefixes.
const (
	CauseTTL            Cause = iota + 1 // TTL reached zero on a forward
	CauseNoRoute                         // no route at the originator, or none found
	CauseNoForwardRoute                  // no route at a forwarder
	CauseLinkFailure                     // the MAC exhausted its retries to the next hop
	CauseRebootWait                      // a router rebuilt by a crash is still silent
	CauseBufferFull                      // a route search's buffer was full
	CauseNoLocation                      // no position known for the destination
	CauseUnreachable                     // a perimeter walk closed its face
	CauseQueueFull                       // "mac:queue-full": the interface queue was full
	CauseNodeDown                        // "node:down": the custodian went down
)

var causeNames = [...]string{
	CauseTTL:            "ttl",
	CauseNoRoute:        "no-route",
	CauseNoForwardRoute: "no-forward-route",
	CauseLinkFailure:    "link-failure",
	CauseRebootWait:     "reboot-wait",
	CauseBufferFull:     "buffer-full",
	CauseNoLocation:     "no-location",
	CauseUnreachable:    "unreachable",
	CauseQueueFull:      "mac:queue-full",
	CauseNodeDown:       "node:down",
}

// Reason renders a drop by the router named router for cause c, as
// results key their drop counts: "aodv:no-forward-route", "node:down".
func (c Cause) Reason(router string) string {
	if c >= CauseQueueFull {
		return causeNames[c]
	}
	return router + ":" + causeNames[c]
}

// PacketEvent is one data-plane event as an observer sees it: a data
// packet originated (Sent) or met a terminal event (Delivered, Dropped)
// at Node at simulated time At. Cause is set on drops only. The packet is
// valid only for the call: a terminal event hands it back to the pool
// once every observer has returned, so observers copy values and never
// retain the pointer.
type PacketEvent struct {
	Kind   EventKind
	At     sim.Time
	Node   *Node
	Packet *Packet
	Cause  Cause
}
