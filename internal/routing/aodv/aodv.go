package aodv

import (
	"fmt"
	"slices"

	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// Protocol constants: the RFC 3561 §10 defaults with Table I's 1 s HELLO
// interval; the expanding-ring start is ns-2's (aodv.h TTL_START). The
// discovery buffer and RREQ_RETRIES are netsim.Discoveries'.
const (
	helloInterval      = sim.Second
	allowedHelloLoss   = 2
	activeRouteTimeout = 3 * sim.Second
	myRouteTimeout     = 2 * activeRouteTimeout
	nodeTraversalTime  = 40 * sim.Millisecond
	netDiameter        = 35
	netTraversalTime   = 2 * nodeTraversalTime * netDiameter
	ttlStart           = 5
	ttlIncrement       = 2
	ttlThreshold       = 7
	deletePeriod       = 5 * max(activeRouteTimeout, helloInterval) // K = 5
)

// ringTraversalTime is RING_TRAVERSAL_TIME for a search of the given TTL
// (TIMEOUT_BUFFER 2).
func ringTraversalTime(ttl int) sim.Time {
	return 2 * nodeTraversalTime * sim.Time(ttl+2)
}

// Config holds what a scenario chooses about AODV; the zero value is the
// protocol the paper ran.
type Config struct {
	// NoExpandingRing disables the TTL expanding-ring search of RFC 3561
	// §6.4, so every RREQ floods the network (the ablation knob
	// Spec.AODVNoExpandingRing).
	NoExpandingRing bool
}

// Router is one node's AODV instance: the shared reactive machine plus
// the expanding-ring search, intermediate replies and precursor-scoped
// RERRs.
type Router struct {
	*netsim.Reactive
	cfg    Config
	rreqID uint32
}

var _ netsim.Router = (*Router)(nil)

// New builds an AODV router for node.
func New(node *netsim.Node, cfg Config) *Router {
	r := &Router{cfg: cfg}
	r.Reactive = netsim.NewReactive(node, netsim.ReactiveProtocol{
		Name:          "aodv",
		RouteLifetime: activeRouteTimeout,
		HelloInterval: helloInterval,
		NeighbourHold: (allowedHelloLoss + 1) * helloInterval,
		SeenHold:      2 * netTraversalTime, // PATH_DISCOVERY_TIME (RFC 3561 §10)
		RebootWait:    deletePeriod,         // §6.13
		Precursors:    true,
		SendRREQ:      r.sendRREQ,
		SendHello:     r.sendHello,
		SendRERR:      r.broadcastRERR,
	})
	return r
}

// sendRREQ floods the next request of d's expanding-ring search (§6.4) and
// returns how long it waits for a reply.
func (r *Router) sendRREQ(d *netsim.Discovery) sim.Time {
	r.Seq++ // RFC 3561 §6.1: increment own seq before a RREQ
	r.rreqID++
	ttl := netDiameter
	if !r.cfg.NoExpandingRing {
		switch {
		case d.TTL == 0:
			ttl = ttlStart
		case d.TTL+ttlIncrement <= ttlThreshold:
			ttl = d.TTL + ttlIncrement
		}
	}
	d.TTL = ttl
	dstSeq, dstSeqKnown, _ := r.Routes.LastSeq(d.Dst)
	if !dstSeqKnown {
		dstSeq = 0
	}
	msg := &RREQ{
		ID:          r.rreqID,
		Dst:         d.Dst,
		DstSeq:      dstSeq,
		DstSeqKnown: dstSeqKnown,
		Src:         r.Node.ID(),
		SrcSeq:      r.Seq,
	}
	r.Send(netsim.BroadcastID, netsim.BroadcastID, ttl, rreqBytes, msg)
	return ringTraversalTime(ttl)
}

// Receive implements netsim.Router.
func (r *Router) Receive(p *netsim.Packet, from netsim.NodeID) {
	if p.Kind == netsim.KindControl {
		switch msg := p.Payload.(type) {
		case *RREQ:
			r.handleRREQ(p, msg, from)
		case *RREP:
			r.handleRREP(p, msg, from)
		case *RERR:
			// Pass on the invalidated routes that had precursors (§6.11).
			if lost := r.ApplyRERR(msg.Unreachable, from); len(lost) > 0 {
				r.broadcastRERR(lost)
			}
		default:
			panic(fmt.Sprintf("aodv: unexpected control payload %T", p.Payload))
		}
		return
	}
	r.Forward(p, from)
}

func (r *Router) handleRREQ(p *netsim.Packet, msg *RREQ, from netsim.NodeID) {
	me := r.Node.ID()
	if msg.Src == me || r.Seen(msg.Src, msg.ID) {
		return // our own flood echoed back, or a duplicate
	}

	// Reverse route to the previous hop and to the originator (§6.5).
	r.Routes.Update(from, 0, false, 1, from, activeRouteTimeout)
	hops := msg.HopCount + 1
	minLifetime := 2*netTraversalTime - sim.Time(2*hops)*nodeTraversalTime
	r.Routes.Update(msg.Src, msg.SrcSeq, true, hops, from, minLifetime)

	if msg.Dst == me {
		// RFC 3561 §6.6.1: destination replies, seq = max(own, RREQ's).
		if msg.DstSeqKnown && int32(msg.DstSeq-r.Seq) > 0 {
			r.Seq = msg.DstSeq
		}
		rep := &RREP{
			Dst:      me,
			DstSeq:   r.Seq,
			Src:      msg.Src,
			Lifetime: int64(myRouteTimeout / sim.Millisecond),
		}
		r.Send(from, msg.Src, netsim.DefaultTTL, rrepBytes, rep)
		return
	}
	// Intermediate node with a fresh-enough valid route may answer (§6.6.2).
	if rtHops, rtSeq, rtSeqKnown, rtExpires, ok := r.Routes.ReplyInfo(msg.Dst); ok && rtSeqKnown &&
		(!msg.DstSeqKnown || int32(rtSeq-msg.DstSeq) >= 0) {
		r.Routes.AddPrecursor(msg.Dst, from)
		rep := &RREP{
			HopCount: rtHops,
			Dst:      msg.Dst,
			DstSeq:   rtSeq,
			Src:      msg.Src,
			Lifetime: int64((rtExpires - r.Node.Kernel().Now()) / sim.Millisecond),
		}
		r.Send(from, msg.Src, netsim.DefaultTTL, rrepBytes, rep)
		return
	}
	// Otherwise re-flood with decremented TTL.
	if p.TTL <= 1 {
		return
	}
	fwd := *msg
	fwd.HopCount = hops
	r.Send(netsim.BroadcastID, netsim.BroadcastID, p.TTL-1, rreqBytes, &fwd)
}

func (r *Router) handleRREP(p *netsim.Packet, msg *RREP, from netsim.NodeID) {
	me := r.Node.ID()
	if msg.Hello {
		r.Hello(from, msg.DstSeq, sim.Time(msg.Lifetime)*sim.Millisecond)
		return
	}
	hops := msg.HopCount + 1
	lifetime := sim.Time(msg.Lifetime) * sim.Millisecond
	// Forward route to the replied destination (§6.7).
	r.Routes.Update(msg.Dst, msg.DstSeq, true, hops, from, lifetime)
	r.Routes.Update(from, 0, false, 1, from, activeRouteTimeout)

	if msg.Src == me {
		// Discovery complete: release buffered traffic.
		r.Found(msg.Dst)
		return
	}
	// Relay toward the originator along the reverse path.
	revNext, _, ok := r.Routes.Next(msg.Src)
	if !ok {
		return // reverse route evaporated; the originator will retry
	}
	r.Routes.AddPrecursor(msg.Dst, revNext)
	if _, _, ok := r.Routes.Next(msg.Dst); ok {
		r.Routes.AddPrecursor(from, revNext)
	}
	fwd := *msg
	fwd.HopCount = hops
	r.Send(revNext, msg.Src, p.TTL-1, rrepBytes, &fwd)
}

func (r *Router) sendHello() {
	msg := &RREP{
		Dst:      r.Node.ID(),
		DstSeq:   r.Seq,
		Lifetime: int64((1 + allowedHelloLoss) * helloInterval / sim.Millisecond),
		Hello:    true,
	}
	r.Send(netsim.BroadcastID, netsim.BroadcastID, 1, helloBytes, msg)
}

// broadcastRERR sends a RERR to the neighbours (TTL 1) carrying a copy of
// the given unreachable set: receivers retain RERR payloads, so the
// machine's scratch must not escape.
func (r *Router) broadcastRERR(lost []netsim.Unreachable) {
	msg := &RERR{Unreachable: slices.Clone(lost)}
	r.Node.SendControl(netsim.BroadcastID, netsim.BroadcastID, 1, rerrSize(len(lost)), msg)
}
