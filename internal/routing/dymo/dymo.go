// Package dymo implements the Dynamic MANET On-demand routing protocol of
// draft-ietf-manet-dymo-14, the third protocol of the paper (§III-B.3).
//
// DYMO keeps AODV's reactive RREQ/RREP discovery and sequence-number loop
// freedom but adds *path accumulation*: every router that forwards a
// routing message appends its own address and sequence number, so receivers
// learn routes to every intermediate hop, not just the originator and
// target — the "major difference between DYMO and AODV" the paper calls
// out. Link breaks trigger RERR messages flooded "to all nodes in range",
// and links are monitored through data-link feedback and HELLOs (Table I
// gives DYMO a 1 s HELLO interval).
package dymo

import (
	"fmt"
	"slices"

	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// Wire sizes (draft-14 generic packet/message format, approximated).
const (
	rmBaseBytes   = 16
	addrBlockSize = 8
	rerrBase      = 12
	rerrPerAddr   = 8
	helloSize     = 12
)

// AddrBlock is one accumulated (address, sequence number) pair plus the hop
// distance from the message's current transmitter.
type AddrBlock struct {
	Addr netsim.NodeID
	Seq  uint32
	Dist int // hops from this block's node to the current transmitter
}

// RM is a DYMO routing message: RREQ when IsReply is false, RREP otherwise.
type RM struct {
	IsReply        bool
	Target         netsim.NodeID
	TargetSeq      uint32
	TargetSeqKnown bool
	Orig           AddrBlock   // the message originator
	Path           []AddrBlock // accumulated intermediate routers
	HopCount       int
}

func rmBytes(m *RM) int { return rmBaseBytes + (1+len(m.Path))*addrBlockSize }

// RERR reports unreachable destinations; it floods one hop at a time
// through re-broadcasts by routers that had matching routes.
type RERR struct {
	Unreachable []netsim.Unreachable
	HopLimit    int
}

func rerrBytes(n int) int { return rerrBase + n*rerrPerAddr }

// Hello is the neighbor-liveness beacon (draft §4.1; interval per Table I).
type Hello struct {
	Seq uint32
}

// Protocol constants: draft-14 defaults with Table I's 1 s HELLO interval.
// RREQ_TRIES and the discovery buffer are netsim.Discoveries'.
const (
	helloInterval    = sim.Second
	allowedHelloLoss = 2
	routeTimeout     = 5 * sim.Second   // ROUTE_TIMEOUT
	rreqWaitTime     = sim.Second       // doubled per retry
	hopLimit         = 20               // MSG_HOPLIMIT
	seenHold         = 10 * sim.Second  // RREQ duplicate-suppression memory
	routeDeleteTime  = 2 * routeTimeout // ROUTE_DELETE_TIMEOUT
)

// Config holds what a scenario chooses about DYMO; the zero value is the
// protocol the paper ran.
type Config struct {
	// NoPathAccumulation stops routers appending themselves to forwarded
	// routing messages, reducing DYMO to an AODV-like protocol (the ablation
	// knob Spec.DYMONoPathAccumulation).
	NoPathAccumulation bool
}

// Router is one node's DYMO instance: the shared reactive machine plus
// path accumulation and the hop-limited RERR flood.
type Router struct {
	*netsim.Reactive
	cfg Config
}

var _ netsim.Router = (*Router)(nil)

// New builds a DYMO router for node.
func New(node *netsim.Node, cfg Config) *Router {
	r := &Router{cfg: cfg}
	r.Reactive = netsim.NewReactive(node, netsim.ReactiveProtocol{
		Name:          "dymo",
		RouteLifetime: routeTimeout,
		HelloInterval: helloInterval,
		NeighbourHold: (allowedHelloLoss + 1) * helloInterval,
		SeenHold:      seenHold,
		RebootWait:    routeDeleteTime, // the wait after losing OwnSeqNum
		SendRREQ:      r.sendRREQ,
		SendHello:     r.sendHello,
		SendRERR:      func(lost []netsim.Unreachable) { r.floodRERR(lost, hopLimit) },
	})
	return r
}

// updateRoute applies the draft's route-update rules (same sequence-number
// discipline as AODV), guarding against self-routes.
func (r *Router) updateRoute(dst netsim.NodeID, seq uint32, seqKnown bool, hops int, next netsim.NodeID) {
	if dst == r.Node.ID() {
		return
	}
	r.Routes.Update(dst, seq, seqKnown, hops, next, routeTimeout)
}

// sendRREQ floods the next request of d's search and returns how long it
// waits for a reply.
func (r *Router) sendRREQ(d *netsim.Discovery) sim.Time {
	r.Seq++
	msg := &RM{
		Target: d.Dst,
		Orig:   AddrBlock{Addr: r.Node.ID(), Seq: r.Seq},
	}
	if seq, seqKnown, ok := r.Routes.LastSeq(d.Dst); ok && seqKnown {
		msg.TargetSeq = seq
		msg.TargetSeqKnown = true
	}
	r.Send(netsim.BroadcastID, netsim.BroadcastID, hopLimit, rmBytes(msg), msg)
	// Exponential backoff across retries, as the draft recommends.
	return rreqWaitTime << uint(d.Tries)
}

// Receive implements netsim.Router.
func (r *Router) Receive(p *netsim.Packet, from netsim.NodeID) {
	if p.Kind == netsim.KindControl {
		switch msg := p.Payload.(type) {
		case *RM:
			r.handleRM(p, msg, from)
		case *RERR:
			if lost := r.ApplyRERR(msg.Unreachable, from); len(lost) > 0 && msg.HopLimit > 1 {
				r.floodRERR(lost, msg.HopLimit-1)
			}
		case *Hello:
			// The sender's own number is the freshest there is for it: known,
			// as in AODV's HELLO (RFC 3561 §6.9) and DYMO's originator blocks.
			r.Hello(from, msg.Seq, routeTimeout)
		default:
			panic(fmt.Sprintf("dymo: unexpected control payload %T", p.Payload))
		}
		return
	}
	r.Forward(p, from)
}

// installFromRM learns routes from every address block carried by a routing
// message — the path-accumulation payoff.
func (r *Router) installFromRM(msg *RM, from netsim.NodeID) {
	// The originator block is len(Path)+1 hops away from the receiver
	// (each accumulated entry is one hop closer to us).
	r.updateRoute(msg.Orig.Addr, msg.Orig.Seq, true, msg.HopCount+1, from)
	if !r.cfg.NoPathAccumulation {
		n := len(msg.Path)
		for i, blk := range msg.Path {
			// Path[0] was appended first (closest to the originator); the
			// last entry is the previous transmitter, one hop from us.
			hops := n - i
			r.updateRoute(blk.Addr, blk.Seq, true, hops, from)
		}
	}
	r.updateRoute(from, 0, false, 1, from)
}

func (r *Router) handleRM(p *netsim.Packet, msg *RM, from netsim.NodeID) {
	me := r.Node.ID()
	if msg.Orig.Addr == me || !msg.IsReply && r.Seen(msg.Orig.Addr, msg.Orig.Seq) {
		return
	}
	r.installFromRM(msg, from)

	if !msg.IsReply {
		if msg.Target == me {
			// Target: answer with an RREP accumulated back (draft §5.2).
			r.Seq++
			if msg.TargetSeqKnown && int32(msg.TargetSeq-r.Seq) > 0 {
				r.Seq = msg.TargetSeq + 1
			}
			rep := &RM{
				IsReply: true,
				Target:  msg.Orig.Addr,
				Orig:    AddrBlock{Addr: me, Seq: r.Seq},
			}
			next, _, ok := r.Routes.Next(msg.Orig.Addr)
			if !ok {
				return
			}
			r.Send(next, next, hopLimit, rmBytes(rep), rep)
			return
		}
		// Intermediate: append ourselves and re-flood.
		if p.TTL <= 1 {
			return
		}
		fwd := &RM{
			Target:         msg.Target,
			TargetSeq:      msg.TargetSeq,
			TargetSeqKnown: msg.TargetSeqKnown,
			Orig:           msg.Orig,
			HopCount:       msg.HopCount + 1,
		}
		fwd.Path = r.accumulate(msg.Path)
		r.Send(netsim.BroadcastID, netsim.BroadcastID, p.TTL-1, rmBytes(fwd), fwd)
		return
	}

	// RREP handling.
	if msg.Target == me {
		r.Found(msg.Orig.Addr)
		return
	}
	next, _, ok := r.Routes.Next(msg.Target)
	if !ok {
		return
	}
	fwd := &RM{
		IsReply:  true,
		Target:   msg.Target,
		Orig:     msg.Orig,
		HopCount: msg.HopCount + 1,
	}
	fwd.Path = r.accumulate(msg.Path)
	r.Send(next, next, p.TTL-1, rmBytes(fwd), fwd)
}

// accumulate returns a forwarded message's path: path with this router
// appended, in one exact-size allocation.
func (r *Router) accumulate(path []AddrBlock) []AddrBlock {
	if !r.cfg.NoPathAccumulation {
		r.Seq++
	}
	out := make([]AddrBlock, len(path)+1)
	copy(out, path)
	out[len(path)] = AddrBlock{Addr: r.Node.ID(), Seq: r.Seq}
	return out
}

func (r *Router) sendHello() {
	r.Send(netsim.BroadcastID, netsim.BroadcastID, 1, helloSize, &Hello{Seq: r.Seq})
}

// floodRERR multicasts a RERR carrying a copy of the given unreachable set
// "to all nodes in range", limit hops deep; receivers that lose routes
// re-flood, spreading the breakage information (paper §III-B.3). Receivers
// retain RERR payloads, so the machine's scratch must not escape.
func (r *Router) floodRERR(lost []netsim.Unreachable, limit int) {
	msg := &RERR{Unreachable: slices.Clone(lost), HopLimit: limit}
	r.Node.SendControl(netsim.BroadcastID, netsim.BroadcastID, limit, rerrBytes(len(lost)), msg)
}
