package aodv

import (
	"fmt"

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

// seenKey deduplicates RREQ floods.
type seenKey struct {
	src netsim.NodeID
	id  uint32
}

// Router is one node's AODV instance.
type Router struct {
	cfg  Config
	node *netsim.Node

	table       *netsim.Routes
	seq         uint32
	rreqID      uint32
	seen        sim.ExpiringSet[seenKey]
	discoveries *netsim.Discoveries
	neighbors   *sim.TimerSet // HELLO liveness, one item per table index

	// rerrBuf is the reusable RERR collection scratch; broadcastRERR
	// copies it into an exact-size wire slice, so it never escapes.
	rerrBuf []netsim.Unreachable

	helloTicker *sim.Ticker
	purgeTicker *sim.Ticker
}

var _ netsim.Router = (*Router)(nil)

// New builds an AODV router for node.
func New(node *netsim.Node, cfg Config) *Router {
	r := &Router{
		cfg:   cfg,
		node:  node,
		table: netsim.NewRoutes(node.Kernel()),
	}
	r.discoveries = netsim.NewDiscoveries(node, "aodv", r.table.Usable, r.sendRREQ, r.Origin)
	r.neighbors = node.Kernel().NewTimerSet(func(x int32) { r.linkBroken(r.table.Dst(x)) })
	r.helloTicker = sim.NewTicker(node.Kernel(), helloInterval, node.Jitter(helloInterval), r.sendHello)
	r.purgeTicker = sim.NewTicker(node.Kernel(), sim.Second, nil, r.purge)
	return r
}

// markSeen installs an RREQ dedup entry, expiring after PATH_DISCOVERY_TIME
// (RFC 3561 §10) through a lazy heap so the periodic purge costs
// O(expired). The seed implementation never retired these entries, which
// grew the table without bound over long runs.
func (r *Router) markSeen(key seenKey) {
	r.seen.Add(key, r.node.Kernel().Now()+2*netTraversalTime)
}

func (r *Router) purge() {
	r.table.Purge()
	r.seen.Expire(r.node.Kernel().Now())
}

// Name implements netsim.Router.
func (r *Router) Name() string { return "aodv" }

// Start implements netsim.Router.
func (r *Router) Start() {
	r.helloTicker.Start()
	r.purgeTicker.Start()
	r.discoveries.Resume()
}

// Stop implements netsim.Router.
func (r *Router) Stop() {
	r.helloTicker.Stop()
	r.purgeTicker.Stop()
	r.discoveries.Stop()
	r.neighbors.StopAll()
}

// EachBuffered visits the data packets parked in route discoveries
// (netsim.Discoveries.Each).
func (r *Router) EachBuffered(f func(p *netsim.Packet)) { r.discoveries.Each(f) }

// Table exposes route lookups for tests: it reports the next hop and
// whether a valid route to dst exists.
func (r *Router) Table(dst netsim.NodeID) (next netsim.NodeID, hops int, ok bool) {
	return r.table.Next(dst)
}

// Origin implements netsim.Router.
func (r *Router) Origin(p *netsim.Packet) {
	if next, _, ok := r.table.Next(p.Dst); ok {
		r.table.Refresh(p.Dst, activeRouteTimeout)
		r.table.Refresh(next, activeRouteTimeout)
		r.node.SendFrame(next, p)
		return
	}
	r.discoveries.Park(p)
}

// sendRREQ floods the next request of d's expanding-ring search (§6.4) and
// returns how long it waits for a reply.
func (r *Router) sendRREQ(d *netsim.Discovery) sim.Time {
	r.seq++ // RFC 3561 §6.1: increment own seq before a RREQ
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
	dstSeq, dstSeqKnown, _ := r.table.LastSeq(d.Dst)
	if !dstSeqKnown {
		dstSeq = 0
	}
	msg := &RREQ{
		ID:          r.rreqID,
		Dst:         d.Dst,
		DstSeq:      dstSeq,
		DstSeqKnown: dstSeqKnown,
		Src:         r.node.ID(),
		SrcSeq:      r.seq,
	}
	r.markSeen(seenKey{src: r.node.ID(), id: msg.ID})
	r.node.SendControl(netsim.BroadcastID, netsim.BroadcastID, ttl, rreqBytes, msg)
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
			r.handleRERR(msg, from)
		default:
			panic(fmt.Sprintf("aodv: unexpected control payload %T", p.Payload))
		}
		return
	}
	r.forwardData(p, from)
}

func (r *Router) forwardData(p *netsim.Packet, from netsim.NodeID) {
	p.TTL--
	if p.TTL <= 0 {
		r.node.DropData(p, "aodv:ttl")
		return
	}
	next, _, ok := r.table.Next(p.Dst)
	if !ok {
		// RFC 3561 §6.11 case (ii): data for a destination we cannot reach.
		// DropData may recycle p, so read the destination first.
		dst := p.Dst
		r.node.DropData(p, "aodv:no-forward-route")
		seq, _, _ := r.table.LastSeq(dst)
		r.rerrBuf = append(r.rerrBuf[:0], netsim.Unreachable{Dst: dst, Seq: seq})
		r.broadcastRERR(r.rerrBuf)
		return
	}
	// Active data refreshes source, destination and next-hop routes.
	r.table.Refresh(p.Dst, activeRouteTimeout)
	r.table.Refresh(next, activeRouteTimeout)
	r.table.Refresh(p.Src, activeRouteTimeout)
	r.table.Refresh(from, activeRouteTimeout)
	r.node.SendFrame(next, p)
}

func (r *Router) handleRREQ(p *netsim.Packet, msg *RREQ, from netsim.NodeID) {
	me := r.node.ID()
	if msg.Src == me {
		return // our own flood echoed back
	}
	key := seenKey{src: msg.Src, id: msg.ID}
	if r.seen.Contains(key) {
		return
	}
	r.markSeen(key)

	// Reverse route to the previous hop and to the originator (§6.5).
	r.table.Update(from, 0, false, 1, from, activeRouteTimeout)
	hops := msg.HopCount + 1
	minLifetime := 2*netTraversalTime - sim.Time(2*hops)*nodeTraversalTime
	r.table.Update(msg.Src, msg.SrcSeq, true, hops, from, minLifetime)

	if msg.Dst == me {
		// RFC 3561 §6.6.1: destination replies, seq = max(own, RREQ's).
		if msg.DstSeqKnown && int32(msg.DstSeq-r.seq) > 0 {
			r.seq = msg.DstSeq
		}
		rep := &RREP{
			Dst:      me,
			DstSeq:   r.seq,
			Src:      msg.Src,
			Lifetime: int64(myRouteTimeout / sim.Millisecond),
		}
		r.node.SendControl(from, msg.Src, netsim.DefaultTTL, rrepBytes, rep)
		return
	}
	// Intermediate node with a fresh-enough valid route may answer (§6.6.2).
	if rtHops, rtSeq, rtSeqKnown, rtExpires, ok := r.table.ReplyInfo(msg.Dst); ok && rtSeqKnown &&
		(!msg.DstSeqKnown || int32(rtSeq-msg.DstSeq) >= 0) {
		r.table.AddPrecursor(msg.Dst, from)
		rep := &RREP{
			HopCount: rtHops,
			Dst:      msg.Dst,
			DstSeq:   rtSeq,
			Src:      msg.Src,
			Lifetime: int64((rtExpires - r.node.Kernel().Now()) / sim.Millisecond),
		}
		r.node.SendControl(from, msg.Src, netsim.DefaultTTL, rrepBytes, rep)
		return
	}
	// Otherwise re-flood with decremented TTL.
	if p.TTL <= 1 {
		return
	}
	fwd := *msg
	fwd.HopCount = hops
	r.node.SendControl(netsim.BroadcastID, netsim.BroadcastID, p.TTL-1, rreqBytes, &fwd)
}

func (r *Router) handleRREP(p *netsim.Packet, msg *RREP, from netsim.NodeID) {
	me := r.node.ID()
	if msg.Hello {
		r.handleHello(msg, from)
		return
	}
	hops := msg.HopCount + 1
	lifetime := sim.Time(msg.Lifetime) * sim.Millisecond
	// Forward route to the replied destination (§6.7).
	r.table.Update(msg.Dst, msg.DstSeq, true, hops, from, lifetime)
	r.table.Update(from, 0, false, 1, from, activeRouteTimeout)

	if msg.Src == me {
		// Discovery complete: release buffered traffic.
		r.discoveries.Found(msg.Dst)
		return
	}
	// Relay toward the originator along the reverse path.
	revNext, _, ok := r.table.Next(msg.Src)
	if !ok {
		return // reverse route evaporated; the originator will retry
	}
	r.table.AddPrecursor(msg.Dst, revNext)
	if _, _, ok := r.table.Next(msg.Dst); ok {
		r.table.AddPrecursor(from, revNext)
	}
	fwd := *msg
	fwd.HopCount = hops
	r.node.SendControl(revNext, msg.Src, p.TTL-1, rrepBytes, &fwd)
}

func (r *Router) sendHello() {
	msg := &RREP{
		Dst:      r.node.ID(),
		DstSeq:   r.seq,
		Lifetime: int64((1 + allowedHelloLoss) * helloInterval / sim.Millisecond),
		Hello:    true,
	}
	r.node.SendControl(netsim.BroadcastID, netsim.BroadcastID, 1, helloBytes, msg)
}

func (r *Router) handleHello(msg *RREP, from netsim.NodeID) {
	life := sim.Time(msg.Lifetime) * sim.Millisecond
	r.table.Update(from, msg.DstSeq, true, 1, from, life)
	r.neighbors.Reset(r.table.Index(from), (allowedHelloLoss+1)*helloInterval)
}

// LinkFailure implements netsim.Router (data-link feedback, §6.11 case i).
func (r *Router) LinkFailure(next netsim.NodeID, p *netsim.Packet) {
	if p.Kind == netsim.KindData {
		r.node.DropData(p, "aodv:link-failure")
	}
	r.linkBroken(next)
}

func (r *Router) linkBroken(neighbor netsim.NodeID) {
	r.rerrBuf = r.table.BreakVia(neighbor, r.rerrBuf[:0])
	r.broadcastRERR(r.rerrBuf)
}

// broadcastRERR emits a RERR carrying the given unreachable set. The
// slice is copied at exact size onto the wire message — receivers retain
// RERR payloads past this call, so the reusable scratch must not escape.
func (r *Router) broadcastRERR(unreachable []netsim.Unreachable) {
	if len(unreachable) == 0 {
		return
	}
	wire := make([]netsim.Unreachable, len(unreachable))
	copy(wire, unreachable)
	msg := &RERR{Unreachable: wire}
	r.node.SendControl(netsim.BroadcastID, netsim.BroadcastID, 1, rerrSize(len(wire)), msg)
}

func (r *Router) handleRERR(msg *RERR, from netsim.NodeID) {
	r.rerrBuf = r.rerrBuf[:0]
	for _, u := range msg.Unreachable {
		if seq, propagate, matched := r.table.RerrApply(u.Dst, from, u.Seq); matched && propagate {
			r.rerrBuf = append(r.rerrBuf, netsim.Unreachable{Dst: u.Dst, Seq: seq})
		}
	}
	r.broadcastRERR(r.rerrBuf)
}
