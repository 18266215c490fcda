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
	routeTimeout     = 5 * sim.Second // ROUTE_TIMEOUT
	rreqWaitTime     = sim.Second     // doubled per retry
	hopLimit         = 20             // MSG_HOPLIMIT
)

// Config holds what a scenario chooses about DYMO; the zero value is the
// protocol the paper ran.
type Config struct {
	// NoPathAccumulation stops routers appending themselves to forwarded
	// routing messages, reducing DYMO to an AODV-like protocol (the ablation
	// knob Spec.DYMONoPathAccumulation).
	NoPathAccumulation bool
}

type seenKey struct {
	orig netsim.NodeID
	seq  uint32
}

// seenHold bounds the RREQ duplicate-suppression memory; entries are
// retired lazily through an expiry heap so the purge tick costs
// O(expired), not O(table).
const seenHold = 10 * sim.Second

// Router is one node's DYMO instance.
type Router struct {
	cfg  Config
	node *netsim.Node

	seq         uint32
	table       *netsim.Routes
	discoveries *netsim.Discoveries
	seen        sim.ExpiringSet[seenKey]
	neighbors   *sim.TimerSet // HELLO liveness, one item per table index

	// rerrBuf is the reusable RERR collection scratch; floodRERR copies
	// it into an exact-size wire slice, so it never escapes.
	rerrBuf []netsim.Unreachable

	helloTicker *sim.Ticker
	purgeTicker *sim.Ticker
}

var _ netsim.Router = (*Router)(nil)

// New builds a DYMO router for node.
func New(node *netsim.Node, cfg Config) *Router {
	r := &Router{
		cfg:   cfg,
		node:  node,
		table: netsim.NewRoutes(node.Kernel()),
	}
	r.discoveries = netsim.NewDiscoveries(node, "dymo", r.table.Usable, r.sendRREQ, r.Origin)
	r.neighbors = node.Kernel().NewTimerSet(func(x int32) { r.linkBroken(r.table.Dst(x)) })
	r.helloTicker = sim.NewTicker(node.Kernel(), helloInterval, node.Jitter(helloInterval), r.sendHello)
	r.purgeTicker = sim.NewTicker(node.Kernel(), sim.Second, nil, r.purge)
	return r
}

// Name implements netsim.Router.
func (r *Router) Name() string { return "dymo" }

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

// Table reports the valid route to dst, if any (for tests).
func (r *Router) Table(dst netsim.NodeID) (next netsim.NodeID, hops int, ok bool) {
	return r.table.Next(dst)
}

func (r *Router) now() sim.Time { return r.node.Kernel().Now() }

// updateRoute applies the draft's route-update rules (same sequence-number
// discipline as AODV), guarding against self-routes.
func (r *Router) updateRoute(dst netsim.NodeID, seq uint32, seqKnown bool, hops int, next netsim.NodeID) {
	if dst == r.node.ID() {
		return
	}
	r.table.Update(dst, seq, seqKnown, hops, next, routeTimeout)
}

// Origin implements netsim.Router.
func (r *Router) Origin(p *netsim.Packet) {
	if next, _, ok := r.table.Next(p.Dst); ok {
		r.table.Refresh(p.Dst, routeTimeout)
		r.table.Refresh(next, routeTimeout)
		r.node.SendFrame(next, p)
		return
	}
	r.discoveries.Park(p)
}

// sendRREQ floods the next request of d's search and returns how long it
// waits for a reply.
func (r *Router) sendRREQ(d *netsim.Discovery) sim.Time {
	r.seq++
	msg := &RM{
		Target: d.Dst,
		Orig:   AddrBlock{Addr: r.node.ID(), Seq: r.seq},
	}
	if seq, seqKnown, ok := r.table.LastSeq(d.Dst); ok && seqKnown {
		msg.TargetSeq = seq
		msg.TargetSeqKnown = true
	}
	r.markSeen(seenKey{orig: r.node.ID(), seq: r.seq})
	r.node.SendControl(netsim.BroadcastID, netsim.BroadcastID, hopLimit, rmBytes(msg), msg)
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
			r.handleRERR(msg, from)
		case *Hello:
			r.handleHello(msg, from)
		default:
			panic(fmt.Sprintf("dymo: unexpected control payload %T", p.Payload))
		}
		return
	}
	r.forwardData(p, from)
}

func (r *Router) forwardData(p *netsim.Packet, from netsim.NodeID) {
	p.TTL--
	if p.TTL <= 0 {
		r.node.DropData(p, "dymo:ttl")
		return
	}
	next, _, ok := r.table.Next(p.Dst)
	if !ok {
		// DropData may recycle p, so read the destination first.
		dst := p.Dst
		r.node.DropData(p, "dymo:no-forward-route")
		seq, _, _ := r.table.LastSeq(dst)
		r.rerrBuf = append(r.rerrBuf[:0], netsim.Unreachable{Dst: dst, Seq: seq})
		r.floodRERR(r.rerrBuf)
		return
	}
	r.table.Refresh(p.Dst, routeTimeout)
	r.table.Refresh(p.Src, routeTimeout)
	r.table.Refresh(next, routeTimeout)
	r.table.Refresh(from, routeTimeout)
	r.node.SendFrame(next, p)
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
	me := r.node.ID()
	if msg.Orig.Addr == me {
		return
	}
	key := seenKey{orig: msg.Orig.Addr, seq: msg.Orig.Seq}
	if !msg.IsReply {
		if r.seen.Contains(key) {
			return
		}
		r.markSeen(key)
	}
	r.installFromRM(msg, from)

	if !msg.IsReply {
		if msg.Target == me {
			// Target: answer with an RREP accumulated back (draft §5.2).
			r.seq++
			if msg.TargetSeqKnown && int32(msg.TargetSeq-r.seq) > 0 {
				r.seq = msg.TargetSeq + 1
			}
			rep := &RM{
				IsReply: true,
				Target:  msg.Orig.Addr,
				Orig:    AddrBlock{Addr: me, Seq: r.seq},
			}
			next, _, ok := r.table.Next(msg.Orig.Addr)
			if !ok {
				return
			}
			r.node.SendControl(next, next, hopLimit, rmBytes(rep), rep)
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
		fwd.Path = appendPath(msg.Path, r.pathEntry())
		r.node.SendControl(netsim.BroadcastID, netsim.BroadcastID, p.TTL-1, rmBytes(fwd), fwd)
		return
	}

	// RREP handling.
	if msg.Target == me {
		r.discoveries.Found(msg.Orig.Addr)
		return
	}
	next, _, ok := r.table.Next(msg.Target)
	if !ok {
		return
	}
	fwd := &RM{
		IsReply:  true,
		Target:   msg.Target,
		Orig:     msg.Orig,
		HopCount: msg.HopCount + 1,
	}
	fwd.Path = appendPath(msg.Path, r.pathEntry())
	r.node.SendControl(next, next, p.TTL-1, rmBytes(fwd), fwd)
}

func (r *Router) pathEntry() AddrBlock {
	if !r.cfg.NoPathAccumulation {
		r.seq++
	}
	return AddrBlock{Addr: r.node.ID(), Seq: r.seq}
}

// appendPath builds the forwarded accumulation path in one exact-size
// allocation (the old double-append grew a zero-cap slice twice).
func appendPath(path []AddrBlock, self AddrBlock) []AddrBlock {
	out := make([]AddrBlock, len(path)+1)
	copy(out, path)
	out[len(path)] = self
	return out
}

func (r *Router) sendHello() {
	r.node.SendControl(netsim.BroadcastID, netsim.BroadcastID, 1, helloSize, &Hello{Seq: r.seq})
}

func (r *Router) handleHello(msg *Hello, from netsim.NodeID) {
	r.updateRoute(from, msg.Seq, false, 1, from)
	r.neighbors.Reset(r.table.Index(from), (allowedHelloLoss+1)*helloInterval)
}

// LinkFailure implements netsim.Router (active link monitoring through
// data-link feedback, as the paper describes).
func (r *Router) LinkFailure(next netsim.NodeID, p *netsim.Packet) {
	if p.Kind == netsim.KindData {
		r.node.DropData(p, "dymo:link-failure")
	}
	r.linkBroken(next)
}

func (r *Router) linkBroken(neighbor netsim.NodeID) {
	r.rerrBuf = r.table.BreakVia(neighbor, r.rerrBuf[:0])
	r.floodRERR(r.rerrBuf)
}

// floodRERR multicasts a RERR carrying the given unreachable set "to all
// nodes in range"; receivers that lose routes re-flood, spreading the
// breakage information (paper §III-B.3). The slice is copied at exact size
// onto the wire message — receivers retain RERR payloads past this call, so
// the reusable scratch must not escape.
func (r *Router) floodRERR(lost []netsim.Unreachable) {
	if len(lost) == 0 {
		return
	}
	wire := make([]netsim.Unreachable, len(lost))
	copy(wire, lost)
	msg := &RERR{Unreachable: wire, HopLimit: hopLimit}
	r.node.SendControl(netsim.BroadcastID, netsim.BroadcastID, hopLimit, rerrBytes(len(wire)), msg)
}

func (r *Router) handleRERR(msg *RERR, from netsim.NodeID) {
	r.rerrBuf = r.rerrBuf[:0]
	for _, u := range msg.Unreachable {
		if seq, _, matched := r.table.RerrApply(u.Dst, from, u.Seq); matched {
			r.rerrBuf = append(r.rerrBuf, netsim.Unreachable{Dst: u.Dst, Seq: seq})
		}
	}
	if len(r.rerrBuf) > 0 && msg.HopLimit > 1 {
		wire := make([]netsim.Unreachable, len(r.rerrBuf))
		copy(wire, r.rerrBuf)
		fwd := &RERR{Unreachable: wire, HopLimit: msg.HopLimit - 1}
		r.node.SendControl(netsim.BroadcastID, netsim.BroadcastID, fwd.HopLimit, rerrBytes(len(wire)), fwd)
	}
}

// markSeen installs a dedup entry and registers its deadline; keys are
// unique per message, so one push per insert keeps the heap at one item
// per live entry.
func (r *Router) markSeen(key seenKey) {
	r.seen.Add(key, r.now()+seenHold)
}

// SeenEntries reports the dedup-table size (for memory-stability tests).
func (r *Router) SeenEntries() int { return r.seen.Len() }

func (r *Router) purge() {
	r.table.Purge()
	r.seen.Expire(r.now())
}
