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
	Unreachable []AddrBlock
	HopLimit    int
}

func rerrBytes(n int) int { return rerrBase + n*rerrPerAddr }

// Hello is the neighbor-liveness beacon (draft §4.1; interval per Table I).
type Hello struct {
	Seq uint32
}

// Config holds protocol parameters; zero fields take draft defaults with
// Table I's 1 s HELLO interval.
type Config struct {
	HelloInterval    sim.Time // default 1 s
	AllowedHelloLoss int      // default 2
	RouteTimeout     sim.Time // default 5 s (draft ROUTE_TIMEOUT)
	RREQWaitTime     sim.Time // default 1 s
	RREQTries        int      // default 3
	HopLimit         int      // default 20 (draft MSG_HOPLIMIT)
	BufferCap        int      // default 64 packets per destination
	// PathAccumulation can be disabled for the ablation bench, reducing
	// DYMO to an AODV-like protocol.
	PathAccumulation *bool
}

func (c *Config) normalize() {
	if c.HelloInterval == 0 {
		c.HelloInterval = sim.Second
	}
	if c.AllowedHelloLoss == 0 {
		c.AllowedHelloLoss = 2
	}
	if c.RouteTimeout == 0 {
		c.RouteTimeout = 5 * sim.Second
	}
	if c.RREQWaitTime == 0 {
		c.RREQWaitTime = sim.Second
	}
	if c.RREQTries == 0 {
		c.RREQTries = 3
	}
	if c.HopLimit == 0 {
		c.HopLimit = 20
	}
	if c.BufferCap == 0 {
		c.BufferCap = 64
	}
	if c.PathAccumulation == nil {
		t := true
		c.PathAccumulation = &t
	}
}

// discovery tracks one in-progress route discovery. Records (and their
// timers and buffers) are pooled per router: a discovery is only released
// after its timer has been stopped or has fired its final time, so a
// recycled record can never receive a stale callback.
type discovery struct {
	dst     netsim.NodeID
	retries int
	timer   *sim.Timer
	buffer  []*netsim.Packet
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
	table       *denseTable
	discoveries map[netsim.NodeID]*discovery
	discFree    []*discovery
	seen        sim.ExpiringSet[seenKey]
	neighbors   map[netsim.NodeID]*sim.Timer

	// rerrBuf is the reusable RERR collection scratch; floodRERR copies
	// it into an exact-size wire slice, so it never escapes.
	rerrBuf []AddrBlock

	helloTicker *sim.Ticker
	purgeTicker *sim.Ticker

	ctrlPackets uint64
	ctrlBytes   uint64
}

var _ netsim.Router = (*Router)(nil)

// New builds a DYMO router for node.
func New(node *netsim.Node, cfg Config) *Router {
	cfg.normalize()
	r := &Router{
		cfg:         cfg,
		node:        node,
		discoveries: make(map[netsim.NodeID]*discovery),
		neighbors:   make(map[netsim.NodeID]*sim.Timer),
		table:       newDenseTable(node.Kernel(), cfg.RouteTimeout),
	}
	jitter := func() sim.Time {
		span := int64(cfg.HelloInterval / 5)
		return sim.Time(node.Rand().Int63n(span) - span/2)
	}
	r.helloTicker = sim.NewTicker(node.Kernel(), cfg.HelloInterval, jitter, r.sendHello)
	r.purgeTicker = sim.NewTicker(node.Kernel(), sim.Second, nil, r.purge)
	return r
}

// Name implements netsim.Router.
func (r *Router) Name() string { return "dymo" }

// Start implements netsim.Router.
func (r *Router) Start() {
	r.helloTicker.Start()
	r.purgeTicker.Start()
}

// Stop implements netsim.Router.
func (r *Router) Stop() {
	r.helloTicker.Stop()
	r.purgeTicker.Stop()
	for _, d := range r.discoveries {
		d.timer.Stop()
	}
	for _, t := range r.neighbors {
		t.Stop()
	}
}

// ControlTraffic implements netsim.Router.
func (r *Router) ControlTraffic() (uint64, uint64) { return r.ctrlPackets, r.ctrlBytes }

// EachBuffered visits every data packet parked in route-discovery buffers —
// the router's share of the custody set the packet-conservation invariant
// audits.
func (r *Router) EachBuffered(f func(p *netsim.Packet)) {
	for _, d := range r.discoveries {
		for _, p := range d.buffer {
			f(p)
		}
	}
}

// Table reports the valid route to dst, if any (for tests).
func (r *Router) Table(dst netsim.NodeID) (next netsim.NodeID, hops int, ok bool) {
	return r.table.validNext(dst)
}

func (r *Router) now() sim.Time { return r.node.Kernel().Now() }

// updateRoute applies the draft's route-update rules (same sequence-number
// discipline as AODV), guarding against self-routes.
func (r *Router) updateRoute(dst netsim.NodeID, seq uint32, seqKnown bool, hops int, next netsim.NodeID) {
	if dst == r.node.ID() {
		return
	}
	r.table.update(dst, seq, seqKnown, hops, next)
}

// newDiscovery takes a discovery record from the pool (or builds one with
// its timer) and registers it for dst.
func (r *Router) newDiscovery(dst netsim.NodeID) *discovery {
	var d *discovery
	if n := len(r.discFree); n > 0 {
		d = r.discFree[n-1]
		r.discFree[n-1] = nil
		r.discFree = r.discFree[:n-1]
		d.dst, d.retries = dst, 0
	} else {
		d = &discovery{dst: dst}
		d.timer = sim.NewTimer(r.node.Kernel(), func() { r.discoveryTimeout(d) })
	}
	r.discoveries[dst] = d
	return d
}

// releaseDiscovery returns a record whose timer is no longer scheduled to
// the pool, dropping its buffered-packet references.
func (r *Router) releaseDiscovery(d *discovery) {
	for i := range d.buffer {
		d.buffer[i] = nil
	}
	d.buffer = d.buffer[:0]
	r.discFree = append(r.discFree, d)
}

func (r *Router) sendControl(next netsim.NodeID, ttl, size int, msg any) {
	p := &netsim.Packet{
		Kind:      netsim.KindControl,
		Src:       r.node.ID(),
		Dst:       netsim.BroadcastID,
		Port:      netsim.PortRouting,
		TTL:       ttl,
		Size:      size + netsim.IPHeaderBytes,
		Payload:   msg,
		CreatedAt: r.now(),
	}
	if next != netsim.BroadcastID {
		p.Dst = next
	}
	r.ctrlPackets++
	r.ctrlBytes += uint64(p.Size)
	r.node.SendFrame(next, p)
}

// Origin implements netsim.Router.
func (r *Router) Origin(p *netsim.Packet) {
	if next, _, ok := r.table.validNext(p.Dst); ok {
		r.table.refresh(p.Dst)
		r.table.refresh(next)
		r.node.SendFrame(next, p)
		return
	}
	d := r.discoveries[p.Dst]
	if d != nil {
		if len(d.buffer) >= r.cfg.BufferCap {
			r.node.DropData(p, "dymo:buffer-full")
			return
		}
		d.buffer = append(d.buffer, p)
		return
	}
	d = r.newDiscovery(p.Dst)
	d.buffer = append(d.buffer, p)
	r.sendRREQ(d)
}

func (r *Router) sendRREQ(d *discovery) {
	r.seq++
	msg := &RM{
		Target: d.dst,
		Orig:   AddrBlock{Addr: r.node.ID(), Seq: r.seq},
	}
	if seq, seqKnown, ok := r.table.lastSeq(d.dst); ok && seqKnown {
		msg.TargetSeq = seq
		msg.TargetSeqKnown = true
	}
	r.markSeen(seenKey{orig: r.node.ID(), seq: r.seq})
	r.sendControl(netsim.BroadcastID, r.cfg.HopLimit, rmBytes(msg), msg)
	// Exponential backoff across retries, as the draft recommends.
	wait := r.cfg.RREQWaitTime << uint(d.retries)
	d.timer.Reset(wait)
}

func (r *Router) discoveryTimeout(d *discovery) {
	if _, _, ok := r.table.validNext(d.dst); ok {
		r.flush(d)
		return
	}
	d.retries++
	if d.retries >= r.cfg.RREQTries {
		for _, p := range d.buffer {
			r.node.DropData(p, "dymo:no-route")
		}
		delete(r.discoveries, d.dst)
		r.releaseDiscovery(d)
		return
	}
	r.sendRREQ(d)
}

func (r *Router) flush(d *discovery) {
	delete(r.discoveries, d.dst)
	d.timer.Stop()
	for i, p := range d.buffer {
		d.buffer[i] = nil
		// Origin may open a fresh discovery for the same destination if
		// the route evaporated mid-flush; d is already unregistered, so
		// the two records never alias.
		r.Origin(p)
	}
	d.buffer = d.buffer[:0]
	r.releaseDiscovery(d)
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
	next, _, ok := r.table.validNext(p.Dst)
	if !ok {
		// DropData may recycle p, so read the destination first.
		dst := p.Dst
		r.node.DropData(p, "dymo:no-forward-route")
		seq, _, _ := r.table.lastSeq(dst)
		r.rerrBuf = append(r.rerrBuf[:0], AddrBlock{Addr: dst, Seq: seq})
		r.floodRERR(r.rerrBuf)
		return
	}
	r.table.refresh(p.Dst)
	r.table.refresh(p.Src)
	r.table.refresh(next)
	r.table.refresh(from)
	r.node.NoteForward(p)
	r.node.SendFrame(next, p)
}

// installFromRM learns routes from every address block carried by a routing
// message — the path-accumulation payoff.
func (r *Router) installFromRM(msg *RM, from netsim.NodeID) {
	// The originator block is len(Path)+1 hops away from the receiver
	// (each accumulated entry is one hop closer to us).
	r.updateRoute(msg.Orig.Addr, msg.Orig.Seq, true, msg.HopCount+1, from)
	if *r.cfg.PathAccumulation {
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
			next, _, ok := r.table.validNext(msg.Orig.Addr)
			if !ok {
				return
			}
			r.sendControl(next, r.cfg.HopLimit, rmBytes(rep), rep)
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
		r.sendControl(netsim.BroadcastID, p.TTL-1, rmBytes(fwd), fwd)
		return
	}

	// RREP handling.
	if msg.Target == me {
		if d := r.discoveries[msg.Orig.Addr]; d != nil {
			r.flush(d)
		}
		return
	}
	next, _, ok := r.table.validNext(msg.Target)
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
	r.sendControl(next, p.TTL-1, rmBytes(fwd), fwd)
}

func (r *Router) pathEntry() AddrBlock {
	if *r.cfg.PathAccumulation {
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
	r.sendControl(netsim.BroadcastID, 1, helloSize, &Hello{Seq: r.seq})
}

func (r *Router) handleHello(msg *Hello, from netsim.NodeID) {
	r.updateRoute(from, msg.Seq, false, 1, from)
	t := r.neighbors[from]
	if t == nil {
		t = sim.NewTimer(r.node.Kernel(), func() { r.neighborLost(from) })
		r.neighbors[from] = t
	}
	t.Reset(sim.Time(r.cfg.AllowedHelloLoss+1) * r.cfg.HelloInterval)
}

func (r *Router) neighborLost(n netsim.NodeID) {
	delete(r.neighbors, n)
	r.linkBroken(n)
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
	r.rerrBuf = r.table.breakVia(neighbor, r.rerrBuf[:0])
	r.floodRERR(r.rerrBuf)
}

// floodRERR multicasts a RERR "to all nodes in range"; receivers that lose
// routes re-flood, spreading the breakage information (paper §III-B.3).
// floodRERR multicasts a RERR carrying the given unreachable set. The
// slice is copied at exact size onto the wire message — receivers retain
// RERR payloads past this call, so the reusable scratch must not escape.
func (r *Router) floodRERR(lost []AddrBlock) {
	if len(lost) == 0 {
		return
	}
	wire := make([]AddrBlock, len(lost))
	copy(wire, lost)
	msg := &RERR{Unreachable: wire, HopLimit: r.cfg.HopLimit}
	r.sendControl(netsim.BroadcastID, r.cfg.HopLimit, rerrBytes(len(wire)), msg)
}

func (r *Router) handleRERR(msg *RERR, from netsim.NodeID) {
	r.rerrBuf = r.rerrBuf[:0]
	for _, u := range msg.Unreachable {
		if seq, matched := r.table.rerrApply(u.Addr, from, u.Seq); matched {
			r.rerrBuf = append(r.rerrBuf, AddrBlock{Addr: u.Addr, Seq: seq})
		}
	}
	if len(r.rerrBuf) > 0 && msg.HopLimit > 1 {
		wire := make([]AddrBlock, len(r.rerrBuf))
		copy(wire, r.rerrBuf)
		fwd := &RERR{Unreachable: wire, HopLimit: msg.HopLimit - 1}
		r.sendControl(netsim.BroadcastID, fwd.HopLimit, rerrBytes(len(wire)), fwd)
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
	r.table.purgeExpired()
	r.seen.Expire(r.now())
}
