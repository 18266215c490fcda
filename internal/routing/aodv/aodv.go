package aodv

import (
	"fmt"

	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// Config holds protocol timing parameters; zero fields take the RFC 3561
// defaults (with Table I's 1 s HELLO interval).
type Config struct {
	HelloInterval      sim.Time // default 1 s (Table I)
	AllowedHelloLoss   int      // default 2
	ActiveRouteTimeout sim.Time // default 3 s
	MyRouteTimeout     sim.Time // default 6 s
	NodeTraversalTime  sim.Time // default 40 ms
	NetDiameter        int      // default 35
	RREQRetries        int      // default 2
	// ExpandingRing enables the TTL expanding-ring search of RFC 3561 §6.4
	// (default true; the ablation bench disables it).
	ExpandingRing *bool
	// TTLStart, TTLIncrement, TTLThreshold tune the ring search.
	TTLStart, TTLIncrement, TTLThreshold int
	// BufferCap bounds the number of data packets queued per destination
	// while discovery runs (default 64, matching ns-2's sendBuffer).
	BufferCap int
}

func (c *Config) normalize() {
	if c.HelloInterval == 0 {
		c.HelloInterval = sim.Second
	}
	if c.AllowedHelloLoss == 0 {
		c.AllowedHelloLoss = 2
	}
	if c.ActiveRouteTimeout == 0 {
		c.ActiveRouteTimeout = 3 * sim.Second
	}
	if c.MyRouteTimeout == 0 {
		c.MyRouteTimeout = 2 * c.ActiveRouteTimeout
	}
	if c.NodeTraversalTime == 0 {
		c.NodeTraversalTime = 40 * sim.Millisecond
	}
	if c.NetDiameter == 0 {
		c.NetDiameter = 35
	}
	if c.RREQRetries == 0 {
		c.RREQRetries = 2
	}
	if c.ExpandingRing == nil {
		t := true
		c.ExpandingRing = &t
	}
	if c.TTLStart == 0 {
		c.TTLStart = 5
	}
	if c.TTLIncrement == 0 {
		c.TTLIncrement = 2
	}
	if c.TTLThreshold == 0 {
		c.TTLThreshold = 7
	}
	if c.BufferCap == 0 {
		c.BufferCap = 64
	}
}

func (c Config) netTraversalTime() sim.Time {
	return 2 * c.NodeTraversalTime * sim.Time(c.NetDiameter)
}

func (c Config) ringTraversalTime(ttl int) sim.Time {
	return 2 * c.NodeTraversalTime * sim.Time(ttl+2)
}

// discovery tracks one in-progress route discovery. Records (and their
// timers and buffers) are pooled per router: a discovery is only released
// after its timer has been stopped or has fired its final time, so a
// recycled record can never receive a stale callback.
type discovery struct {
	dst     netsim.NodeID
	retries int
	ttl     int
	timer   *sim.Timer
	buffer  []*netsim.Packet
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

	table       *denseTable
	seq         uint32
	rreqID      uint32
	seen        sim.ExpiringSet[seenKey]
	discoveries map[netsim.NodeID]*discovery
	discFree    []*discovery
	neighbors   map[netsim.NodeID]*sim.Timer // hello liveness

	// rerrBuf is the reusable RERR collection scratch; broadcastRERR
	// copies it into an exact-size wire slice, so it never escapes.
	rerrBuf []UnreachableDst

	helloTicker *sim.Ticker
	purgeTicker *sim.Ticker

	ctrlPackets uint64
	ctrlBytes   uint64
}

var _ netsim.Router = (*Router)(nil)

// New builds an AODV router for node.
func New(node *netsim.Node, cfg Config) *Router {
	cfg.normalize()
	r := &Router{
		cfg:         cfg,
		node:        node,
		discoveries: make(map[netsim.NodeID]*discovery),
		neighbors:   make(map[netsim.NodeID]*sim.Timer),
		table:       newDenseTable(node.Kernel()),
	}
	jitter := func() sim.Time {
		// ±10% emission jitter, standard to decorrelate HELLO storms.
		span := int64(cfg.HelloInterval / 5)
		return sim.Time(node.Rand().Int63n(span) - span/2)
	}
	r.helloTicker = sim.NewTicker(node.Kernel(), cfg.HelloInterval, jitter, r.sendHello)
	r.purgeTicker = sim.NewTicker(node.Kernel(), sim.Second, nil, r.purge)
	return r
}

// markSeen installs an RREQ dedup entry, expiring after PATH_DISCOVERY_TIME
// (RFC 3561 §10) through a lazy heap so the periodic purge costs
// O(expired). The seed implementation never retired these entries, which
// grew the table without bound over long runs.
func (r *Router) markSeen(key seenKey) {
	r.seen.Add(key, r.node.Kernel().Now()+2*r.cfg.netTraversalTime())
}

// SeenEntries reports the dedup-table size (for memory-stability tests).
func (r *Router) SeenEntries() int { return r.seen.Len() }

func (r *Router) purge() {
	r.table.purgeExpired()
	r.seen.Expire(r.node.Kernel().Now())
}

// Name implements netsim.Router.
func (r *Router) Name() string { return "aodv" }

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

// Table exposes route lookups for tests: it reports the next hop and
// whether a valid route to dst exists.
func (r *Router) Table(dst netsim.NodeID) (next netsim.NodeID, hops int, ok bool) {
	return r.table.validNext(dst)
}

// newDiscovery takes a discovery record from the pool (or builds one with
// its timer) and registers it for dst.
func (r *Router) newDiscovery(dst netsim.NodeID) *discovery {
	var d *discovery
	if n := len(r.discFree); n > 0 {
		d = r.discFree[n-1]
		r.discFree[n-1] = nil
		r.discFree = r.discFree[:n-1]
		d.dst, d.retries, d.ttl = dst, 0, 0
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

// sendControl wraps an AODV message into a control packet and transmits it.
func (r *Router) sendControl(next netsim.NodeID, dst netsim.NodeID, ttl, size int, msg any) {
	p := &netsim.Packet{
		UID:       0, // control packets are not tracked by metrics UIDs
		Kind:      netsim.KindControl,
		Src:       r.node.ID(),
		Dst:       dst,
		Port:      netsim.PortRouting,
		TTL:       ttl,
		Size:      size + netsim.IPHeaderBytes,
		Payload:   msg,
		CreatedAt: r.node.Kernel().Now(),
	}
	r.ctrlPackets++
	r.ctrlBytes += uint64(p.Size)
	r.node.SendFrame(next, p)
}

// Origin implements netsim.Router.
func (r *Router) Origin(p *netsim.Packet) {
	if next, _, ok := r.table.validNext(p.Dst); ok {
		r.table.refresh(p.Dst, r.cfg.ActiveRouteTimeout)
		r.table.refresh(next, r.cfg.ActiveRouteTimeout)
		r.node.SendFrame(next, p)
		return
	}
	r.bufferAndDiscover(p)
}

func (r *Router) bufferAndDiscover(p *netsim.Packet) {
	d := r.discoveries[p.Dst]
	if d != nil {
		if len(d.buffer) >= r.cfg.BufferCap {
			r.node.DropData(p, "aodv:buffer-full")
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
	r.seq++ // RFC 3561 §6.1: increment own seq before a RREQ
	r.rreqID++
	ttl := r.cfg.NetDiameter
	if *r.cfg.ExpandingRing {
		switch {
		case d.ttl == 0:
			ttl = r.cfg.TTLStart
		case d.ttl+r.cfg.TTLIncrement <= r.cfg.TTLThreshold:
			ttl = d.ttl + r.cfg.TTLIncrement
		default:
			ttl = r.cfg.NetDiameter
		}
	}
	d.ttl = ttl
	dstSeq, dstSeqKnown, _ := r.table.lastSeq(d.dst)
	if !dstSeqKnown {
		dstSeq = 0
	}
	msg := &RREQ{
		ID:          r.rreqID,
		Dst:         d.dst,
		DstSeq:      dstSeq,
		DstSeqKnown: dstSeqKnown,
		Src:         r.node.ID(),
		SrcSeq:      r.seq,
	}
	r.markSeen(seenKey{src: r.node.ID(), id: msg.ID})
	r.sendControl(netsim.BroadcastID, netsim.BroadcastID, ttl, rreqBytes, msg)
	d.timer.Reset(r.cfg.ringTraversalTime(ttl))
}

func (r *Router) discoveryTimeout(d *discovery) {
	if _, _, ok := r.table.validNext(d.dst); ok {
		r.flushBuffer(d)
		return
	}
	d.retries++
	maxTries := r.cfg.RREQRetries
	if d.retries > maxTries {
		for _, p := range d.buffer {
			r.node.DropData(p, "aodv:no-route")
		}
		delete(r.discoveries, d.dst)
		r.releaseDiscovery(d)
		return
	}
	r.sendRREQ(d)
}

func (r *Router) flushBuffer(d *discovery) {
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
	next, _, ok := r.table.validNext(p.Dst)
	if !ok {
		// RFC 3561 §6.11 case (ii): data for a destination we cannot reach.
		// DropData may recycle p, so read the destination first.
		dst := p.Dst
		r.node.DropData(p, "aodv:no-forward-route")
		seq, _, _ := r.table.lastSeq(dst)
		r.rerrBuf = append(r.rerrBuf[:0], UnreachableDst{Dst: dst, Seq: seq})
		r.broadcastRERR(r.rerrBuf)
		return
	}
	// Active data refreshes source, destination and next-hop routes.
	r.table.refresh(p.Dst, r.cfg.ActiveRouteTimeout)
	r.table.refresh(next, r.cfg.ActiveRouteTimeout)
	r.table.refresh(p.Src, r.cfg.ActiveRouteTimeout)
	r.table.refresh(from, r.cfg.ActiveRouteTimeout)
	r.node.NoteForward(p)
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
	r.table.update(from, 0, false, 1, from, r.cfg.ActiveRouteTimeout)
	hops := msg.HopCount + 1
	minLifetime := 2*r.cfg.netTraversalTime() - sim.Time(2*hops)*r.cfg.NodeTraversalTime
	r.table.update(msg.Src, msg.SrcSeq, true, hops, from, minLifetime)

	if msg.Dst == me {
		// RFC 3561 §6.6.1: destination replies, seq = max(own, RREQ's).
		if msg.DstSeqKnown && int32(msg.DstSeq-r.seq) > 0 {
			r.seq = msg.DstSeq
		}
		rep := &RREP{
			Dst:      me,
			DstSeq:   r.seq,
			Src:      msg.Src,
			Lifetime: int64(r.cfg.MyRouteTimeout / sim.Millisecond),
		}
		r.sendControl(from, msg.Src, netsim.DefaultTTL, rrepBytes, rep)
		return
	}
	// Intermediate node with a fresh-enough valid route may answer (§6.6.2).
	if rtHops, rtSeq, rtSeqKnown, rtExpires, ok := r.table.replyInfo(msg.Dst); ok && rtSeqKnown &&
		(!msg.DstSeqKnown || int32(rtSeq-msg.DstSeq) >= 0) {
		r.table.addPrecursor(msg.Dst, from)
		rep := &RREP{
			HopCount: rtHops,
			Dst:      msg.Dst,
			DstSeq:   rtSeq,
			Src:      msg.Src,
			Lifetime: int64((rtExpires - r.node.Kernel().Now()) / sim.Millisecond),
		}
		r.sendControl(from, msg.Src, netsim.DefaultTTL, rrepBytes, rep)
		return
	}
	// Otherwise re-flood with decremented TTL.
	if p.TTL <= 1 {
		return
	}
	fwd := *msg
	fwd.HopCount = hops
	r.sendControl(netsim.BroadcastID, netsim.BroadcastID, p.TTL-1, rreqBytes, &fwd)
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
	r.table.update(msg.Dst, msg.DstSeq, true, hops, from, lifetime)
	r.table.update(from, 0, false, 1, from, r.cfg.ActiveRouteTimeout)

	if msg.Src == me {
		// Discovery complete: release buffered traffic.
		if d := r.discoveries[msg.Dst]; d != nil {
			r.flushBuffer(d)
		}
		return
	}
	// Relay toward the originator along the reverse path.
	revNext, _, ok := r.table.validNext(msg.Src)
	if !ok {
		return // reverse route evaporated; the originator will retry
	}
	r.table.addPrecursor(msg.Dst, revNext)
	if _, _, ok := r.table.validNext(msg.Dst); ok {
		r.table.addPrecursor(from, revNext)
	}
	fwd := *msg
	fwd.HopCount = hops
	r.sendControl(revNext, msg.Src, p.TTL-1, rrepBytes, &fwd)
}

func (r *Router) sendHello() {
	msg := &RREP{
		Dst:      r.node.ID(),
		DstSeq:   r.seq,
		Lifetime: int64((1 + sim.Time(r.cfg.AllowedHelloLoss)) * r.cfg.HelloInterval / sim.Millisecond),
		Hello:    true,
	}
	r.sendControl(netsim.BroadcastID, netsim.BroadcastID, 1, helloBytes, msg)
}

func (r *Router) handleHello(msg *RREP, from netsim.NodeID) {
	life := sim.Time(msg.Lifetime) * sim.Millisecond
	r.table.update(from, msg.DstSeq, true, 1, from, life)
	t := r.neighbors[from]
	if t == nil {
		t = sim.NewTimer(r.node.Kernel(), func() { r.neighborLost(from) })
		r.neighbors[from] = t
	}
	t.Reset(sim.Time(r.cfg.AllowedHelloLoss+1) * r.cfg.HelloInterval)
}

func (r *Router) neighborLost(neighbor netsim.NodeID) {
	delete(r.neighbors, neighbor)
	r.linkBroken(neighbor)
}

// LinkFailure implements netsim.Router (data-link feedback, §6.11 case i).
func (r *Router) LinkFailure(next netsim.NodeID, p *netsim.Packet) {
	if p.Kind == netsim.KindData {
		r.node.DropData(p, "aodv:link-failure")
	}
	r.linkBroken(next)
}

func (r *Router) linkBroken(neighbor netsim.NodeID) {
	r.rerrBuf = r.table.breakVia(neighbor, r.rerrBuf[:0])
	r.broadcastRERR(r.rerrBuf)
}

// broadcastRERR emits a RERR carrying the given unreachable set. The
// slice is copied at exact size onto the wire message — receivers retain
// RERR payloads past this call, so the reusable scratch must not escape.
func (r *Router) broadcastRERR(unreachable []UnreachableDst) {
	if len(unreachable) == 0 {
		return
	}
	wire := make([]UnreachableDst, len(unreachable))
	copy(wire, unreachable)
	msg := &RERR{Unreachable: wire}
	r.sendControl(netsim.BroadcastID, netsim.BroadcastID, 1, rerrSize(len(wire)), msg)
}

func (r *Router) handleRERR(msg *RERR, from netsim.NodeID) {
	r.rerrBuf = r.rerrBuf[:0]
	for _, u := range msg.Unreachable {
		if seq, propagate, matched := r.table.rerrApply(u.Dst, from, u.Seq); matched && propagate {
			r.rerrBuf = append(r.rerrBuf, UnreachableDst{Dst: u.Dst, Seq: seq})
		}
	}
	r.broadcastRERR(r.rerrBuf)
}
