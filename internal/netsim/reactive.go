package netsim

import "cavenet/internal/sim"

// ReactiveProtocol is what one reactive protocol says differently from the
// other (RFC 3561 for AODV, draft-14 for DYMO): its name, its timers, how
// its RERRs propagate, and the three messages it builds itself. Everything
// else about a reactive router is the Reactive machine.
type ReactiveProtocol struct {
	Name string
	// RouteLifetime is how long data keeps a route alive (AODV's
	// ACTIVE_ROUTE_TIMEOUT, DYMO's ROUTE_TIMEOUT), NeighbourHold how long
	// a neighbour lives without a HELLO, SeenHold how long a flood is
	// remembered, RebootWait how long a router rebuilt by a crash stays
	// silent (AODV's DELETE_PERIOD, DYMO's ROUTE_DELETE_TIMEOUT).
	RouteLifetime, HelloInterval, NeighbourHold, SeenHold, RebootWait sim.Time
	// Precursors scopes a received RERR's propagation to the routes that
	// had precursors (RFC 3561 §6.11); without it every route the RERR
	// invalidated is reported on (DYMO).
	Precursors bool
	// SendRREQ is Discoveries' request callback. SendRERR reports a
	// non-empty set of unreachable destinations; the slice is the
	// machine's scratch, so the wire message takes a copy.
	SendRREQ  func(d *Discovery) sim.Time
	SendHello func()
	SendRERR  func(lost []Unreachable)
}

// flood is one remembered flood, and it is its own item in the seen
// list: the originator, its request id (AODV's RREQ ID, DYMO's originator
// sequence number), its deadline, and the flood recorded before it. Every
// deadline is now + SeenHold and nothing refreshes one, so recording
// order is deadline order: purge pops the oldest from the list's head,
// and the newest live floods, followed through older from the newest, are
// exactly the live ones.
type flood struct {
	orig  NodeID
	id    uint32
	older int32
	until sim.Time
}

// Reactive is the machine AODV and DYMO share: the sequence-numbered route
// table, the router's own sequence number, flood duplicate suppression,
// the discovery buffer, HELLO liveness, data forwarding and link-break
// handling. A protocol router embeds it and adds Receive, which dispatches
// its own messages and hands data to Forward; the rest of netsim.Router
// is the machine's. Nothing on the per-packet path calls through the
// ReactiveProtocol value.
//
// A router rebuilt by a crash has lost its own sequence number while its
// neighbours may still route through it on numbers it no longer knows.
// RFC 3561 §6.13 and draft-14's rule for a lost OwnSeqNum say the same:
// for RebootWait after it comes up it learns from what it hears but sends
// no routing message of its own and forwards no control packet or data; a
// data packet for another destination is answered with a RERR and
// restarts the wait. By its end no neighbour uses it as a next hop.
type Reactive struct {
	Node   *Node
	Routes *Routes
	Seq    uint32 // the router's own sequence number

	rebooted    bool     // built by a crash; the wait starts at Start
	quietUntil  sim.Time // end of the reboot wait, 0 if there is none
	proto       ReactiveProtocol
	seen        sim.HoldList[flood]
	newest      int32 // the last flood recorded
	nSeen       int   // live floods: the chain from newest that Seen walks
	discoveries *Discoveries
	neighbours  *sim.TimerSet // HELLO liveness, one item per table index
	rerrBuf     []Unreachable // RERR scratch; never on the wire
	helloTicker *sim.Ticker
	purgeTicker *sim.Ticker
}

// NewReactive builds node's reactive machine for protocol p.
func NewReactive(node *Node, p ReactiveProtocol) *Reactive {
	m := &Reactive{
		Node:     node,
		Routes:   NewRoutes(node.Kernel()),
		proto:    p,
		seen:     sim.NewHoldList[flood](),
		rebooted: node.rebooted,
	}
	m.discoveries = NewDiscoveries(node, m.Routes.Usable, p.SendRREQ, m.Origin)
	m.neighbours = node.Kernel().NewTimerSet(p.NeighbourHold, func(x int32) { m.linkBroken(m.Routes.Dst(x)) })
	m.helloTicker = sim.NewTicker(node.Kernel(), p.HelloInterval, node.Jitter(p.HelloInterval), p.SendHello)
	m.purgeTicker = sim.NewTicker(node.Kernel(), sim.Second, nil, m.purge)
	return m
}

// Name implements Router.
func (m *Reactive) Name() string { return m.proto.Name }

// Start implements Router. A rebuilt router's reboot wait starts here.
func (m *Reactive) Start() {
	if m.rebooted {
		m.rebooted = false
		m.quietUntil = m.Node.Kernel().Now() + m.proto.RebootWait
	}
	m.helloTicker.Start()
	m.purgeTicker.Start()
	m.discoveries.Resume()
}

// Stop implements Router.
func (m *Reactive) Stop() {
	m.helloTicker.Stop()
	m.purgeTicker.Stop()
	m.discoveries.Stop()
	m.neighbours.StopAll()
}

// EachBuffered visits the data packets parked in route discoveries
// (Discoveries.Each).
func (m *Reactive) EachBuffered(f func(p *Packet)) { m.discoveries.Each(f) }

// Table reports the next hop and hop count of a valid route to dst. It
// reads without side effects (Routes.Peek), so a harness may call it
// mid-run without moving the run.
func (m *Reactive) Table(dst NodeID) (next NodeID, hops int, ok bool) {
	return m.Routes.Peek(dst)
}

// Origin implements Router. A router in its reboot wait may not search,
// so data with no route is dropped.
func (m *Reactive) Origin(p *Packet) {
	if next, _, ok := m.Routes.Next(p.Dst); ok {
		m.Routes.Refresh(p.Dst, m.proto.RouteLifetime)
		m.Routes.Refresh(next, m.proto.RouteLifetime)
		m.Node.SendFrame(next, p)
		return
	}
	if m.waiting() {
		m.Node.DropData(p, CauseRebootWait)
		return
	}
	m.discoveries.Park(p)
}

// waiting reports whether the router is in its reboot wait.
func (m *Reactive) waiting() bool {
	return m.quietUntil > 0 && m.Node.Kernel().Now() < m.quietUntil
}

// Send transmits one of the protocol's own routing messages — a request,
// a reply, a HELLO or a re-flood — unless the router is in its reboot
// wait. RERRs go straight to the node.
func (m *Reactive) Send(next, dst NodeID, ttl, size int, msg any) {
	if !m.waiting() {
		m.Node.SendControl(next, dst, ttl, size, msg)
	}
}

// Forward routes a data packet heard from a neighbour on toward its
// destination.
func (m *Reactive) Forward(p *Packet, from NodeID) {
	p.TTL--
	if p.TTL <= 0 {
		m.Node.DropData(p, CauseTTL)
		return
	}
	if m.waiting() {
		m.quietUntil = m.Node.Kernel().Now() + m.proto.RebootWait
		m.unreachable(p, CauseRebootWait)
		return
	}
	next, _, ok := m.Routes.Next(p.Dst)
	if !ok {
		m.unreachable(p, CauseNoForwardRoute)
		return
	}
	// Active data refreshes destination, next-hop, source and previous-hop
	// routes. Any order gives the same table: a refresh touches only its
	// own entry, its purge flip depends only on that entry, and extend is
	// a max, so refreshes of one entry are idempotent.
	m.Routes.Refresh(p.Dst, m.proto.RouteLifetime)
	m.Routes.Refresh(next, m.proto.RouteLifetime)
	m.Routes.Refresh(p.Src, m.proto.RouteLifetime)
	m.Routes.Refresh(from, m.proto.RouteLifetime)
	m.Node.SendFrame(next, p)
}

// unreachable drops data for a destination it cannot forward to and
// reports the destination in a RERR (RFC 3561 §6.11 case ii).
func (m *Reactive) unreachable(p *Packet, c Cause) {
	// DropData may recycle p, so read the destination first.
	dst := p.Dst
	m.Node.DropData(p, c)
	seq, _, _ := m.Routes.LastSeq(dst)
	m.rerrBuf = append(m.rerrBuf[:0], Unreachable{Dst: dst, Seq: seq})
	m.proto.SendRERR(m.rerrBuf)
}

// Seen reports whether the flood (orig, id) has been seen within the
// protocol's hold, and remembers it from now on if not. The live floods
// are walked newest first, so a lookup costs O(nSeen), and nSeen is the
// discoveries in the router's part of the network within the hold: on a
// 2000-vehicle AODV metro run it peaks at 9, 94-96 % of lookups are
// duplicates, and a lookup compares 1.1-1.8 floods on average; 4000
// vehicles double the peak (ROADMAP, "All soft state is one hold list").
// The walk follows nSeen links and no more, since the oldest live flood's
// older may name an item already expired and reused.
//
// A router's own floods are not recorded: both handlers drop a flood of
// their own before they look it up, so no lookup would ever read one.
func (m *Reactive) Seen(orig NodeID, id uint32) bool {
	for i, n := m.newest, 0; n < m.nSeen; i, n = m.seen.At(i).older, n+1 {
		if f := m.seen.At(i); f.orig == orig && f.id == id {
			return true
		}
	}
	m.newest = m.seen.Add(flood{orig: orig, id: id, older: m.newest, until: m.Node.Kernel().Now() + m.proto.SeenHold})
	m.nSeen++
	return false
}

// Found ends dst's route search, if one is open (Discoveries.Found).
func (m *Reactive) Found(dst NodeID) { m.discoveries.Found(dst) }

// Hello installs the one-hop route a neighbour's HELLO announces, with the
// neighbour's own sequence number, and restarts its liveness deadline.
func (m *Reactive) Hello(from NodeID, seq uint32, lifetime sim.Time) {
	m.Routes.Update(from, seq, true, 1, from, lifetime)
	m.neighbours.Reset(m.Routes.Index(from))
}

// ApplyRERR applies a received RERR's entries to the table and returns
// the ones to report on, with their sequence numbers after adoption: every
// route via from that it invalidated, or with Precursors only those that
// had precursors, and none in the reboot wait. The result is scratch,
// valid until the machine's next RERR.
func (m *Reactive) ApplyRERR(lost []Unreachable, from NodeID) []Unreachable {
	m.rerrBuf = m.rerrBuf[:0]
	for _, u := range lost {
		if seq, propagate, matched := m.Routes.RerrApply(u.Dst, from, u.Seq); matched && (propagate || !m.proto.Precursors) {
			m.rerrBuf = append(m.rerrBuf, Unreachable{Dst: u.Dst, Seq: seq})
		}
	}
	if m.waiting() {
		return m.rerrBuf[:0]
	}
	return m.rerrBuf
}

// LinkFailure implements Router: data-link feedback that next is gone
// (RFC 3561 §6.11 case i).
func (m *Reactive) LinkFailure(next NodeID, p *Packet) {
	if p.Kind == KindData {
		m.Node.DropData(p, CauseLinkFailure)
	}
	m.linkBroken(next)
}

func (m *Reactive) linkBroken(neighbour NodeID) {
	m.rerrBuf = m.Routes.BreakVia(neighbour, m.rerrBuf[:0])
	if len(m.rerrBuf) > 0 {
		m.proto.SendRERR(m.rerrBuf)
	}
}

func (m *Reactive) purge() {
	m.Routes.Purge()
	m.expireFloods(m.Node.Kernel().Now())
}

// expireFloods forgets the floods whose deadline passed, oldest first
// from the head of the seen list: O(expired) per purge, and exactly the
// floods a map of deadlines would drop at the first purge with
// now ≥ deadline.
func (m *Reactive) expireFloods(now sim.Time) {
	for i, ok := m.seen.Front(); ok; i, ok = m.seen.Front() {
		if m.seen.At(i).until > now {
			break
		}
		m.seen.Remove(i)
		m.nSeen--
	}
}
