// Package olsr implements the Optimized Link State Routing protocol of
// RFC 3626 (§III-B.1 of the paper): HELLO-based link sensing with
// symmetric/asymmetric link states, 2-hop neighborhood tracking, greedy
// Multi-Point Relay (MPR) selection, TC dissemination through MPR
// forwarding, and shortest-path route computation. The olsrd LQ/ETX
// extension described by the paper is available as an option.
//
// The control plane is built for scale: NodeIDs are interned to small
// dense indices per router, MPR/route recomputation runs on reusable
// slice/stamp scratch (zero steady-state allocations), recompute triggers
// are coalesced to at most one stamp per kernel timestamp through a dirty
// flag, the kernels themselves run only when somebody reads the result,
// and only for the part read, the MPR set or the routing table (see
// recomputeNow), and tuple expiry is tracked by lists in refresh order so
// the periodic purge costs O(expired) instead of sweeping every live
// entry. Per-node state lives in one paged slot per interned index, and
// every 2-hop, topology and duplicate tuple is an item of its expiry
// list, chained from its key's slot: no table keeps a slice or a map per
// key. A forwarded TC or HNA shares the received message.
// The original map-based recompute lives in oracle_test.go, the reference
// the dense kernels and their deferral are tested against.
package olsr

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// LinkCode describes a link's state as advertised inside a HELLO.
type LinkCode int

// Link codes (RFC 3626 §6.1.1, collapsed to the useful subset).
const (
	LinkSym LinkCode = iota + 1
	LinkAsym
	LinkLost
	LinkMPR // symmetric link to a neighbor we selected as MPR
)

// HelloLink is one link entry inside a HELLO message.
type HelloLink struct {
	Neighbor netsim.NodeID
	Code     LinkCode
	// LQ is the sender's measured hello-arrival ratio on this link,
	// included only when the ETX extension is enabled.
	LQ float64
}

// Hello is the neighborhood-sensing message (RFC 3626 §6).
type Hello struct {
	From  netsim.NodeID
	Links []HelloLink
}

// TC is the topology-control message (RFC 3626 §9). A TC is immutable
// once broadcast: every router that forwards it sends the same message.
type TC struct {
	Origin     netsim.NodeID
	ANSN       uint16
	Advertised []netsim.NodeID
	Seq        uint16
	// LQs mirrors Advertised with the originator's link quality to each
	// advertised neighbor (ETX extension only).
	LQs []float64
}

func helloBytes(links int) int { return 16 + 6*links }
func tcBytes(adv int) int      { return 16 + 4*adv }

// Protocol constants: RFC 3626 §18 with the paper's Table I intervals.
const (
	helloInterval = sim.Second
	tcInterval    = 2 * sim.Second
	neighborHold  = 3 * helloInterval // NEIGHB_HOLD_TIME
	topologyHold  = 3 * tcInterval    // TOP_HOLD_TIME
	dupHold       = 30 * sim.Second   // DUP_HOLD_TIME
	// lqWindow is the ETX packet-arrival sampling window, in hello periods.
	lqWindow = 10
)

// Config holds what a scenario chooses about OLSR.
type Config struct {
	// ETX enables the olsrd link-quality extension: routes minimize the sum
	// of ETX(i) = 1/(NI(i)·LQI(i)) instead of hop count.
	ETX bool
}

// linkTuple is the link-set entry of RFC 3626 §4.2, stored in the
// neighbor's slot (the slot's id is the neighbor's). It is present while
// the slot's linkPos is; its item in linkExp carries until, and its item
// in symExp, while it has one, symUntil.
type linkTuple struct {
	linkItem  int32
	symItem   int32 // noTuple once symUntil has expired, or before it is first written
	symUntil  sim.Time
	asymUntil sim.Time
	until     sim.Time
	// lq estimates the hello-arrival ratio for ETX; retained (and reset)
	// across tuple reincarnations to avoid reallocation.
	lq *lqEstimator
}

// slot is a router's state about one interned node: its id, the link
// tuple, its place in linkList, the first items of the 2-hop chain through
// it and of the topology chain it originated, the ends of the chain of
// duplicate tuples it originated, its route and MPR stamps, and the dense
// kernels' per-index scratch. Slots live in sim.Pages and
// never move. On 64-bit a slot is two cache lines (128 B, a page of 16
// fills a size class), and the first holds all that the kernels read of
// a node they reach through a tuple.
type slot struct {
	symStamp   uint64 // epoch in which the node was a symmetric neighbor
	thStamp    uint64 // epoch in which thPos was written
	routeStamp uint64
	route      routeEntry
	twoHop     int32 // first 2-hop tuple through this neighbor, in twoHopExp; noTuple if none
	topo       int32 // first topology tuple this node originated, in topoExp; noTuple if none
	thPos      int32 // position of this strict 2-hop node in the scratch's thList
	linkPos    int32 // position in linkList; -1 if no link tuple is present

	id       netsim.NodeID
	mprStamp uint64
	link     linkTuple
	// The oldest and newest duplicate tuple this node originated, in dups;
	// noTuple if none.
	dup, dupTail int32
}

// noTuple ends a chain.
const noTuple = -1

// twoHopTuple is one 2-hop tuple (nb → th) of RFC 3626 §4.3.2, and it is
// its own item in twoHopExp. The tuples through one neighbor form a chain
// from the neighbor's slot, sorted by the 2-hop node's NodeID: the
// iteration order the route/MPR kernels and the oracle share.
type twoHopTuple struct {
	nb, th int32 // interned neighbor and 2-hop node
	thID   int32 // th's NodeID, a world index, which the merge compares
	next   int32 // next tuple in nb's chain; noTuple at its end
	until  sim.Time
}

// selector is an MPR selector tuple (RFC 3626 §4.3.4).
type selector struct {
	until sim.Time
	item  int32 // the tuple's item in selExp
}

// topoTuple is one topology tuple (origin → dest) of RFC 3626 §4.4, and it
// is its own item in topoExp. An originator's tuples form a chain from its
// slot, sorted by dest NodeID; the chains double as the adjacency list of
// the route Dijkstra.
type topoTuple struct {
	origin, dest int32
	next         int32 // next tuple in origin's chain; noTuple at its end
	ansn         uint16
	until        sim.Time
	linkLQ       float64 // originator's LQ toward dest (ETX mode)
}

// dupTuple is one duplicate tuple of RFC 3626 §3.4, and it is its own
// item in dups. An originator's tuples form a chain from its slot in the
// order they were recorded, which is deadline order: every deadline is
// now + dupHold and nothing refreshes one, so the head of dups is always
// the head of its originator's chain.
type dupTuple struct {
	origin int32 // interned originator
	seq    uint16
	next   int32 // next newer tuple in origin's chain; noTuple at its end
	until  sim.Time
}

type routeEntry struct {
	next netsim.NodeID
	hops int
	cost float64
}

// Router is one node's OLSR instance.
type Router struct {
	cfg  Config
	node *netsim.Node

	// NodeID interning: every node mentioned by control traffic gets a
	// small dense index and a slot, so the recompute kernels run over
	// slots and epoch stamps instead of maps. Indices are never recycled;
	// the universe is bounded by the number of distinct nodes ever heard
	// of.
	idx   netsim.Interner
	slots sim.Pages[slot] // per interned index

	linkList []int32 // indices of present link tuples

	// The 2-hop and topology sets, whose every deadline is now + a
	// constant hold: each tuple is an item of its expiry list, so refresh
	// order is deadline order and purge pops from the head (see purge for
	// why that is exact). The selector list holds selectors' ids.
	twoHopExp sim.HoldList[twoHopTuple]
	topoExp   sim.HoldList[topoTuple]
	selExp    sim.HoldList[netsim.NodeID]

	selectors map[netsim.NodeID]selector // nodes that chose us as MPR

	// The duplicate set: other originators' messages this router processed
	// in the last dupHold, in the order they were recorded (see dupTuple).
	dups sim.HoldList[dupTuple]

	// The link set's two deadlines, until and symUntil, each written only
	// as now + neighborHold: one list item per present link and one per
	// link with a pending symmetric deadline, each holding the neighbor's
	// index. A link failure removes the link and both items.
	linkExp sim.HoldList[int32]
	symExp  sim.HoldList[int32]

	// Recompute output, epoch-stamped in the slots. A stamp equal to the
	// current (non-zero) epoch marks the entry live; clearing the table is
	// a counter increment, not a sweep.
	epochCounter uint64
	routeEpoch   uint64
	mprEpoch     uint64
	mprList      []netsim.NodeID // sorted by NodeID

	// Coalesced, demand-driven recompute: handlers mark the router dirty
	// and schedule at most one recompute event per kernel timestamp; the
	// event only stamps the recompute as due as of lastRecompute, and each
	// read materializes the part it reads synchronously, so observable state
	// is never stale.
	dirty         bool
	lastRecompute sim.Time // time of the last stamp
	recomputes    uint64   // stamps
	pending       part     // parts of the last stamp not materialized yet
	mprRuns       uint64   // kernel runs that built the MPR set
	routeRuns     uint64   // kernel runs that built the routing table

	// routesBuilt, when set, is told at the end of every routing-table
	// build (see WatchRouteBuilds). Nil outside checked runs.
	routesBuilt func()

	scratch denseScratch

	hnaLocal []NetworkAssoc
	hnaSet   []*hnaTuple

	ansn   uint16
	msgSeq uint16

	helloTicker *sim.Ticker
	tcTicker    *sim.Ticker
	purgeTicker *sim.Ticker
	hnaTicker   *sim.Ticker
}

var _ netsim.Router = (*Router)(nil)

// New builds an OLSR router for node.
func New(node *netsim.Node, cfg Config) *Router {
	r := &Router{
		cfg:           cfg,
		node:          node,
		selectors:     make(map[netsim.NodeID]selector),
		dups:          sim.NewHoldList[dupTuple](),
		twoHopExp:     sim.NewHoldList[twoHopTuple](),
		topoExp:       sim.NewHoldList[topoTuple](),
		selExp:        sim.NewHoldList[netsim.NodeID](),
		linkExp:       sim.NewHoldList[int32](),
		symExp:        sim.NewHoldList[int32](),
		lastRecompute: -1,
	}
	r.helloTicker = sim.NewTicker(node.Kernel(), helloInterval, node.Jitter(helloInterval), r.sendHello)
	// TCs keep the HELLO period's jitter span.
	r.tcTicker = sim.NewTicker(node.Kernel(), tcInterval, node.Jitter(helloInterval), r.sendTC)
	r.purgeTicker = sim.NewTicker(node.Kernel(), helloInterval/2, nil, r.purge)
	return r
}

// intern maps id to its dense index, appending a slot when the id is new.
func (r *Router) intern(id netsim.NodeID) int32 {
	i, isNew := r.idx.Intern(id)
	if isNew {
		r.slots.Append(slot{id: id, linkPos: -1, twoHop: noTuple, topo: noTuple, dup: noTuple, dupTail: noTuple})
	}
	return i
}

// slot returns interned index i's slot; the pointer stays valid.
func (r *Router) slot(i int32) *slot { return r.slots.At(i) }

// Name implements netsim.Router.
func (r *Router) Name() string { return "olsr" }

// Start implements netsim.Router.
func (r *Router) Start() {
	r.helloTicker.StartNow()
	r.tcTicker.Start()
	r.purgeTicker.Start()
}

// Stop implements netsim.Router.
func (r *Router) Stop() {
	r.helloTicker.Stop()
	r.tcTicker.Stop()
	r.purgeTicker.Stop()
	if r.hnaTicker != nil {
		r.hnaTicker.Stop()
	}
}

// TableStats reports live control-state sizes, including the expiry
// lists' items (for analysis and the memory-stability tests), and how many
// recompute stamps and kernel runs they cost so far.
type TableStats struct {
	Links      int
	TwoHop     int
	Topology   int
	Selectors  int
	Dups       int    // duplicate tuples: other originators' messages (own ones are never looked up)
	Items      int    // items in the expiry lists, as the lists count them
	Recomputes uint64 // coalesced stamps (see recomputeNow)
	MPRRuns    uint64 // MPR kernel runs readers demanded
	RouteRuns  uint64 // route kernel runs readers demanded
}

// TableStats implements the memory introspection used by stability tests.
func (r *Router) TableStats() TableStats {
	return TableStats{
		Links:     len(r.linkList),
		TwoHop:    r.twoHopExp.Len(),
		Topology:  r.topoExp.Len(),
		Selectors: len(r.selectors),
		Dups:      r.dups.Len(),
		Items: r.linkExp.Len() + r.symExp.Len() + r.twoHopExp.Len() +
			r.topoExp.Len() + r.selExp.Len() + r.dups.Len(),
		Recomputes: r.recomputes,
		MPRRuns:    r.mprRuns,
		RouteRuns:  r.routeRuns,
	}
}

// isMPR reports whether the interned neighbor was selected as MPR by the
// last recompute.
func (r *Router) isMPR(fi int32) bool {
	return r.mprEpoch != 0 && r.slot(fi).mprStamp == r.mprEpoch
}

// WatchRouteBuilds has f told at the end of every routing-table build, a
// build at a HELLO under ETX included, before anything reads the table;
// EachRoute then visits what the build wrote. A nil f stops the telling.
func (r *Router) WatchRouteBuilds(f func()) { r.routesBuilt = f }

// EachRoute visits every entry of the routing table as the last build left
// it, in interned order. It materializes nothing: inside a WatchRouteBuilds
// watcher that is the table every lookup reads until the next build.
func (r *Router) EachRoute(visit func(dst, next netsim.NodeID, hops int)) {
	if r.routeEpoch == 0 {
		return
	}
	for i := int32(0); i < r.slots.Len(); i++ {
		if s := r.slot(i); s.routeStamp == r.routeEpoch {
			visit(s.id, s.route.next, s.route.hops)
		}
	}
}

// routeFor looks dst up in the epoch-stamped route table.
func (r *Router) routeFor(dst netsim.NodeID) (routeEntry, bool) {
	if r.routeEpoch == 0 {
		return routeEntry{}, false
	}
	i := r.idx.Index(dst)
	if i < 0 {
		return routeEntry{}, false
	}
	if s := r.slot(i); s.routeStamp == r.routeEpoch {
		return s.route, true
	}
	return routeEntry{}, false
}

func (r *Router) now() sim.Time { return r.node.Kernel().Now() }

// noteChange is the handlers' recompute trigger: material changes mark the
// router dirty (pure lifetime refreshes never force a rebuild).
func (r *Router) noteChange(material bool) {
	if material {
		r.markDirty()
	}
}

// markDirty notes that state feeding MPR selection or route computation
// changed, and schedules at most one coalesced recompute stamp per kernel
// timestamp: a node forwarding k TCs in one slot pays one rebuild, not k.
func (r *Router) markDirty() {
	if r.dirty {
		return
	}
	r.dirty = true
	at := r.now()
	if at <= r.lastRecompute {
		// A stamp was already taken at this timestamp (by a read);
		// nudge the coalesced run one tick so the once-per-timestamp
		// contract holds.
		at = r.lastRecompute + 1
	}
	r.node.Kernel().ScheduleArg(at, recomputeEvent, r)
}

// recomputeEvent is the package-level coalesced-recompute callback (no
// closure allocation; see sim.ScheduleArg).
func recomputeEvent(a any) {
	r := a.(*Router)
	// If a read already stamped at this timestamp and a later change
	// re-dirtied the router, that markDirty scheduled a fresh event at
	// now+1 — running here would be a second rebuild in one timestamp,
	// breaking the ≤1-recompute-per-(node, timestamp) contract.
	if r.dirty && r.lastRecompute != r.now() {
		r.recomputeNow()
	}
}

// part names one output of the recompute kernels. A stamp leaves both
// pending, and each reader materializes only the part it reads.
type part uint8

const (
	partMPR    part = 1 << iota // the MPR set (RFC 3626 §8.3.1), read by HELLO emission
	partRoutes                  // the routing table (§10), read by route lookups
)

// materialize stamps synchronously if state changed since the last stamp,
// then builds the parts in want that the stamp left pending, in one kernel
// run evaluated at the stamp's τ, so reads (route lookups, MPR queries,
// wire emission) never observe staleness from the coalescing or the
// deferral. Every reader of mprStamp/mprList goes through it with partMPR,
// every reader of routeStamp with partRoutes. A run that built the routing
// table tells the build watcher, if any, once it is done.
func (r *Router) materialize(want part) {
	if r.dirty {
		r.recomputeNow()
	}
	run := want & r.pending
	if run == 0 {
		return
	}
	r.pending &^= run
	if run&partMPR != 0 {
		r.mprRuns++
	}
	if run&partRoutes != 0 {
		r.routeRuns++
	}
	r.recomputeDense(r.lastRecompute, run)
	if run&partRoutes != 0 && r.routesBuilt != nil {
		r.routesBuilt()
	}
}

// recomputeNow stamps the recompute as due as of τ = now; the dense
// kernels run later, in materialize, evaluated at τ — and not at all when
// another stamp overwrites this one unread (nine in ten, on the urban
// workloads). Each part runs only when a reader of that part comes: most
// stamps that are read at all are read only by HELLO emissions, which need
// the MPR set and not the routing table.
//
// Lemma (why deferring is exact). Write R(S, τ) for the kernels' output on
// control state S evaluated at time τ; they read S's lifetimes only through
// `until > τ`. Between a stamp at τ and the read, only non-material
// mutations can have happened — a material one re-dirties and re-stamps —
// and a non-material mutation at t ≥ τ only moves the symUntil / 2-hop /
// topology `until` of an existing tuple still valid at t, hence at τ, to a
// later value, still valid at τ. Inserts, removals, revivals from soft
// expiry, ANSN discards, link failures and every ETX quality move are
// reported material; the one unreported mutation, lq.tick() in sendHello,
// runs after that function's own materialize. So R(state_at_read, τ) =
// R(state_at_τ, τ). The rule this imposes on handlers: a mutation not
// reported through noteChange(true) must leave R(·, τ) unchanged for every
// τ ≤ now.
//
// The MPR set and the routing table are projections of R(·, τ), so
// building them at two different reads of one stamp is exact as well, with
// one caveat: lq.tick() moves the ETX link costs the route kernel reads
// (MPR selection reads none), and it runs right after a HELLO emission
// that may be the stamp's first read. So under ETX sendHello materializes
// the routing table together with the MPR set, and the tick finds no part
// of the stamp pending.
//
// The coalesced event stays although it only stamps (O(1)): it is what pins
// τ. Deriving τ inside markDirty would make it depend on whether another
// event of the same timestamp ran before or after the coalesced one.
//
// The reference the lemma is tested against is a test-side driver that
// materializes every stamp the moment it is taken, with the map-based
// kernels of oracle_test.go (TestDeferredMatchesEagerTrajectory,
// FuzzDeferredMatchesEager).
func (r *Router) recomputeNow() {
	r.dirty = false
	r.lastRecompute = r.now()
	r.recomputes++
	r.pending = partMPR | partRoutes
}

func (r *Router) nextEpoch() uint64 {
	r.epochCounter++
	return r.epochCounter
}

// broadcast floods an OLSR message: every one goes to all neighbours.
func (r *Router) broadcast(ttl, size int, msg any) {
	r.node.SendControl(netsim.BroadcastID, netsim.BroadcastID, ttl, size, msg)
}

// helloLinks builds the link advertisements of a HELLO from current state.
func (r *Router) helloLinks(now sim.Time) []HelloLink {
	links := make([]HelloLink, 0, len(r.linkList))
	for _, fi := range r.linkList {
		s := r.slot(fi)
		lt := &s.link
		if lt.until <= now {
			continue
		}
		var code LinkCode
		switch {
		case lt.symUntil > now:
			if r.isMPR(fi) {
				code = LinkMPR
			} else {
				code = LinkSym
			}
		case lt.asymUntil > now:
			code = LinkAsym
		default:
			code = LinkLost
		}
		hl := HelloLink{Neighbor: s.id, Code: code}
		if r.cfg.ETX && lt.lq != nil {
			hl.LQ = lt.lq.ratio()
		}
		links = append(links, hl)
	}
	// Neighbours are unique, so every sort gives this order.
	slices.SortFunc(links, func(a, b HelloLink) int { return cmp.Compare(a.Neighbor, b.Neighbor) })
	return links
}

func (r *Router) sendHello() {
	// The emission reads the MPR set; under ETX the windows it closes
	// below move link costs, so the routing table is built first (see the
	// lemma at recomputeNow).
	want := partMPR
	if r.cfg.ETX {
		want |= partRoutes
	}
	r.materialize(want)
	now := r.now()
	links := r.helloLinks(now)
	r.broadcast(1, helloBytes(len(links)), &Hello{From: r.node.ID(), Links: links})
	// Advance every neighbor's expected-hello window.
	if r.cfg.ETX {
		for _, fi := range r.linkList {
			if lt := &r.slot(fi).link; lt.lq != nil {
				lt.lq.tick()
			}
		}
	}
}

// makeTC assembles the TC advertisement from the current selector set, or
// nil when there is nothing to advertise (RFC 3626 §9.3). The message
// sequence number is assigned by sendTC.
func (r *Router) makeTC(now sim.Time) *TC {
	adv := make([]netsim.NodeID, 0, len(r.selectors))
	for id, s := range r.selectors { // order-free: the advertised set is sorted below
		if s.until > now {
			adv = append(adv, id)
		}
	}
	if len(adv) == 0 {
		return nil
	}
	slices.Sort(adv)
	msg := &TC{Origin: r.node.ID(), ANSN: r.ansn, Advertised: adv}
	if r.cfg.ETX {
		msg.LQs = make([]float64, len(adv))
		for i, id := range adv {
			if fi := r.idx.Index(id); fi >= 0 {
				if s := r.slot(fi); s.linkPos >= 0 && s.link.lq != nil {
					msg.LQs[i] = s.link.lq.ratio()
				}
			}
		}
	}
	return msg
}

func (r *Router) sendTC() {
	now := r.now()
	msg := r.makeTC(now)
	if msg == nil {
		return // RFC 3626 §9.3: TC only with a non-empty selector set
	}
	r.msgSeq++
	msg.Seq = r.msgSeq
	r.broadcast(netsim.DefaultTTL, tcBytes(len(msg.Advertised)), msg)
}

// isDup reports whether the duplicate set holds a tuple for (origin, seq).
// An originator never interned has no tuples. A duplicate is nearly always
// the originator's newest message heard again from another neighbour, so
// the chain's tail is tried first and the walk from its head stops there.
func (r *Router) isDup(origin netsim.NodeID, seq uint16) bool {
	oi := r.idx.Index(origin)
	if oi < 0 {
		return false
	}
	s := r.slot(oi)
	if s.dupTail == noTuple {
		return false
	}
	if r.dups.At(s.dupTail).seq == seq {
		return true
	}
	for i := s.dup; i != s.dupTail; i = r.dups.At(i).next {
		if r.dups.At(i).seq == seq {
			return true
		}
	}
	return false
}

// recordDup adds the duplicate tuple (origin, seq), which isDup just
// reported absent, at the tail of dups and of the originator's chain.
// Only received messages are recorded: a router's own messages come back
// to it, but both handlers drop them before the lookup (RFC 3626 §3.4
// step 2), so their tuples would never be read.
func (r *Router) recordDup(origin netsim.NodeID, seq uint16, now sim.Time) {
	oi := r.intern(origin)
	i := r.dups.Add(dupTuple{origin: oi, seq: seq, next: noTuple, until: now + dupHold})
	s := r.slot(oi)
	if s.dupTail == noTuple {
		s.dup = i
	} else {
		r.dups.At(s.dupTail).next = i
	}
	s.dupTail = i
}

// Receive implements netsim.Router.
func (r *Router) Receive(p *netsim.Packet, from netsim.NodeID) {
	if p.Kind == netsim.KindControl {
		switch msg := p.Payload.(type) {
		case *Hello:
			r.handleHello(msg, from)
		case *TC:
			r.handleTC(p, msg, from)
		case *HNA:
			r.handleHNA(p, msg, from)
		default:
			panic(fmt.Sprintf("olsr: unexpected control payload %T", p.Payload))
		}
		return
	}
	r.forwardData(p)
}

// Origin implements netsim.Router.
func (r *Router) Origin(p *netsim.Packet) {
	next, ok := r.nextHopFor(p.Dst)
	if !ok {
		// Proactive protocol: no buffering, packets without a current route
		// are lost — a behaviour the paper's Fig. 9/11 comparison exposes.
		r.node.DropData(p, netsim.CauseNoRoute)
		return
	}
	r.node.SendFrame(next, p)
}

// nextHopFor resolves a destination through the routing table, falling
// back to the HNA association set for external destinations.
func (r *Router) nextHopFor(dst netsim.NodeID) (netsim.NodeID, bool) {
	r.materialize(partRoutes)
	if e, ok := r.routeFor(dst); ok {
		return e.next, true
	}
	if gw, ok := r.GatewayFor(dst); ok {
		if e, ok := r.routeFor(gw); ok {
			return e.next, true
		}
	}
	return 0, false
}

func (r *Router) forwardData(p *netsim.Packet) {
	if r.localAssoc(p.Dst) {
		// We are the gateway for this external destination: the packet has
		// reached the MANET-side endpoint.
		r.node.DeliverLocal(p)
		return
	}
	p.TTL--
	if p.TTL <= 0 {
		r.node.DropData(p, netsim.CauseTTL)
		return
	}
	next, ok := r.nextHopFor(p.Dst)
	if !ok {
		r.node.DropData(p, netsim.CauseNoForwardRoute)
		return
	}
	r.node.SendFrame(next, p)
}

func (r *Router) handleHello(msg *Hello, from netsim.NodeID) {
	now := r.now()
	fi := r.intern(from)
	me := r.node.ID()
	material, selected := r.hearLink(fi, me, msg.Links, now)

	if selected {
		// RFC 3626 §9.3: the ANSN moves when the advertised set — our MPR
		// selectors — changes, as it does on the expiry side; a selector
		// repeating its HELLO only refreshes its tuple.
		s, known := r.selectors[from]
		if !known {
			s.item = r.selExp.Add(from)
			r.ansn++
		} else {
			r.selExp.Refresh(s.item)
		}
		s.until = now + neighborHold
		r.selectors[from] = s
	}

	// 2-hop set: symmetric neighbors of a symmetric neighbor.
	if r.slot(fi).link.symUntil > now && r.mergeTwoHop(fi, me, msg.Links, now) {
		material = true
	}
	// Pure lifetime refreshes cannot change recompute output; new links,
	// asym→sym transitions and new/revived 2-hop edges can. Under ETX the
	// carried link qualities move costs on every hello.
	r.noteChange(material || r.cfg.ETX)
}

// hearLink applies a HELLO from neighbor fi, heard at now, to its link
// tuple (RFC 3626 §7.1.1). A link not present is created with fresh state;
// its lifetimes move to now + neighborHold, and so does symUntil when the
// HELLO lists me with a code other than LOST. Each deadline written is the
// latest in its list, so its item moves to the tail. It reports whether
// the link is new or turned symmetric (material for recompute) and whether
// the neighbor selected me as MPR.
func (r *Router) hearLink(fi int32, me netsim.NodeID, links []HelloLink, now sim.Time) (material, selected bool) {
	s := r.slot(fi)
	lt := &s.link
	if s.linkPos < 0 {
		// A fresh tuple. The estimator is kept across incarnations to
		// avoid reallocation, and restarts its window.
		*lt = linkTuple{linkItem: r.linkExp.Add(fi), symItem: noTuple, lq: lt.lq}
		if r.cfg.ETX {
			if lt.lq == nil {
				lt.lq = newLQEstimator(lqWindow)
			} else {
				lt.lq.reset()
			}
		}
		s.linkPos = int32(len(r.linkList))
		r.linkList = append(r.linkList, fi)
		material = true
	} else {
		r.linkExp.Refresh(lt.linkItem)
	}
	lt.asymUntil = now + neighborHold
	lt.until = now + neighborHold
	if lt.lq != nil {
		lt.lq.heard()
	}

	wasSym := lt.symUntil > now
	hearsMe := false
	for _, hl := range links {
		if hl.Neighbor != me {
			continue
		}
		if hl.Code == LinkMPR {
			selected = true
		}
		// Any code but LOST: the neighbor hears us, the link is symmetric.
		hearsMe = hearsMe || hl.Code != LinkLost
	}
	if hearsMe {
		lt.symUntil = now + neighborHold
		if lt.symItem == noTuple {
			lt.symItem = r.symExp.Add(fi)
		} else {
			r.symExp.Refresh(lt.symItem)
		}
		material = material || !wasSym
	}
	return material, selected
}

// mergeTwoHop installs or refreshes the 2-hop tuple (fi → th) for every
// symmetric link th ≠ me that a HELLO from neighbor fi advertises, and
// reports whether any tuple is new or was revived from soft expiry
// (material for recompute). Links are interned in message order.
//
// The neighbor's chain is sorted by NodeID, and so are the links of a
// HELLO built by helloLinks, so one cursor walks both: a link's tuple is
// at or after the previous link's. The cursor is the chain link the
// current tuple hangs from, so a new tuple is inserted there. A link not
// above the previous one (a hand-built HELLO, a repeated link) restarts
// the cursor at the head, so any input merges correctly. Each written
// deadline is now + neighborHold, the latest in twoHopExp, so the tuple
// moves to the tail.
func (r *Router) mergeTwoHop(fi int32, me netsim.NodeID, links []HelloLink, now sim.Time) bool {
	until := now + neighborHold
	head := &r.slot(fi).twoHop
	material := false
	at, prev := head, netsim.NodeID(0)
	for _, hl := range links {
		th := hl.Neighbor
		if th == me || (hl.Code != LinkSym && hl.Code != LinkMPR) {
			continue
		}
		ti := r.intern(th)
		if th <= prev {
			at = head
		}
		prev = th
		for *at != noTuple && netsim.NodeID(r.twoHopExp.At(*at).thID) < th {
			at = &r.twoHopExp.At(*at).next
		}
		if i := *at; i != noTuple && r.twoHopExp.At(i).th == ti {
			t := r.twoHopExp.At(i)
			if t.until <= now {
				material = true
			}
			t.until = until
			r.twoHopExp.Refresh(i)
		} else {
			*at = r.twoHopExp.Add(twoHopTuple{nb: fi, th: ti, thID: int32(th), next: i, until: until})
			material = true
		}
		at = &r.twoHopExp.At(*at).next
	}
	return material
}

func (r *Router) handleTC(p *netsim.Packet, msg *TC, from netsim.NodeID) {
	now := r.now()
	if msg.Origin == r.node.ID() {
		return
	}
	// Only process/forward messages received over a symmetric link
	// (RFC 3626 §3.4 default forwarding algorithm).
	if !r.symmetric(from, now) {
		return
	}
	if r.isDup(msg.Origin, msg.Seq) {
		return
	}
	r.recordDup(msg.Origin, msg.Seq, now)
	r.noteChange(r.processTC(msg, now))
	r.forward(p, from, now)
}

// forward re-floods a TC or HNA iff its sender selected this router as MPR
// (RFC 3626 §3.4 default forwarding algorithm). The copy of the packet
// carries the received message itself, which nobody modifies.
func (r *Router) forward(p *netsim.Packet, from netsim.NodeID, now sim.Time) {
	if s, sel := r.selectors[from]; sel && s.until > now && p.TTL > 1 {
		fp := r.node.Packet(*p)
		fp.TTL--
		r.node.SendFrame(netsim.BroadcastID, fp)
	}
}

// processTC installs the advertised topology tuples (RFC 3626 §9.5) into
// the originator's chain, reporting whether anything material to route
// computation changed (pure refreshes of live tuples are not).
//
// The chain is sorted by dest NodeID, and so is a TC built by makeTC, so
// one cursor merges both as mergeTwoHop does, restarting at the head on a
// dest not above the previous one. The walk retires every tuple with an
// older ANSN it passes, and it runs on to the chain's end after the last
// dest, so each tuple is checked once at least; a tuple refreshed or added
// here carries msg.ANSN and is never retired. Condition 1 cannot share
// that walk: under wrapped ANSNs a chain can hold a live tuple newer than
// msg and a tuple older than it (advertised at 0, then at 32768, neither
// older than the other; msg at 16384), and the message must then change
// nothing. So a read-only walk decides it first.
func (r *Router) processTC(msg *TC, now sim.Time) bool {
	oi := r.intern(msg.Origin)
	head := &r.slot(oi).topo
	// RFC 3626 §9.5 condition 1: a message older than the recorded state
	// for this originator is discarded outright — a delayed out-of-order
	// TC must not resurrect withdrawn topology edges.
	for i := *head; i != noTuple; {
		t := r.topoExp.At(i)
		if t.until > now && int16(t.ansn-msg.ANSN) > 0 {
			return false
		}
		i = t.next
	}
	until := now + topologyHold
	material := false
	at, prev := head, netsim.NodeID(0)
	for k, dest := range msg.Advertised {
		di := r.intern(dest)
		var lq float64
		if msg.LQs != nil {
			lq = msg.LQs[k]
		}
		if dest <= prev {
			at = head
		}
		prev = dest
		var gone bool
		if at, gone = r.seekTopo(at, dest, msg.ANSN); gone {
			material = true
		}
		if i := *at; i != noTuple && r.topoExp.At(i).dest == di {
			t := r.topoExp.At(i)
			if t.until <= now {
				material = true // revived from soft expiry
			}
			if r.cfg.ETX && t.linkLQ != lq {
				material = true
			}
			t.ansn, t.until, t.linkLQ = msg.ANSN, until, lq
			r.topoExp.Refresh(i)
		} else {
			*at = r.topoExp.Add(topoTuple{origin: oi, dest: di, next: i, ansn: msg.ANSN, until: until, linkLQ: lq})
			material = true
		}
		at = &r.topoExp.At(*at).next
	}
	if _, gone := r.seekTopo(at, math.MaxInt, msg.ANSN); gone {
		material = true
	}
	return material
}

// seekTopo moves a topology chain's cursor from the chain link at to the
// link of the first tuple whose dest is not below dest, retiring on the way
// every tuple whose ANSN is older than ansn (RFC 3626 §9.5: tuples of an
// older advertised set are removed). It reports whether it retired any.
func (r *Router) seekTopo(at *int32, dest netsim.NodeID, ansn uint16) (*int32, bool) {
	gone := false
	for i := *at; i != noTuple; i = *at {
		t := r.topoExp.At(i)
		if int16(ansn-t.ansn) > 0 {
			*at = t.next
			r.topoExp.Remove(i)
			gone = true
			continue
		}
		if r.slot(t.dest).id >= dest {
			break
		}
		at = &t.next
	}
	return at, gone
}

// LinkFailure implements netsim.Router: link-layer feedback removes the
// link immediately (RFC 3626 §13 link-layer notification option), so the
// neighbor's next HELLO creates it afresh.
func (r *Router) LinkFailure(next netsim.NodeID, p *netsim.Packet) {
	if p.Kind == netsim.KindData {
		r.node.DropData(p, netsim.CauseLinkFailure)
	}
	material := false
	if fi := r.idx.Index(next); fi >= 0 && r.slot(fi).linkPos >= 0 {
		r.removeLink(fi)
		material = true
	}
	r.noteChange(material)
}

// removeLink deletes the present link tuple at index fi from the live set,
// with its items in linkExp and symExp.
func (r *Router) removeLink(fi int32) {
	s := r.slot(fi)
	lt := &s.link
	r.linkExp.Remove(lt.linkItem)
	if lt.symItem != noTuple {
		r.symExp.Remove(lt.symItem)
		lt.symItem = noTuple
	}
	pos := s.linkPos
	last := int32(len(r.linkList) - 1)
	moved := r.linkList[last]
	r.linkList[pos] = moved
	r.slot(moved).linkPos = pos
	r.linkList = r.linkList[:last]
	s.linkPos = -1
}

// symmetric reports whether the link to id is present and symmetric at
// now: the condition for processing and forwarding a flooded message
// (RFC 3626 §3.4).
func (r *Router) symmetric(id netsim.NodeID, now sim.Time) bool {
	fi := r.idx.Index(id)
	if fi < 0 {
		return false
	}
	s := r.slot(fi)
	return s.linkPos >= 0 && s.link.symUntil > now
}

// purge retires expired tuples. Every table's deadlines are written only
// as now + its constant hold, so each expiry list is in deadline order and
// purge pops from its head while the head is due: the cost is O(expired),
// and when nothing material expired, no recompute is triggered at all.
//
// Why popping the lists retires what the lazy heaps they replace did:
//  1. A link's until is written only in hearLink, always as
//     now + neighborHold, which moves its item to the tail, and so is its
//     symUntil, with its own item. A link leaves early only by LinkFailure,
//     which removes it and both items. So expireLinks removes exactly the
//     links whose until ≤ now and ends exactly the symmetric windows whose
//     symUntil ≤ now. The link heap did the same for links no failure had
//     touched: an item's registered deadline was never later than the
//     link's current one, and a refreshed link was re-registered at it.
//  2. A 2-hop tuple's until is written only in mergeTwoHop, always as
//     now + neighborHold, which moves its item to the tail; the tuple
//     leaves only here. So the list is in deadline order, and at every
//     purge it removes exactly the tuples whose current until ≤ now.
//  3. The 2-hop heap removed the same set: a tuple's registered deadline
//     is never later than its current one, and a refreshed tuple was
//     re-registered at its current one.
//  4. A topology tuple's until is written only in processTC, always as
//     now + topologyHold, with the same move to the tail; it leaves early
//     only by an ANSN discard, which removes its item. So this list too
//     removes exactly the tuples whose until ≤ now. The per-originator
//     heap it replaces did the same: an originator's registered deadline
//     was never later than its earliest tuple's, so every originator with
//     a due tuple surfaced, and then exactly its tuples with until ≤ now
//     were dropped.
//  5. The removals commute: unlinking a tuple keeps its chain's order,
//     removing a link keeps the other links' state, and the count
//     decrements and material = true do not depend on order.
//  6. A selector's until is likewise written only in handleHello, as
//     now + neighborHold; its removals count ansn++ alone. A duplicate
//     tuple's until is written once, in recordDup, as now + dupHold, and
//     never refreshed: the list is in recording order, which is deadline
//     order, and its head is the oldest tuple of its originator too, so
//     expireDups unlinks it from the chain's head with no walk. It removes
//     the keys whose deadline ≤ now, as the FIFO set it replaces did; that
//     set also held this router's own keys, which no lookup ever read.
func (r *Router) purge() {
	now := r.now()
	material := false

	if r.expireLinks(now) {
		material = true
	}

	if r.expireTwoHop(now) {
		material = true
	}

	for h, ok := r.selExp.Front(); ok; h, ok = r.selExp.Front() {
		id := *r.selExp.At(h)
		if r.selectors[id].until > now {
			break
		}
		delete(r.selectors, id)
		r.selExp.Remove(h)
		r.ansn++
	}

	if r.expireTopology(now) {
		material = true
	}

	r.expireDups(now)

	r.purgeHNA(now)
	r.noteChange(material)
}

// expireLinks retires the links whose until passed, each with its items,
// and then the symmetric deadlines that passed, from the heads of linkExp
// and symExp (see purge), and reports whether there were any: a link gone
// or no longer symmetric moves the routes that used it.
func (r *Router) expireLinks(now sim.Time) bool {
	material := false
	for i, ok := r.linkExp.Front(); ok; i, ok = r.linkExp.Front() {
		fi := *r.linkExp.At(i)
		if r.slot(fi).link.until > now {
			break
		}
		r.removeLink(fi)
		material = true
	}
	for i, ok := r.symExp.Front(); ok; i, ok = r.symExp.Front() {
		lt := &r.slot(*r.symExp.At(i)).link
		if lt.symUntil > now {
			break
		}
		r.symExp.Remove(i)
		lt.symItem = noTuple
		material = true
	}
	return material
}

// expireTwoHop retires the 2-hop tuples whose deadline passed, from the
// head of twoHopExp (see purge), and reports whether there were any. Each
// is unlinked from its neighbor's chain by a walk to its predecessor.
func (r *Router) expireTwoHop(now sim.Time) bool {
	material := false
	for i, ok := r.twoHopExp.Front(); ok; i, ok = r.twoHopExp.Front() {
		t := r.twoHopExp.At(i)
		if t.until > now {
			break
		}
		at := &r.slot(t.nb).twoHop
		for *at != i {
			at = &r.twoHopExp.At(*at).next
		}
		*at = t.next
		r.twoHopExp.Remove(i)
		material = true
	}
	return material
}

// expireTopology is expireTwoHop for the topology set.
func (r *Router) expireTopology(now sim.Time) bool {
	material := false
	for i, ok := r.topoExp.Front(); ok; i, ok = r.topoExp.Front() {
		t := r.topoExp.At(i)
		if t.until > now {
			break
		}
		at := &r.slot(t.origin).topo
		for *at != i {
			at = &r.topoExp.At(*at).next
		}
		*at = t.next
		r.topoExp.Remove(i)
		material = true
	}
	return material
}

// expireDups retires the duplicate tuples whose deadline passed, from the
// head of dups, which is the head of its originator's chain (see purge).
func (r *Router) expireDups(now sim.Time) {
	for i, ok := r.dups.Front(); ok; i, ok = r.dups.Front() {
		t := r.dups.At(i)
		if t.until > now {
			break
		}
		s := r.slot(t.origin)
		s.dup = t.next
		if t.next == noTuple {
			s.dupTail = noTuple
		}
		r.dups.Remove(i)
	}
}
