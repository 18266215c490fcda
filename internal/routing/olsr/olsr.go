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
// flag, the kernels themselves run only when somebody reads the result
// (see recomputeNow), and tuple expiry is tracked by lazy min-heaps so the
// periodic purge costs O(expired) instead of sweeping every live entry.
// The original map-based recompute is retained in oracle.go as the
// differential-testing reference (Config.OracleRecompute).
package olsr

import (
	"fmt"
	"sort"

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

// TC is the topology-control message (RFC 3626 §9).
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

// Config holds protocol parameters; zero fields take RFC defaults with the
// paper's Table I intervals.
type Config struct {
	HelloInterval sim.Time // default 1 s (Table I)
	TCInterval    sim.Time // default 2 s (Table I)
	NeighborHold  sim.Time // default 3 × HelloInterval
	TopologyHold  sim.Time // default 3 × TCInterval
	DupHold       sim.Time // default 30 s
	// ETX enables the olsrd link-quality extension: routes minimize the sum
	// of ETX(i) = 1/(NI(i)·LQI(i)) instead of hop count.
	ETX bool
	// LQWindow is the sampling window (in hello periods) for packet-arrival
	// estimation; default 10.
	LQWindow int
	// OracleRecompute routes MPR/route recomputation through the retained
	// map-based reference implementation, run eagerly at every stamp,
	// instead of the deferred dense kernels. Selected only by tests and
	// benchmarks; results are bit-identical either way. It stays an
	// exported switch, unlike the references that live in _test.go files,
	// because the lemma at recomputeNow is about when the kernels run
	// relative to every other event of a run (evaluation at τ, not at the
	// read) — which only scenario.TestOLSRReferenceRunIdentity, over whole
	// networks, can compare.
	OracleRecompute bool
}

func (c *Config) normalize() {
	if c.HelloInterval == 0 {
		c.HelloInterval = sim.Second
	}
	if c.TCInterval == 0 {
		c.TCInterval = 2 * sim.Second
	}
	if c.NeighborHold == 0 {
		c.NeighborHold = 3 * c.HelloInterval
	}
	if c.TopologyHold == 0 {
		c.TopologyHold = 3 * c.TCInterval
	}
	if c.DupHold == 0 {
		c.DupHold = 30 * sim.Second
	}
	if c.LQWindow == 0 {
		c.LQWindow = 10
	}
}

// linkTuple is the link-set entry of RFC 3626 §4.2, stored in a dense
// per-router slot addressed by the neighbor's interned index.
type linkTuple struct {
	present bool
	// inSymHeap is true while symExp holds an entry for this index; it
	// dedups pushes so the heap keeps one item per once-symmetric link.
	inSymHeap bool
	neighbor  netsim.NodeID
	symUntil  sim.Time
	asymUntil sim.Time
	until     sim.Time
	// lq estimates the hello-arrival ratio for ETX; retained (and reset)
	// across tuple reincarnations to avoid reallocation.
	lq *lqEstimator
}

// twoHopEdge is one 2-hop tuple (neighbor → th), stored in the neighbor's
// edge list sorted by the 2-hop node's NodeID — the iteration order the
// route/MPR kernels and the oracle share.
type twoHopEdge struct {
	th    int32 // interned 2-hop node
	until sim.Time
}

// topoEdge is one topology tuple (origin → dest); the per-origin edge
// lists double as the adjacency list of the route Dijkstra.
type topoEdge struct {
	dest   int32
	ansn   uint16
	until  sim.Time
	linkLQ float64 // originator's LQ toward dest (ETX mode)
}

type dupKey struct {
	origin netsim.NodeID
	seq    uint16
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
	// small dense index so the recompute kernels run over slices and
	// epoch-stamp arrays instead of maps. Indices are never recycled; the
	// universe is bounded by the number of distinct nodes ever heard of.
	idx netsim.Interner
	ids []netsim.NodeID // index -> NodeID

	links    []linkTuple // slot per interned id
	linkList []int32     // indices of present link tuples
	linkPos  []int32     // position of an index in linkList; -1 if absent

	twoHopOf [][]twoHopEdge // per 1-hop neighbor, sorted by 2-hop NodeID
	twoHopN  int

	topoOf     [][]topoEdge // per TC originator
	topoInHeap []bool
	topoN      int

	selectors map[netsim.NodeID]sim.Time // nodes that chose us as MPR
	dups      sim.ExpiringSet[dupKey]

	// Lazy expiry heaps: one item per live entry, surfaced at the deadline
	// recorded when the entry was created and re-registered when the entry
	// turns out to have been refreshed (see sim.ExpiryHeap).
	linkExp   sim.ExpiryHeap[int32]
	symExp    sim.ExpiryHeap[int32]
	twoHopExp sim.ExpiryHeap[[2]int32]
	topoExp   sim.ExpiryHeap[int32]
	selExp    sim.ExpiryHeap[netsim.NodeID]

	// Recompute output, epoch-stamped per interned index. A stamp equal to
	// the current (non-zero) epoch marks the entry live; clearing the
	// table is a counter increment, not a sweep.
	epochCounter uint64
	routeOf      []routeEntry
	routeStamp   []uint64
	routeEpoch   uint64
	mprStamp     []uint64
	mprEpoch     uint64
	mprList      []netsim.NodeID // sorted by NodeID

	// Coalesced, demand-driven recompute: handlers mark the router dirty
	// and schedule at most one recompute event per kernel timestamp; the
	// event only stamps the recompute as due as of lastRecompute, and reads
	// flush synchronously so observable state is never stale.
	dirty         bool
	lastRecompute sim.Time // time of the last stamp
	recomputes    uint64   // stamps
	pending       bool     // the last stamp has not been materialized yet
	materialized  uint64   // kernel runs

	scratch denseScratch

	hnaLocal []NetworkAssoc
	hnaSet   []*hnaTuple

	ansn   uint16
	msgSeq uint16

	helloTicker *sim.Ticker
	tcTicker    *sim.Ticker
	purgeTicker *sim.Ticker
	hnaTicker   *sim.Ticker

	ctrlPackets uint64
	ctrlBytes   uint64
}

var _ netsim.Router = (*Router)(nil)

// New builds an OLSR router for node.
func New(node *netsim.Node, cfg Config) *Router {
	cfg.normalize()
	r := &Router{
		cfg:           cfg,
		node:          node,
		selectors:     make(map[netsim.NodeID]sim.Time),
		lastRecompute: -1,
	}
	jitter := func() sim.Time {
		span := int64(cfg.HelloInterval / 5)
		return sim.Time(node.Rand().Int63n(span) - span/2)
	}
	r.helloTicker = sim.NewTicker(node.Kernel(), cfg.HelloInterval, jitter, r.sendHello)
	r.tcTicker = sim.NewTicker(node.Kernel(), cfg.TCInterval, jitter, r.sendTC)
	r.purgeTicker = sim.NewTicker(node.Kernel(), cfg.HelloInterval/2, nil, r.purge)
	return r
}

// intern maps id to its dense index, growing every per-index array when the
// id is new.
func (r *Router) intern(id netsim.NodeID) int32 {
	i, isNew := r.idx.Intern(id)
	if !isNew {
		return i
	}
	r.ids = append(r.ids, id)
	r.links = append(r.links, linkTuple{})
	r.linkPos = append(r.linkPos, -1)
	r.twoHopOf = append(r.twoHopOf, nil)
	r.topoOf = append(r.topoOf, nil)
	r.topoInHeap = append(r.topoInHeap, false)
	r.routeOf = append(r.routeOf, routeEntry{})
	r.routeStamp = append(r.routeStamp, 0)
	r.mprStamp = append(r.mprStamp, 0)
	return i
}

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

// ControlTraffic implements netsim.Router.
func (r *Router) ControlTraffic() (uint64, uint64) { return r.ctrlPackets, r.ctrlBytes }

// TableStats reports live control-state sizes, including the expiry-heap
// backlog (for analysis and the memory-stability tests), and how many
// recompute stamps and kernel runs they cost so far.
type TableStats struct {
	Links        int
	TwoHop       int
	Topology     int
	Selectors    int
	Dups         int
	HeapItems    int
	Recomputes   uint64 // coalesced stamps (see recomputeNow)
	Materialized uint64 // MPR/route kernel runs readers demanded
}

// TableStats implements the memory introspection used by stability tests.
func (r *Router) TableStats() TableStats {
	return TableStats{
		Links:     len(r.linkList),
		TwoHop:    r.twoHopN,
		Topology:  r.topoN,
		Selectors: len(r.selectors),
		Dups:      r.dups.Len(),
		HeapItems: r.linkExp.Len() + r.symExp.Len() + r.twoHopExp.Len() +
			r.topoExp.Len() + r.selExp.Len() + r.dups.Deadlines(),
		Recomputes:   r.recomputes,
		Materialized: r.materialized,
	}
}

// MPRSet returns the current multipoint relays (for tests and analysis).
func (r *Router) MPRSet() []netsim.NodeID {
	r.flush()
	return append([]netsim.NodeID(nil), r.mprList...)
}

// isMPR reports whether the interned neighbor was selected as MPR by the
// last recompute.
func (r *Router) isMPR(fi int32) bool {
	return r.mprEpoch != 0 && r.mprStamp[fi] == r.mprEpoch
}

// Route reports the computed next hop toward dst.
func (r *Router) Route(dst netsim.NodeID) (next netsim.NodeID, hops int, ok bool) {
	r.flush()
	e, found := r.routeFor(dst)
	if !found {
		return 0, 0, false
	}
	return e.next, e.hops, true
}

// routeFor looks dst up in the epoch-stamped route table.
func (r *Router) routeFor(dst netsim.NodeID) (routeEntry, bool) {
	if r.routeEpoch == 0 {
		return routeEntry{}, false
	}
	i := r.idx.Index(dst)
	if i < 0 || r.routeStamp[i] != r.routeEpoch {
		return routeEntry{}, false
	}
	return r.routeOf[i], true
}

// routesSnapshot materializes the route table as a map (tests only).
func (r *Router) routesSnapshot() map[netsim.NodeID]routeEntry {
	r.flush()
	out := make(map[netsim.NodeID]routeEntry)
	if r.routeEpoch == 0 {
		return out
	}
	for i, id := range r.ids {
		if r.routeStamp[i] == r.routeEpoch {
			out[id] = r.routeOf[i]
		}
	}
	return out
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
		// A recompute already ran at this timestamp (a read flushed);
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
	// If a read already flushed at this timestamp and a later change
	// re-dirtied the router, that markDirty scheduled a fresh event at
	// now+1 — running here would be a second rebuild in one timestamp,
	// breaking the ≤1-recompute-per-(node, timestamp) contract.
	if r.dirty && r.lastRecompute != r.now() {
		r.recomputeNow()
	}
}

// flush stamps synchronously if state changed since the last stamp and
// materializes the pending stamp, so reads (route lookups, MPR queries,
// wire emission) never observe staleness from the coalescing or the
// deferral. Every reader of mprStamp/mprList/routeOf goes through it.
func (r *Router) flush() {
	if r.dirty {
		r.recomputeNow()
	}
	if r.pending {
		r.pending = false
		r.materialized++
		r.recomputeDense(r.lastRecompute)
	}
}

// recomputeNow stamps the recompute as due as of τ = now; the dense
// kernels run later, in flush, evaluated at τ — and not at all when another
// stamp overwrites this one unread (nine in ten, on the urban workloads).
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
// runs after that function's own flush. So R(state_at_read, τ) =
// R(state_at_τ, τ). The rule this imposes on handlers: a mutation not
// reported through noteChange(true) must leave R(·, τ) unchanged for every
// τ ≤ now.
//
// The coalesced event stays although it only stamps (O(1)): it is what pins
// τ. Deriving τ inside markDirty would make it depend on whether another
// event of the same timestamp ran before or after the coalesced one.
//
// The oracle recomputes eagerly at stamp time, which makes it the reference
// the lemma is tested against (TestDeferredMatchesEagerTrajectory).
func (r *Router) recomputeNow() {
	r.dirty = false
	r.lastRecompute = r.now()
	r.recomputes++
	if r.cfg.OracleRecompute {
		r.materialized++
		r.recomputeOracle()
		return
	}
	r.pending = true
}

func (r *Router) nextEpoch() uint64 {
	r.epochCounter++
	return r.epochCounter
}

func (r *Router) sendControl(ttl, size int, msg any) {
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
	r.ctrlPackets++
	r.ctrlBytes += uint64(p.Size)
	r.node.SendFrame(netsim.BroadcastID, p)
}

// symNeighbors lists neighbors with currently symmetric links.
func (r *Router) symNeighbors() []netsim.NodeID {
	now := r.now()
	var out []netsim.NodeID
	for _, fi := range r.linkList {
		if r.links[fi].symUntil > now {
			out = append(out, r.links[fi].neighbor)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// eachTwoHop visits every stored 2-hop tuple (for tests and the oracle).
func (r *Router) eachTwoHop(f func(nbr, th netsim.NodeID, until sim.Time)) {
	for fi, edges := range r.twoHopOf {
		for _, e := range edges {
			f(r.ids[fi], r.ids[e.th], e.until)
		}
	}
}

// helloLinks builds the link advertisements of a HELLO from current state.
func (r *Router) helloLinks(now sim.Time) []HelloLink {
	var links []HelloLink
	for _, fi := range r.linkList {
		lt := &r.links[fi]
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
		hl := HelloLink{Neighbor: lt.neighbor, Code: code}
		if r.cfg.ETX && lt.lq != nil {
			hl.LQ = lt.lq.ratio()
		}
		links = append(links, hl)
	}
	sort.Slice(links, func(i, j int) bool { return links[i].Neighbor < links[j].Neighbor })
	return links
}

func (r *Router) sendHello() {
	r.flush()
	now := r.now()
	links := r.helloLinks(now)
	r.sendControl(1, helloBytes(len(links)), &Hello{From: r.node.ID(), Links: links})
	// Advance every neighbor's expected-hello window.
	if r.cfg.ETX {
		for _, fi := range r.linkList {
			if lt := &r.links[fi]; lt.lq != nil {
				lt.lq.tick()
			}
		}
	}
}

// makeTC assembles the TC advertisement from the current selector set, or
// nil when there is nothing to advertise (RFC 3626 §9.3). The message
// sequence number is assigned by sendTC.
func (r *Router) makeTC(now sim.Time) *TC {
	var adv []netsim.NodeID
	for id, until := range r.selectors {
		if until > now {
			adv = append(adv, id)
		}
	}
	if len(adv) == 0 {
		return nil
	}
	sort.Slice(adv, func(i, j int) bool { return adv[i] < adv[j] })
	msg := &TC{Origin: r.node.ID(), ANSN: r.ansn, Advertised: adv}
	if r.cfg.ETX {
		msg.LQs = make([]float64, len(adv))
		for i, id := range adv {
			if fi := r.idx.Index(id); fi >= 0 {
				if lt := &r.links[fi]; lt.present && lt.lq != nil {
					msg.LQs[i] = lt.lq.ratio()
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
	r.recordDup(dupKey{origin: msg.Origin, seq: msg.Seq}, now)
	r.sendControl(netsim.DefaultTTL, tcBytes(len(msg.Advertised)), msg)
}

// recordDup installs a duplicate-suppression entry; keys are unique per
// message, so one insert per key suffices.
func (r *Router) recordDup(key dupKey, now sim.Time) {
	r.dups.Add(key, now+r.cfg.DupHold)
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
		r.node.DropData(p, "olsr:no-route")
		return
	}
	r.node.SendFrame(next, p)
}

// nextHopFor resolves a destination through the routing table, falling
// back to the HNA association set for external destinations.
func (r *Router) nextHopFor(dst netsim.NodeID) (netsim.NodeID, bool) {
	r.flush()
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
		r.node.DropData(p, "olsr:ttl")
		return
	}
	next, ok := r.nextHopFor(p.Dst)
	if !ok {
		r.node.DropData(p, "olsr:no-forward-route")
		return
	}
	r.node.NoteForward(p)
	r.node.SendFrame(next, p)
}

func (r *Router) handleHello(msg *Hello, from netsim.NodeID) {
	now := r.now()
	hold := r.cfg.NeighborHold
	fi := r.intern(from)
	lt := &r.links[fi]
	material := false
	if !lt.present {
		// Reincarnate the slot with fresh link state; the symExp flag must
		// survive (its heap entry, if any, is still registered).
		*lt = linkTuple{present: true, neighbor: from, inSymHeap: lt.inSymHeap, lq: lt.lq}
		if r.cfg.ETX {
			if lt.lq == nil {
				lt.lq = newLQEstimator(r.cfg.LQWindow)
			} else {
				lt.lq.reset()
			}
		}
		r.linkPos[fi] = int32(len(r.linkList))
		r.linkList = append(r.linkList, fi)
		r.linkExp.Push(fi, now+hold)
		material = true
	}
	lt.asymUntil = now + hold
	lt.until = now + hold
	if lt.lq != nil {
		lt.lq.heard()
	}

	me := r.node.ID()
	wasSym := lt.symUntil > now
	selected := false
	for _, hl := range msg.Links {
		if hl.Neighbor != me {
			continue
		}
		if hl.Code == LinkMPR {
			selected = true
		}
		if hl.Code != LinkLost {
			// The neighbor hears us: the link is symmetric.
			lt.symUntil = now + hold
		}
	}
	if lt.symUntil > now && !wasSym {
		material = true
		if !lt.inSymHeap {
			lt.inSymHeap = true
			r.symExp.Push(fi, lt.symUntil)
		}
	}

	if selected {
		if _, known := r.selectors[from]; !known {
			r.selExp.Push(from, now+hold)
		}
		r.selectors[from] = now + hold
		r.ansn++
	}

	// 2-hop set: symmetric neighbors of a symmetric neighbor.
	if lt.symUntil > now {
		for _, hl := range msg.Links {
			if hl.Neighbor == me {
				continue
			}
			if hl.Code == LinkSym || hl.Code == LinkMPR {
				if r.upsertTwoHop(fi, hl.Neighbor, now+hold, now) {
					material = true
				}
			}
		}
	}
	// Pure lifetime refreshes cannot change recompute output; new links,
	// asym→sym transitions and new/revived 2-hop edges can. Under ETX the
	// carried link qualities move costs on every hello.
	r.noteChange(material || r.cfg.ETX)
}

// upsertTwoHop installs or refreshes the 2-hop tuple (nbr → th), keeping
// the neighbor's edge list sorted by 2-hop NodeID. It reports whether the
// edge is new or was revived from soft expiry (material for recompute).
func (r *Router) upsertTwoHop(fi int32, th netsim.NodeID, until, now sim.Time) bool {
	ti := r.intern(th)
	edges := r.twoHopOf[fi]
	pos := len(edges)
	for j := range edges {
		if edges[j].th == ti {
			material := edges[j].until <= now
			edges[j].until = until
			return material
		}
		if r.ids[edges[j].th] > th {
			pos = j
			break
		}
	}
	edges = append(edges, twoHopEdge{})
	copy(edges[pos+1:], edges[pos:])
	edges[pos] = twoHopEdge{th: ti, until: until}
	r.twoHopOf[fi] = edges
	r.twoHopN++
	r.twoHopExp.Push([2]int32{fi, ti}, until)
	return true
}

func (r *Router) handleTC(p *netsim.Packet, msg *TC, from netsim.NodeID) {
	now := r.now()
	if msg.Origin == r.node.ID() {
		return
	}
	// Only process/forward messages received over a symmetric link
	// (RFC 3626 §3.4 default forwarding algorithm).
	fi := r.idx.Index(from)
	if fi < 0 || !r.links[fi].present || r.links[fi].symUntil <= now {
		return
	}
	key := dupKey{origin: msg.Origin, seq: msg.Seq}
	if r.dups.Contains(key) {
		return
	}
	r.recordDup(key, now)
	r.noteChange(r.processTC(msg, now))
	// Forward iff the sender selected us as MPR.
	if until, sel := r.selectors[from]; sel && until > now && p.TTL > 1 {
		fwd := *msg
		r.ctrlPackets++
		r.ctrlBytes += uint64(tcBytes(len(msg.Advertised)) + netsim.IPHeaderBytes)
		fp := p.Clone()
		fp.TTL--
		fp.Payload = &fwd
		r.node.SendFrame(netsim.BroadcastID, fp)
	}
}

// processTC installs the advertised topology tuples (RFC 3626 §9.5) into
// the per-origin adjacency, reporting whether anything material to route
// computation changed (pure refreshes of live edges are not).
func (r *Router) processTC(msg *TC, now sim.Time) bool {
	oi := r.intern(msg.Origin)
	edges := r.topoOf[oi]
	// RFC 3626 §9.5 condition 1: a message older than the recorded state
	// for this originator is discarded outright — a delayed out-of-order
	// TC must not resurrect withdrawn topology edges.
	for _, e := range edges {
		if e.until > now && int16(e.ansn-msg.ANSN) > 0 {
			return false
		}
	}
	material := false
	// Discard tuples with a strictly older ANSN.
	kept := edges[:0]
	for _, e := range edges {
		if int16(msg.ANSN-e.ansn) > 0 {
			r.topoN--
			material = true
			continue
		}
		kept = append(kept, e)
	}
	edges = kept
	for i, dest := range msg.Advertised {
		di := r.intern(dest)
		var lq float64
		if msg.LQs != nil {
			lq = msg.LQs[i]
		}
		found := false
		for j := range edges {
			if edges[j].dest != di {
				continue
			}
			if edges[j].until <= now {
				material = true // revived from soft expiry
			}
			if r.cfg.ETX && edges[j].linkLQ != lq {
				material = true
			}
			edges[j].ansn = msg.ANSN
			edges[j].until = now + r.cfg.TopologyHold
			edges[j].linkLQ = lq
			found = true
			break
		}
		if !found {
			edges = append(edges, topoEdge{dest: di, ansn: msg.ANSN, until: now + r.cfg.TopologyHold, linkLQ: lq})
			r.topoN++
			material = true
		}
	}
	r.topoOf[oi] = edges
	if len(edges) > 0 && !r.topoInHeap[oi] {
		r.topoInHeap[oi] = true
		r.topoExp.Push(oi, minTopoUntil(edges))
	}
	return material
}

func minTopoUntil(edges []topoEdge) sim.Time {
	min := edges[0].until
	for _, e := range edges[1:] {
		if e.until < min {
			min = e.until
		}
	}
	return min
}

// LinkFailure implements netsim.Router: link-layer feedback expires the
// link immediately (RFC 3626 §13 link-layer notification option).
func (r *Router) LinkFailure(next netsim.NodeID, p *netsim.Packet) {
	if p.Kind == netsim.KindData {
		r.node.DropData(p, "olsr:link-failure")
	}
	material := false
	if fi := r.idx.Index(next); fi >= 0 {
		lt := &r.links[fi]
		if lt.present {
			lt.symUntil, lt.asymUntil, lt.until = 0, 0, 0
			material = true
		}
	}
	r.noteChange(material)
}

// removeLink deletes the link tuple at index fi from the live set.
func (r *Router) removeLink(fi int32) {
	lt := &r.links[fi]
	if !lt.present {
		return
	}
	lt.present = false
	lt.symUntil, lt.asymUntil, lt.until = 0, 0, 0
	pos := r.linkPos[fi]
	last := int32(len(r.linkList) - 1)
	moved := r.linkList[last]
	r.linkList[pos] = moved
	r.linkPos[moved] = pos
	r.linkList = r.linkList[:last]
	r.linkPos[fi] = -1
}

// removeTwoHop deletes the (nbr → th) edge, preserving the sorted order.
func (r *Router) removeTwoHop(fi, ti int32) {
	edges := r.twoHopOf[fi]
	for j := range edges {
		if edges[j].th == ti {
			r.twoHopOf[fi] = append(edges[:j], edges[j+1:]...)
			r.twoHopN--
			return
		}
	}
}

// purge retires expired tuples. The expiry heaps surface exactly the
// entries whose deadlines passed, so the cost is O(expired) — and when
// nothing material expired, no recompute is triggered at all.
func (r *Router) purge() {
	now := r.now()
	material := false

	r.linkExp.Expire(now, func(fi int32) (sim.Time, bool) {
		lt := &r.links[fi]
		return lt.until, lt.present && lt.until > now
	}, func(fi int32) {
		if r.links[fi].present {
			r.removeLink(fi)
			material = true
		}
	})

	r.symExp.Expire(now, func(fi int32) (sim.Time, bool) {
		lt := &r.links[fi]
		return lt.symUntil, lt.present && lt.symUntil > now
	}, func(fi int32) {
		// The symmetric window lapsed (or the link is gone): routes that
		// used this neighbor must be recomputed.
		r.links[fi].inSymHeap = false
		material = true
	})

	r.twoHopExp.Expire(now, func(key [2]int32) (sim.Time, bool) {
		for _, e := range r.twoHopOf[key[0]] {
			if e.th == key[1] {
				return e.until, e.until > now
			}
		}
		return 0, false
	}, func(key [2]int32) {
		r.removeTwoHop(key[0], key[1])
		material = true
	})

	r.selExp.Expire(now, func(id netsim.NodeID) (sim.Time, bool) {
		until, ok := r.selectors[id]
		return until, ok && until > now
	}, func(id netsim.NodeID) {
		if _, ok := r.selectors[id]; ok {
			delete(r.selectors, id)
			r.ansn++
		}
	})

	r.topoExp.Expire(now, func(oi int32) (sim.Time, bool) {
		edges := r.topoOf[oi]
		kept := edges[:0]
		for _, e := range edges {
			if e.until > now {
				kept = append(kept, e)
			} else {
				r.topoN--
				material = true
			}
		}
		r.topoOf[oi] = kept
		if len(kept) == 0 {
			return 0, false
		}
		return minTopoUntil(kept), true
	}, func(oi int32) {
		r.topoInHeap[oi] = false
	})

	r.dups.Expire(now)

	r.purgeHNA(now)
	r.noteChange(material)
}
