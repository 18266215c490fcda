package netsim

import (
	"slices"

	"cavenet/internal/sim"
)

// Discovery buffer constants, shared by AODV and DYMO: RFC 3561's
// RREQ_RETRIES 2 and draft-14's RREQ_TRIES 3 both allow three requests
// per search, and ns-2's send buffer holds 64 packets per destination.
const (
	discoveryTries = 3
	discoveryCap   = 64
)

// Discovery is one in-progress route search. Its router's request callback
// reads Dst and Tries and may keep TTL (AODV's expanding ring).
type Discovery struct {
	Dst   NodeID
	Tries int // requests that have timed out before this one
	TTL   int // the last request's TTL, 0 for a fresh search

	timer  *sim.Timer
	buffer []*Packet
}

// Discoveries is the buffer-then-search machinery of a reactive router
// (RFC 3561 §6.3–6.4, DYMO draft-14 §5): data packets with no route park
// per destination while requests go out, and a search ends by re-originating
// them once a route is usable or dropping them once its tries are spent.
// What differs between protocols is how a request is built and how long it
// waits, and that is the request callback.
//
// Records (and their timers and buffers) are pooled: a record is only
// released after its timer has been stopped or has fired its final time, so
// a recycled record never receives a stale callback.
type Discoveries struct {
	node    *Node
	usable  func(dst NodeID) bool
	request func(d *Discovery) sim.Time // sends a request, returns its wait
	origin  func(p *Packet)
	open    map[NodeID]*Discovery
	free    []*Discovery
}

// NewDiscoveries builds node's discovery buffer. usable reports whether a
// route to dst can carry data now, request sends the next request of a
// search and returns how long it waits for an answer, and origin routes a
// released packet again (the router's Origin).
func NewDiscoveries(node *Node, usable func(dst NodeID) bool, request func(d *Discovery) sim.Time, origin func(p *Packet)) *Discoveries {
	return &Discoveries{
		node:    node,
		usable:  usable,
		request: request,
		origin:  origin,
		open:    make(map[NodeID]*Discovery),
	}
}

// Park holds p until a route to its destination is found: it joins the
// destination's search, or opens one and sends its first request. A
// search already holding discoveryCap packets drops p as buffer-full.
func (ds *Discoveries) Park(p *Packet) {
	if d := ds.open[p.Dst]; d != nil {
		if len(d.buffer) >= discoveryCap {
			ds.node.DropData(p, CauseBufferFull)
			return
		}
		d.buffer = append(d.buffer, p)
		return
	}
	var d *Discovery
	if n := len(ds.free); n > 0 {
		d = ds.free[n-1]
		ds.free[n-1] = nil
		ds.free = ds.free[:n-1]
		d.Dst, d.Tries, d.TTL = p.Dst, 0, 0
	} else {
		d = &Discovery{Dst: p.Dst}
		d.timer = sim.NewTimer(ds.node.Kernel(), func() { ds.retry(d) })
	}
	ds.open[d.Dst] = d
	d.buffer = append(d.buffer, p)
	d.timer.Reset(ds.request(d))
}

// retry is a search's decision when its request has gone unanswered: flush
// if a route has appeared meanwhile, give up once the tries are spent,
// otherwise ask again.
func (ds *Discoveries) retry(d *Discovery) {
	if ds.usable(d.Dst) {
		ds.flush(d)
		return
	}
	d.Tries++
	if d.Tries >= discoveryTries {
		for _, p := range d.buffer {
			ds.node.DropData(p, CauseNoRoute)
		}
		delete(ds.open, d.Dst)
		ds.release(d)
		return
	}
	d.timer.Reset(ds.request(d))
}

// Found ends dst's search, if one is open, because a reply has arrived:
// every parked packet is originated again.
func (ds *Discoveries) Found(dst NodeID) {
	if d := ds.open[dst]; d != nil {
		ds.flush(d)
	}
}

func (ds *Discoveries) flush(d *Discovery) {
	delete(ds.open, d.Dst)
	d.timer.Stop()
	for i, p := range d.buffer {
		d.buffer[i] = nil
		// origin may open a fresh search for the same destination if the
		// route evaporated mid-flush; d is already unregistered, so the two
		// records never alias.
		ds.origin(p)
	}
	ds.release(d)
}

// release returns a record whose timer is no longer scheduled to the pool,
// dropping its parked-packet references.
func (ds *Discoveries) release(d *Discovery) {
	clear(d.buffer)
	d.buffer = d.buffer[:0]
	ds.free = append(ds.free, d)
}

// Stop halts every search's timer; the parked packets stay.
func (ds *Discoveries) Stop() {
	for _, d := range ds.open { // order-free: stopping a timer draws no sequence number
		d.timer.Stop()
	}
}

// Resume restarts the searches a Stop halted (a router's Start after a
// graceful shutdown): each takes its retry decision at once, in ascending
// destination order, because the requests it sends and the timers it arms
// draw kernel sequence numbers. A search opened since the Stop (data
// originated while the node was down) is armed and keeps its deadline.
func (ds *Discoveries) Resume() {
	for _, dst := range ds.dsts() {
		if d := ds.open[dst]; d != nil && !d.timer.Active() {
			ds.retry(d)
		}
	}
}

// Each visits every parked data packet — the router's share of the custody
// set the packet-conservation invariant audits — search by search in
// ascending destination order, so a crash drops them in the same order on
// every replay.
func (ds *Discoveries) Each(f func(p *Packet)) {
	for _, dst := range ds.dsts() {
		for _, p := range ds.open[dst].buffer {
			f(p)
		}
	}
}

// dsts lists the destinations searched for, in ascending order.
func (ds *Discoveries) dsts() []NodeID {
	dsts := make([]NodeID, 0, len(ds.open))
	for dst := range ds.open { // order-free: the keys are sorted below
		dsts = append(dsts, dst)
	}
	slices.Sort(dsts)
	return dsts
}
