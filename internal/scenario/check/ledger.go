package check

import (
	"sort"

	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// fate tracks what has happened to one originated data packet.
//
// A packet normally meets exactly one terminal event (delivered or
// dropped). The one legitimate exception is the 802.11 ACK-loss fork: the
// receiver decodes a data frame and forwards it onward, but the ACK is
// lost, so the sender retries to exhaustion and records a link-failure
// drop for a packet that lives on (and may be delivered, dropped again, or
// parked). Every such fork is witnessed by exactly one link-failure drop,
// so the sound conservation invariant is
//
//	deliveries ≤ 1   and   deliveries + drops ≤ fork witnesses + 1.
//
// A "node:down" drop is the fault-injection analogue of the same fork: the
// crashing node's in-flight frame may already have been decoded downstream
// (so the packet lives on) while the flush records a drop for the local
// copy — and two custodians of ACK-loss replicas can even crash
// independently, each recording its own witness. Both reasons therefore
// count as fork witnesses (lfDropped).
type fate struct {
	delivered int
	dropped   int
	lfDropped int
	// gen invalidates stale settled-queue entries: it bumps on every event,
	// so a queued retirement only fires if nothing happened since.
	gen uint32
}

func (f *fate) terminals() int { return f.delivered + f.dropped }

// settled reports whether the packet is a retirement candidate:
//
//   - fully accounted (exactly one terminal beyond what ACK-loss forks
//     explain): dead, bar a fork's late link-failure drop, which lands
//     within one MAC retry sequence;
//   - or terminated only by link-failure forks (the dominant fate in
//     loss-heavy, partition-prone workloads): the forwarded copy is
//     nominally still live, but each of its subsequent events bumps the
//     generation and re-arms the grace timer, so only an entry quiet for
//     a whole grace period — long past any queue or discovery-buffer
//     residence — is actually retired. Custody settlement skips entries
//     with any terminal either way, so retiring them loses no detection.
//
// Without the second clause the fates map would grow O(packets ever
// sent) in exactly the workloads (sparse, partitioned) that drop most
// traffic via link failures.
func (f *fate) settled() bool {
	if f.delivered > 1 || f.terminals() == 0 {
		return false
	}
	return f.terminals() == f.lfDropped+1 || f.terminals() == f.lfDropped
}

// settleGrace is how long a settled entry lingers before retirement. An
// ACK-loss fork's late link-failure drop arrives within one MAC retry
// sequence of the receiver's forward (milliseconds; bounded by retry
// count × backoff, far under a second even on a congested channel), so a
// multi-second grace keeps the fork rule exact while the ledger's live
// size tracks packets-in-flight instead of packets-ever-sent.
const settleGrace = 10 * sim.Second

// settledEntry queues one retirement candidate.
type settledEntry struct {
	uid uint64
	gen uint32
	at  sim.Time
}

// Ledger audits the data plane of one world run as a netsim observer:
// it keeps per-UID packet fates and verifies the TTL discipline at every
// event. After the run, Finish settles the conservation equation
//
//	sent = delivered + dropped + in-flight
//
// where in-flight is not inferred by subtraction but proven: every packet
// with no terminal event must still be physically held by a MAC queue or a
// route-discovery buffer somewhere in the world.
//
// The fates map is compacted as the run proceeds: a fully accounted
// packet (see fate.settled) is retired settleGrace after its last event,
// so the ledger's memory is O(packets in flight + recent), not O(total
// packets originated) — the same streaming discipline as the mobility
// substrate, applied to the harness itself.
type Ledger struct {
	report *Report
	fates  map[uint64]*fate
	// queue is the FIFO of retirement candidates; event times are
	// monotone (events arrive in kernel order), so it is drained from the
	// front. head indexes the first live entry.
	queue   []settledEntry
	head    int
	retired uint64
}

// NewLedger creates a ledger reporting into report.
func NewLedger(report *Report) *Ledger {
	return &Ledger{report: report, fates: make(map[uint64]*fate)}
}

// Active reports the live per-UID entry count (retired entries excluded).
func (l *Ledger) Active() int { return len(l.fates) }

// Retired reports how many settled entries compaction has retired.
func (l *Ledger) Retired() uint64 { return l.retired }

// afterEvent runs the compaction bookkeeping once an event has been
// applied to f: enqueue a (re-)settled entry and retire candidates whose
// grace expired with no newer event.
func (l *Ledger) afterEvent(uid uint64, f *fate, now sim.Time) {
	f.gen++
	if f.settled() {
		l.queue = append(l.queue, settledEntry{uid: uid, gen: f.gen, at: now})
	}
	for l.head < len(l.queue) {
		e := l.queue[l.head]
		if e.at+settleGrace > now {
			break
		}
		l.head++
		if cur, ok := l.fates[e.uid]; ok && cur.gen == e.gen {
			delete(l.fates, e.uid)
			l.retired++
		}
		// Reclaim the drained prefix once it dominates the queue.
		if l.head > 64 && l.head*2 > len(l.queue) {
			l.queue = append(l.queue[:0], l.queue[l.head:]...)
			l.head = 0
		}
	}
}

// Observe audits one data-plane event; install it with World.Observe.
func (l *Ledger) Observe(e netsim.PacketEvent) {
	p := e.Packet
	f := l.fates[p.UID]
	switch e.Kind {
	case netsim.Sent:
		if f != nil {
			l.report.Add("conservation", "packet uid=%d originated twice", p.UID)
			return
		}
		f = &fate{}
		l.fates[p.UID] = f
		if p.TTL != netsim.DefaultTTL {
			l.report.Add("ttl", "packet uid=%d originated with TTL %d, want %d", p.UID, p.TTL, netsim.DefaultTTL)
		}
		if p.Hops != 0 {
			l.report.Add("ttl", "packet uid=%d originated with hop count %d", p.UID, p.Hops)
		}
	case netsim.Delivered:
		if f == nil {
			l.report.Add("conservation", "delivered packet uid=%d was never originated", p.UID)
			return
		}
		f.delivered++
		if f.delivered > 1 {
			l.report.Add("conservation", "packet uid=%d delivered %d times", p.UID, f.delivered)
		} else if f.terminals() > f.lfDropped+1 {
			l.report.Add("conservation",
				"packet uid=%d delivered after a drop no ACK-loss fork explains (%d drops, %d link failures)",
				p.UID, f.dropped, f.lfDropped)
		}
		// TTL discipline at delivery: Hops counts MAC receptions, and every
		// reception except the final one passed through a router that
		// decremented TTL exactly once, so TTL + Hops == DefaultTTL + 1.
		if p.Hops < 1 {
			l.report.Add("ttl", "packet uid=%d delivered with hop count %d", p.UID, p.Hops)
		}
		if p.TTL < 1 {
			l.report.Add("ttl", "packet uid=%d delivered with TTL %d", p.UID, p.TTL)
		}
		if p.TTL+p.Hops != netsim.DefaultTTL+1 {
			l.report.Add("ttl", "packet uid=%d delivered with TTL %d after %d hops (want TTL+hops=%d)",
				p.UID, p.TTL, p.Hops, netsim.DefaultTTL+1)
		}
	case netsim.Dropped:
		if f == nil {
			l.report.Add("conservation", "dropped packet uid=%d (%s) was never originated", p.UID, reason(e))
			return
		}
		f.dropped++
		// node:down is the custody rule for crashed custodians: like a
		// link-failure, it can witness a fork whose other copy lives on
		// downstream (see the fate invariant above).
		if e.Cause == netsim.CauseLinkFailure || e.Cause == netsim.CauseNodeDown {
			f.lfDropped++
		}
		if f.terminals() > f.lfDropped+1 {
			l.report.Add("conservation",
				"packet uid=%d dropped (%s) beyond what ACK-loss forks explain (%d deliveries, %d drops, %d link failures)",
				p.UID, reason(e), f.delivered, f.dropped, f.lfDropped)
		}
		// A drop either happens at a router after its decrement (TTL+hops ==
		// DefaultTTL) or before any forwarding work on this hop (== +1, e.g. a
		// queue drop at the originator). TTL expiry must fire exactly at zero.
		if sum := p.TTL + p.Hops; sum != netsim.DefaultTTL && sum != netsim.DefaultTTL+1 {
			l.report.Add("ttl", "packet uid=%d dropped (%s) with TTL %d after %d hops", p.UID, reason(e), p.TTL, p.Hops)
		}
		if e.Cause == netsim.CauseTTL {
			if p.TTL != 0 {
				l.report.Add("ttl", "packet uid=%d dropped for TTL expiry with TTL %d", p.UID, p.TTL)
			}
		} else if p.TTL < 1 {
			l.report.Add("ttl", "packet uid=%d dropped (%s) with non-positive TTL %d", p.UID, reason(e), p.TTL)
		}
	}
	l.afterEvent(p.UID, f, e.At)
}

// reason renders a drop the way Result.Drops keys it.
func reason(e netsim.PacketEvent) string { return e.Cause.Reason(e.Node.Router().Name()) }

// Finish settles the ledger against the world's end-of-run custody state.
func (l *Ledger) Finish(w *netsim.World) {
	custody := make(map[uint64]bool)
	for _, n := range w.Nodes() {
		n.MAC().EachQueued(func(payload any) {
			if p, ok := payload.(*netsim.Packet); ok && p.Kind == netsim.KindData {
				custody[p.UID] = true
			}
		})
		n.EachBuffered(func(p *netsim.Packet) { custody[p.UID] = true })
	}
	l.finish(custody)
}

// finish is the custody settlement, split out so tests can feed a
// synthetic custody set. Retired entries all had a terminal event, so
// compaction never hides a vanished packet.
func (l *Ledger) finish(custody map[uint64]bool) {
	vanished := make([]uint64, 0)
	for uid, f := range l.fates { // order-free: the vanished uids are sorted below
		if f.delivered+f.dropped > 0 {
			continue
		}
		if !custody[uid] {
			vanished = append(vanished, uid)
		}
	}
	sort.Slice(vanished, func(i, j int) bool { return vanished[i] < vanished[j] })
	for _, uid := range vanished {
		l.report.Add("conservation",
			"packet uid=%d vanished: not delivered, not dropped, and not held by any MAC queue or router buffer", uid)
	}
}
