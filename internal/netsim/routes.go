package netsim

import "cavenet/internal/sim"

// Unreachable is one (destination, sequence number) pair of a route error:
// AODV's and DYMO's RERRs carry a list of them.
type Unreachable struct {
	Dst NodeID
	Seq uint32
}

// Routes is the sequence-numbered route table of a reactive router: the
// RFC 3561 §6.2 rules AODV specifies and DYMO draft-14 keeps. Entries live
// in sim.Pages addressed through interned indices, so the per-packet path
// (Next, then Refresh on every forwarded frame) does no map work and no
// allocation once the destination set has been seen, and a new destination
// costs at most one page of 16 entries, never a copy. Every method answers
// in plain values, so the table's contract is a per-call value contract,
// and each router package's reference_test.go holds it to the original map
// table call by call.
//
// Lifetimes never shrink: every write of expiresAt takes the max of the
// old and the new deadline. Expiry is lazy. Purge only records its time
// and counts itself; the flip an eager scan would have made is applied on
// the entry's next touch, when expiresAt ≤ lastPurge and a purge has run
// since the entry was last accepted. Because deadlines never shrink, the
// last purge then flipped the entry in the eager table too; the second
// clause matters because AODV's lifetimes come off the wire and can be 0,
// so an entry accepted at the instant of a purge may already be at its
// deadline, and the eager purge that ran before it left it valid. A
// purge flip has no side effect beyond the state bit, and every reader of
// that bit (Next, Usable, ReplyInfo, Refresh, Update's keep branch,
// BreakVia, RerrApply) applies the deferred flip first; Peek reads it
// without applying it.
//
// An entry is 32 B: node ids and hop counts are int32, and the accessors
// widen them back. No validated spec hands out an id that does not fit,
// and Interner.Intern refuses one.
type Routes struct {
	kernel    *sim.Kernel
	ids       Interner // dst -> index into entries
	entries   sim.Pages[route]
	lastPurge sim.Time
	purges    uint32 // Purge calls so far
}

type route struct {
	expiresAt sim.Time
	dst       int32
	next      int32
	hops      int32
	seq       uint32
	accepted  uint32 // purges when the entry was last accepted
	seqKnown  bool
	valid     bool
	hasPrec   bool // stands for the precursor set: only len>0 is ever read
}

// NewRoutes returns an empty table on kernel k's clock.
func NewRoutes(k *sim.Kernel) *Routes {
	return &Routes{kernel: k}
}

// Index returns dst's entry index, or -1 before its first Update. Indices
// are stable, so a router keys per-destination state (HELLO liveness) by
// them.
func (t *Routes) Index(dst NodeID) int32 { return t.ids.Index(dst) }

// Dst returns the destination of entry index x.
func (t *Routes) Dst(x int32) NodeID { return NodeID(t.entries.At(x).dst) }

// stateValid reports whether e is valid as an eagerly purged table would
// have it, applying the deferred purge flip.
func (t *Routes) stateValid(e *route) bool {
	if e.valid && e.expiresAt <= t.lastPurge && e.accepted != t.purges {
		e.valid = false
	}
	return e.valid
}

// live returns dst's entry if it is valid and unexpired, flipping a
// valid-but-expired entry to invalid: the flip timing is observable,
// because BreakVia and RerrApply act only on still-valid entries. Entries
// never move, so the pointer stays valid.
func (t *Routes) live(dst NodeID) *route {
	x := t.ids.Index(dst)
	if x < 0 {
		return nil
	}
	e := t.entries.At(x)
	if !t.stateValid(e) {
		return nil
	}
	if t.kernel.Now() >= e.expiresAt {
		e.valid = false
		return nil
	}
	return e
}

// Next reports the forwarding state of a live, unexpired route to dst.
func (t *Routes) Next(dst NodeID) (next NodeID, hops int, ok bool) {
	e := t.live(dst)
	if e == nil {
		return 0, 0, false
	}
	return NodeID(e.next), int(e.hops), true
}

// Peek reports what Next would, without Next's flip: a valid entry past
// its deadline reads as no route but stays valid, so a mid-run reader
// leaves BreakVia's and RerrApply's later answers as they were. The
// deferred purge flip needs no test of its own here: it applies only to
// entries with expiresAt ≤ lastPurge ≤ now, which the deadline test
// already refuses.
func (t *Routes) Peek(dst NodeID) (next NodeID, hops int, ok bool) {
	x := t.ids.Index(dst)
	if x < 0 {
		return 0, 0, false
	}
	e := t.entries.At(x)
	if !e.valid || t.kernel.Now() >= e.expiresAt {
		return 0, 0, false
	}
	return NodeID(e.next), int(e.hops), true
}

// Usable reports whether a live, unexpired route to dst exists (with
// Next's flip side effect).
func (t *Routes) Usable(dst NodeID) bool { return t.live(dst) != nil }

// ReplyInfo reports what an intermediate RREP answer needs from a live
// route (RFC 3561 §6.6.2), with Next's flip side effect.
func (t *Routes) ReplyInfo(dst NodeID) (hops int, seq uint32, seqKnown bool, expiresAt sim.Time, ok bool) {
	e := t.live(dst)
	if e == nil {
		return 0, 0, false, 0, false
	}
	return int(e.hops), e.seq, e.seqKnown, e.expiresAt, true
}

// LastSeq reports the stored sequence state for dst regardless of route
// validity (RREQ destination-seq seeding, RERR case ii).
func (t *Routes) LastSeq(dst NodeID) (seq uint32, seqKnown, ok bool) {
	x := t.ids.Index(dst)
	if x < 0 {
		return 0, false, false
	}
	e := t.entries.At(x)
	return e.seq, e.seqKnown, true
}

// Update installs or refreshes a route per RFC 3561 §6.2: accept when the
// entry is new, the sequence number is newer, equal-seq with fewer hops,
// or the existing entry is invalid/unknown-seq; otherwise keep the entry
// but stretch its lifetime.
//
// Information without a sequence number (§6.5's previous-hop route) is
// §6.2's case (iii): accepted, but an existing entry keeps its sequence
// number and flag, as in van Glabbeek, Höfner, Portmann and Tan's
// loop-free model ("Modelling and verifying the AODV routing protocol",
// Distributed Computing 29(4), 2016, §5.5.5). Erasing a known number
// would open the entry to the next update of any age. Every caller passes
// an unknown number only for a one-hop route to the sender itself, which
// can close no cycle.
func (t *Routes) Update(dst NodeID, seq uint32, seqKnown bool, hops int, next NodeID, lifetime sim.Time) {
	x, isNew := t.ids.Intern(dst)
	if isNew {
		t.entries.Append(route{dst: int32(dst)})
	}
	e := t.entries.At(x)
	if !isNew && !seqKnown {
		seq, seqKnown = e.seq, e.seqKnown
	} else if t.stateValid(e) && e.seqKnown && seqKnown {
		newer := int32(seq-e.seq) > 0
		sameButShorter := seq == e.seq && hops < int(e.hops)
		if !newer && !sameButShorter {
			t.extend(e, lifetime)
			return
		}
	}
	e.seq = seq
	e.seqKnown = seqKnown
	e.hops = int32(hops)
	e.next = int32(next)
	e.valid = true
	e.accepted = t.purges
	t.extend(e, lifetime)
}

// extend moves e's deadline to lifetime from now unless it is later
// already.
func (t *Routes) extend(e *route, lifetime sim.Time) {
	if exp := t.kernel.Now() + lifetime; exp > e.expiresAt {
		e.expiresAt = exp
	}
}

// Refresh extends the lifetime of a live route (data traffic keeps active
// routes alive, RFC 3561 §6.2).
func (t *Routes) Refresh(dst NodeID, lifetime sim.Time) {
	if e := t.live(dst); e != nil {
		t.extend(e, lifetime)
	}
}

// AddPrecursor records prev as a precursor of dst's entry, when one
// exists. Only whether the set is empty is ever read, so prev is not kept.
func (t *Routes) AddPrecursor(dst, prev NodeID) {
	if x := t.ids.Index(dst); x >= 0 {
		t.entries.At(x).hasPrec = true
	}
}

// BreakVia invalidates every valid route whose next hop is the broken
// neighbour, bumping each sequence number so stale information cannot
// resurrect it, and appends the (dst, bumped seq) pairs to buf (RFC 3561
// §6.11 case i). Entries come out in insertion order; RERR entries are
// processed independently by every receiver and the wire size depends only
// on the count, so the order never reaches the results.
func (t *Routes) BreakVia(neighbour NodeID, buf []Unreachable) []Unreachable {
	for i := range t.entries.Len() {
		e := t.entries.At(i)
		if t.stateValid(e) && NodeID(e.next) == neighbour {
			e.valid = false
			e.seq++
			buf = append(buf, Unreachable{Dst: NodeID(e.dst), Seq: e.seq})
		}
	}
	return buf
}

// RerrApply processes one received RERR entry (§6.11): matched when a
// valid route to dst via from existed — it is flipped invalid without a
// seq bump, adopting the reported seq when newer — and propagate when that
// route had precursors. seqOut is the entry's sequence number after
// adoption.
func (t *Routes) RerrApply(dst, from NodeID, seq uint32) (seqOut uint32, propagate, matched bool) {
	x := t.ids.Index(dst)
	if x < 0 {
		return 0, false, false
	}
	e := t.entries.At(x)
	if !t.stateValid(e) || NodeID(e.next) != from {
		return 0, false, false
	}
	e.valid = false
	if int32(seq-e.seq) > 0 {
		e.seq = seq
	}
	return e.seq, e.hasPrec, true
}

// Purge is the periodic tick that retires expired routes; the flips it
// implies are applied by stateValid on each entry's next touch.
func (t *Routes) Purge() {
	t.lastPurge = t.kernel.Now()
	t.purges++
}
