package aodv

import (
	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// routeState distinguishes usable from recently-invalidated entries.
type routeState int

const (
	routeValid routeState = iota + 1
	routeInvalid
)

// denseTable is the routing table: entries live in a flat slice addressed
// through interned indices, so the per-packet path (validNext + refresh on
// every forwarded frame) does no map work and no allocation once the
// destination set has been seen. Expiry is lazy — one ExpiryHeap item per
// valid entry, re-registered on refresh by the heap itself — so the
// periodic purge costs O(expired) instead of a full table scan, while
// flipping exactly the entries an eager scan would flip at the same tick
// (a heap item's deadline never exceeds its entry's expiresAt, so every
// expired entry has surfaced by the time the purge runs).
//
// Every method answers in plain values — none hands out a pointer into
// entries, which would dangle across the next insert. That makes the
// table's contract a per-call value contract, and the original map-based
// table survives only in reference_test.go, where
// TestTableLazyPurgeMatchesEager holds this one to it call by call.
type denseTable struct {
	kernel  *sim.Kernel
	ids     netsim.Interner // dst -> index into entries
	entries []denseEntry
	exp     sim.ExpiryHeap[int32]
}

type denseEntry struct {
	dst       netsim.NodeID
	seq       uint32
	seqKnown  bool
	state     routeState
	hasPrec   bool // stands for the precursor set: only len>0 is ever read
	inHeap    bool
	hops      int
	nextHop   netsim.NodeID
	expiresAt sim.Time
}

func newDenseTable(k *sim.Kernel) *denseTable {
	return &denseTable{kernel: k}
}

// intern returns the entry index for id, creating an empty entry slot on
// first sight.
func (t *denseTable) intern(id netsim.NodeID) int32 {
	x, isNew := t.ids.Intern(id)
	if isNew {
		t.entries = append(t.entries, denseEntry{dst: id})
	}
	return x
}

// liveEntry returns dst's entry if it is state-valid and unexpired,
// flipping a valid-but-expired entry to invalid: the flip timing (on read,
// and at the periodic purge) is observable, because RERR contents depend
// on which entries are still state-valid. The pointer is only valid until
// the next intern.
func (t *denseTable) liveEntry(dst netsim.NodeID) *denseEntry {
	x := t.ids.Index(dst)
	if x < 0 {
		return nil
	}
	e := &t.entries[x]
	if e.state != routeValid {
		return nil
	}
	if t.kernel.Now() >= e.expiresAt {
		e.state = routeInvalid
		return nil
	}
	return e
}

// validNext reports the forwarding state of a live, unexpired route to
// dst.
func (t *denseTable) validNext(dst netsim.NodeID) (netsim.NodeID, int, bool) {
	e := t.liveEntry(dst)
	if e == nil {
		return 0, 0, false
	}
	return e.nextHop, e.hops, true
}

// replyInfo reports what an intermediate RREP answer needs from a live
// route (RFC 3561 §6.6.2). Same flip side effect as validNext.
func (t *denseTable) replyInfo(dst netsim.NodeID) (int, uint32, bool, sim.Time, bool) {
	e := t.liveEntry(dst)
	if e == nil {
		return 0, 0, false, 0, false
	}
	return e.hops, e.seq, e.seqKnown, e.expiresAt, true
}

// lastSeq reports the stored sequence state for dst regardless of route
// validity (RREQ destination-seq seeding, RERR case ii).
func (t *denseTable) lastSeq(dst netsim.NodeID) (uint32, bool, bool) {
	x := t.ids.Index(dst)
	if x < 0 {
		return 0, false, false
	}
	e := &t.entries[x]
	return e.seq, e.seqKnown, true
}

// update installs or refreshes a route per RFC 3561 §6.2: accept when the
// entry is new, the sequence number is newer, equal-seq with fewer hops, or
// the existing entry is invalid/unknown-seq; otherwise keep the entry but
// stretch its lifetime.
func (t *denseTable) update(dst netsim.NodeID, seq uint32, seqKnown bool, hops int, next netsim.NodeID, lifetime sim.Time) {
	now := t.kernel.Now()
	x := t.intern(dst)
	e := &t.entries[x]
	if e.state == routeValid && e.seqKnown && seqKnown {
		newer := int32(seq-e.seq) > 0
		sameButShorter := seq == e.seq && hops < e.hops
		if !newer && !sameButShorter {
			if now+lifetime > e.expiresAt {
				e.expiresAt = now + lifetime
			}
			return
		}
	}
	e.seq = seq
	e.seqKnown = seqKnown
	e.hops = hops
	e.nextHop = next
	e.state = routeValid
	if now+lifetime > e.expiresAt {
		e.expiresAt = now + lifetime
	}
	if !e.inHeap {
		e.inHeap = true
		t.exp.Push(x, e.expiresAt)
	}
}

// refresh extends the lifetime of a valid route (data traffic keeps active
// routes alive, RFC 3561 §6.2).
func (t *denseTable) refresh(dst netsim.NodeID, lifetime sim.Time) {
	if e := t.liveEntry(dst); e != nil {
		exp := t.kernel.Now() + lifetime
		if exp > e.expiresAt {
			e.expiresAt = exp
		}
	}
}

// addPrecursor marks dst's entry, when one exists, as having precursors
// (the only precursor fact the protocol ever reads).
func (t *denseTable) addPrecursor(dst, prev netsim.NodeID) {
	if x := t.ids.Index(dst); x >= 0 {
		t.entries[x].hasPrec = true
	}
}

// breakVia invalidates every valid route whose next hop is the broken
// neighbor, bumping each sequence number so stale information cannot
// resurrect it, and appends the (dst, bumped seq) pairs to buf (RFC 3561
// §6.11 case i). Entries come out in insertion order; RERR entries are
// processed independently by every receiver and the wire size depends only
// on the count, so the order never reaches the results.
func (t *denseTable) breakVia(next netsim.NodeID, buf []UnreachableDst) []UnreachableDst {
	for i := range t.entries {
		e := &t.entries[i]
		if e.state == routeValid && e.nextHop == next {
			e.state = routeInvalid
			e.seq++
			buf = append(buf, UnreachableDst{Dst: e.dst, Seq: e.seq})
		}
	}
	return buf
}

// rerrApply processes one received RERR entry (§6.11): matched when a valid
// route to dst via from existed — it is flipped invalid without a seq bump,
// adopting the reported seq when newer — and propagate when that route had
// precursors. seqOut is the entry's sequence number after adoption.
func (t *denseTable) rerrApply(dst, from netsim.NodeID, seq uint32) (uint32, bool, bool) {
	x := t.ids.Index(dst)
	if x < 0 {
		return 0, false, false
	}
	e := &t.entries[x]
	if e.state != routeValid || e.nextHop != from {
		return 0, false, false
	}
	e.state = routeInvalid
	if int32(seq-e.seq) > 0 {
		e.seq = seq
	}
	return e.seq, e.hasPrec, true
}

// purgeExpired retires expired valid routes (periodic tick).
func (t *denseTable) purgeExpired() {
	now := t.kernel.Now()
	t.exp.Expire(now,
		func(x int32) (sim.Time, bool) {
			e := &t.entries[x]
			if e.state != routeValid {
				return 0, false
			}
			return e.expiresAt, true
		},
		func(x int32) {
			e := &t.entries[x]
			e.inHeap = false
			if e.state == routeValid {
				// keep was true, so expiresAt <= now: expired for real.
				e.state = routeInvalid
			}
		})
}
