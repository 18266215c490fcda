package aodv

import (
	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// denseTable is the production routing table: entries live in a flat
// slice addressed through interned indices, so the per-packet path
// (validNext + refresh on every forwarded frame) does no map work and no
// allocation once the destination set has been seen. Expiry is lazy —
// one ExpiryHeap item per valid entry, re-registered on refresh by the
// heap itself — so the periodic purge costs O(expired) instead of a full
// table scan, while flipping exactly the entries the oracle's eager scan
// would flip at the same tick (a heap item's deadline never exceeds its
// entry's expiresAt, so every expired entry has surfaced by the time the
// purge runs).
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
	hasPrec   bool // replaces the oracle's precursor set: only len>0 is ever read
	inHeap    bool
	hops      int
	nextHop   netsim.NodeID
	expiresAt sim.Time
}

var _ routeTable = (*denseTable)(nil)

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
// flipping a valid-but-expired entry to invalid (the oracle's read side
// effect). The pointer is only valid until the next intern.
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

func (t *denseTable) validNext(dst netsim.NodeID) (netsim.NodeID, int, bool) {
	e := t.liveEntry(dst)
	if e == nil {
		return 0, 0, false
	}
	return e.nextHop, e.hops, true
}

func (t *denseTable) replyInfo(dst netsim.NodeID) (int, uint32, bool, sim.Time, bool) {
	e := t.liveEntry(dst)
	if e == nil {
		return 0, 0, false, 0, false
	}
	return e.hops, e.seq, e.seqKnown, e.expiresAt, true
}

func (t *denseTable) lastSeq(dst netsim.NodeID) (uint32, bool, bool) {
	x := t.ids.Index(dst)
	if x < 0 {
		return 0, false, false
	}
	e := &t.entries[x]
	return e.seq, e.seqKnown, true
}

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

func (t *denseTable) refresh(dst netsim.NodeID, lifetime sim.Time) {
	if e := t.liveEntry(dst); e != nil {
		exp := t.kernel.Now() + lifetime
		if exp > e.expiresAt {
			e.expiresAt = exp
		}
	}
}

func (t *denseTable) addPrecursor(dst, prev netsim.NodeID) {
	if x := t.ids.Index(dst); x >= 0 {
		t.entries[x].hasPrec = true
	}
}

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
