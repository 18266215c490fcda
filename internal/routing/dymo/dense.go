package dymo

import (
	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// denseTable is the routing table: entries live in a flat slice addressed
// through interned indices, so the per-packet path (validNext + refresh on
// every forwarded frame) does no map work and no allocation once the
// destination set has been seen. Every method answers in plain values —
// none hands out a pointer into entries, which would dangle across the
// next insert — so the table's contract is a per-call value contract, and
// the original map-based table survives only in reference_test.go, where
// TestTableLazyPurgeMatchesEager holds this one to it call by call.
//
// Expiry is epoch-stamped rather than heap-driven: the periodic purge
// only records its tick time (lastPurge), and the flip an eager scan
// would have performed is applied lazily the next time the entry is
// touched — an entry whose expiresAt is at or before lastPurge behaves as
// if the purge had flipped it. That deferral is unobservable because a
// purge flip has no side effect beyond the state bit (no sequence bump),
// and every consumer of the state bit (validNext, refresh, update's
// keep-branch guard, breakVia, rerrApply) runs the emulation first. AODV's
// dense table uses an ExpiryHeap instead; that approach needs lifetimes
// to be non-shrinking, which DYMO's reset-on-accept update rule violates
// (a route can be invalidated and relearned with a shorter lifetime).
type denseTable struct {
	kernel    *sim.Kernel
	timeout   sim.Time
	ids       netsim.Interner // dst -> index into entries
	entries   []denseEntry
	lastPurge sim.Time
}

type denseEntry struct {
	dst       netsim.NodeID
	seq       uint32
	seqKnown  bool
	valid     bool
	hops      int
	nextHop   netsim.NodeID
	expiresAt sim.Time
}

func newDenseTable(k *sim.Kernel, timeout sim.Time) *denseTable {
	return &denseTable{kernel: k, timeout: timeout, lastPurge: -1}
}

// intern returns the entry index for id, creating an empty slot on first
// sight.
func (t *denseTable) intern(id netsim.NodeID) int32 {
	x, isNew := t.ids.Intern(id)
	if isNew {
		t.entries = append(t.entries, denseEntry{dst: id})
	}
	return x
}

// stateValid reports whether e is state-valid as an eagerly purged table
// would have it, applying the deferred purge flip: if a purge tick has passed the entry's
// deadline since it became valid, the eager scan would have flipped it.
func (t *denseTable) stateValid(e *denseEntry) bool {
	if !e.valid {
		return false
	}
	if e.expiresAt <= t.lastPurge {
		e.valid = false
		return false
	}
	return true
}

// liveEntry returns dst's entry if it is state-valid and unexpired,
// flipping a valid-but-expired entry to invalid: the flip timing is
// observable, because breakVia bumps sequence numbers only on still-valid
// entries. The pointer is only valid until the next intern.
func (t *denseTable) liveEntry(dst netsim.NodeID) *denseEntry {
	x := t.ids.Index(dst)
	if x < 0 {
		return nil
	}
	e := &t.entries[x]
	if !t.stateValid(e) {
		return nil
	}
	if t.kernel.Now() >= e.expiresAt {
		e.valid = false
		return nil
	}
	return e
}

// validNext reports the forwarding state of a live, unexpired route.
func (t *denseTable) validNext(dst netsim.NodeID) (netsim.NodeID, int, bool) {
	e := t.liveEntry(dst)
	if e == nil {
		return 0, 0, false
	}
	return e.nextHop, e.hops, true
}

// lastSeq reports the stored sequence state for dst regardless of route
// validity (RREQ target-seq seeding, RERR case ii).
func (t *denseTable) lastSeq(dst netsim.NodeID) (uint32, bool, bool) {
	x := t.ids.Index(dst)
	if x < 0 {
		return 0, false, false
	}
	e := &t.entries[x]
	return e.seq, e.seqKnown, true
}

// update applies the draft's route-update rules: the same sequence-number
// discipline as AODV, but an accepted update resets the lifetime to
// RouteTimeout from now instead of stretching it.
func (t *denseTable) update(dst netsim.NodeID, seq uint32, seqKnown bool, hops int, next netsim.NodeID) {
	now := t.kernel.Now()
	x := t.intern(dst)
	e := &t.entries[x]
	if t.stateValid(e) && e.seqKnown && seqKnown {
		newer := int32(seq-e.seq) > 0
		sameShorter := seq == e.seq && hops < e.hops
		if !newer && !sameShorter {
			if now+t.timeout > e.expiresAt {
				e.expiresAt = now + t.timeout
			}
			return
		}
	}
	e.seq = seq
	e.seqKnown = seqKnown
	e.hops = hops
	e.nextHop = next
	e.valid = true
	e.expiresAt = now + t.timeout
}

// refresh extends a valid route's lifetime to RouteTimeout from now.
func (t *denseTable) refresh(dst netsim.NodeID) {
	if e := t.liveEntry(dst); e != nil {
		exp := t.kernel.Now() + t.timeout
		if exp > e.expiresAt {
			e.expiresAt = exp
		}
	}
}

// breakVia invalidates every valid route whose next hop is the broken
// neighbor, bumping each sequence number and appending the (dst, bumped
// seq) pairs to buf. Entries come out in insertion order; RERR entries are
// processed independently by every receiver and the wire size depends only
// on the count, so the order never reaches the results.
func (t *denseTable) breakVia(neighbor netsim.NodeID, buf []AddrBlock) []AddrBlock {
	for i := range t.entries {
		e := &t.entries[i]
		if t.stateValid(e) && e.nextHop == neighbor {
			e.valid = false
			e.seq++
			buf = append(buf, AddrBlock{Addr: e.dst, Seq: e.seq})
		}
	}
	return buf
}

// rerrApply processes one received RERR entry: matched when a valid route
// to dst via from existed — it is flipped invalid without a seq bump,
// adopting the reported seq when newer. seqOut is the entry's sequence
// number after adoption.
func (t *denseTable) rerrApply(dst, from netsim.NodeID, seq uint32) (uint32, bool) {
	x := t.ids.Index(dst)
	if x < 0 {
		return 0, false
	}
	e := &t.entries[x]
	if !t.stateValid(e) || e.nextHop != from {
		return 0, false
	}
	e.valid = false
	if int32(seq-e.seq) > 0 {
		e.seq = seq
	}
	return e.seq, true
}

// purgeExpired records the tick; the flips it implies are applied lazily
// by stateValid on the next touch of each affected entry.
func (t *denseTable) purgeExpired() {
	t.lastPurge = t.kernel.Now()
}
