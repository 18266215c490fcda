package aodv

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// routeTable is the table contract denseTable (dense.go, what Router
// holds) and the map reference below both satisfy; it exists only so the
// table tests and BenchmarkAODVForward can drive either. The contract is a
// value contract at a package-internal call boundary — no method hands out
// a pointer into table storage, every answer is a plain value — so equal
// answers per call imply equal runs by induction over the router's calls,
// and TestTableLazyPurgeMatchesEager is the whole gate: there is no
// Config switch and no run-level identity test (ROADMAP, "Oracles are test
// references").
//
// Several methods share a read side effect: reading a valid-but-expired
// entry flips it to invalid on the spot. The flip timing (on read, and at
// the periodic purge) is part of the contract — RERR contents depend on
// which entries are still state-valid.
type routeTable interface {
	// validNext reports the forwarding state of a live, unexpired route
	// to dst.
	validNext(dst netsim.NodeID) (next netsim.NodeID, hops int, ok bool)
	// replyInfo reports what an intermediate RREP answer needs from a
	// live route (RFC 3561 §6.6.2). Same flip side effect as validNext.
	replyInfo(dst netsim.NodeID) (hops int, seq uint32, seqKnown bool, expiresAt sim.Time, ok bool)
	// lastSeq reports the stored sequence state for dst regardless of
	// route validity (RREQ destination-seq seeding, RERR case ii).
	lastSeq(dst netsim.NodeID) (seq uint32, seqKnown bool, ok bool)
	// update installs or refreshes a route per RFC 3561 §6.2.
	update(dst netsim.NodeID, seq uint32, seqKnown bool, hops int, next netsim.NodeID, lifetime sim.Time)
	// refresh extends the lifetime of a valid route (data traffic keeps
	// active routes alive, RFC 3561 §6.2).
	refresh(dst netsim.NodeID, lifetime sim.Time)
	// addPrecursor marks dst's entry, when one exists, as having
	// precursors (the only precursor fact the protocol ever reads).
	addPrecursor(dst, prev netsim.NodeID)
	// breakVia invalidates every valid route whose next hop is the
	// broken neighbor, bumping each sequence number and appending the
	// (dst, bumped seq) pairs to buf (RFC 3561 §6.11 case i).
	breakVia(neighbor netsim.NodeID, buf []UnreachableDst) []UnreachableDst
	// rerrApply processes one received RERR entry (§6.11): matched when
	// a valid route to dst via from existed — it is flipped invalid
	// without a seq bump, adopting the reported seq when newer — and
	// propagate when that route had precursors. seqOut is the entry's
	// sequence number after adoption.
	rerrApply(dst, from netsim.NodeID, seq uint32) (seqOut uint32, propagate, matched bool)
	// purgeExpired retires expired valid routes (periodic tick).
	purgeExpired()
}

// route is one routing-table entry (RFC 3561 §2) of the map reference.
type route struct {
	dst        netsim.NodeID
	seq        uint32
	seqKnown   bool
	hops       int
	nextHop    netsim.NodeID
	expiresAt  sim.Time
	state      routeState
	precursors map[netsim.NodeID]struct{}
}

func (r *route) addPrecursor(id netsim.NodeID) {
	if r.precursors == nil {
		r.precursors = make(map[netsim.NodeID]struct{})
	}
	r.precursors[id] = struct{}{}
}

// mapTable is the map-based reference: the original table, kept verbatim.
type mapTable struct {
	kernel *sim.Kernel
	routes map[netsim.NodeID]*route
}

var (
	_ routeTable = (*mapTable)(nil)
	_ routeTable = (*denseTable)(nil)
)

func newMapTable(k *sim.Kernel) *mapTable {
	return &mapTable{kernel: k, routes: make(map[netsim.NodeID]*route)}
}

// validRoute returns a live, unexpired route to dst or nil, flipping an
// expired valid entry to invalid.
func (t *mapTable) validRoute(dst netsim.NodeID) *route {
	r := t.routes[dst]
	if r == nil || r.state != routeValid {
		return nil
	}
	if t.kernel.Now() >= r.expiresAt {
		r.state = routeInvalid
		return nil
	}
	return r
}

func (t *mapTable) validNext(dst netsim.NodeID) (netsim.NodeID, int, bool) {
	r := t.validRoute(dst)
	if r == nil {
		return 0, 0, false
	}
	return r.nextHop, r.hops, true
}

func (t *mapTable) replyInfo(dst netsim.NodeID) (int, uint32, bool, sim.Time, bool) {
	r := t.validRoute(dst)
	if r == nil {
		return 0, 0, false, 0, false
	}
	return r.hops, r.seq, r.seqKnown, r.expiresAt, true
}

func (t *mapTable) lastSeq(dst netsim.NodeID) (uint32, bool, bool) {
	r := t.routes[dst]
	if r == nil {
		return 0, false, false
	}
	return r.seq, r.seqKnown, true
}

// update follows the RFC 3561 §6.2 rules: accept when the entry is new,
// the sequence number is newer, equal-seq with fewer hops, or the
// existing entry is invalid/unknown-seq.
func (t *mapTable) update(dst netsim.NodeID, seq uint32, seqKnown bool, hops int, next netsim.NodeID, lifetime sim.Time) {
	now := t.kernel.Now()
	r := t.routes[dst]
	if r == nil {
		r = &route{dst: dst}
		t.routes[dst] = r
	} else if r.state == routeValid && r.seqKnown && seqKnown {
		newer := int32(seq-r.seq) > 0
		sameButShorter := seq == r.seq && hops < r.hops
		if !newer && !sameButShorter {
			// Keep the existing entry but stretch its lifetime.
			if now+lifetime > r.expiresAt {
				r.expiresAt = now + lifetime
			}
			return
		}
	}
	r.seq = seq
	r.seqKnown = seqKnown
	r.hops = hops
	r.nextHop = next
	r.state = routeValid
	if now+lifetime > r.expiresAt {
		r.expiresAt = now + lifetime
	}
}

func (t *mapTable) refresh(dst netsim.NodeID, lifetime sim.Time) {
	if r := t.validRoute(dst); r != nil {
		exp := t.kernel.Now() + lifetime
		if exp > r.expiresAt {
			r.expiresAt = exp
		}
	}
}

func (t *mapTable) addPrecursor(dst, prev netsim.NodeID) {
	if r := t.routes[dst]; r != nil {
		r.addPrecursor(prev)
	}
}

// breakVia invalidates the valid routes through the broken neighbor,
// bumping each sequence number so stale information cannot resurrect
// them (RFC 3561 §6.11). Map iteration order varies, but RERR entries
// are processed independently by every receiver and the wire size
// depends only on the count, so the order never reaches the results —
// the same argument that lets the dense path use insertion order.
func (t *mapTable) breakVia(next netsim.NodeID, buf []UnreachableDst) []UnreachableDst {
	for _, r := range t.routes {
		if r.state == routeValid && r.nextHop == next {
			r.state = routeInvalid
			r.seq++
			buf = append(buf, UnreachableDst{Dst: r.dst, Seq: r.seq})
		}
	}
	return buf
}

func (t *mapTable) rerrApply(dst, from netsim.NodeID, seq uint32) (uint32, bool, bool) {
	r := t.routes[dst]
	if r == nil || r.state != routeValid || r.nextHop != from {
		return 0, false, false
	}
	r.state = routeInvalid
	if int32(seq-r.seq) > 0 {
		r.seq = seq
	}
	return r.seq, len(r.precursors) > 0, true
}

// purgeExpired flips expired valid routes to invalid.
func (t *mapTable) purgeExpired() {
	now := t.kernel.Now()
	for _, r := range t.routes {
		if r.state == routeValid && now >= r.expiresAt {
			r.state = routeInvalid
		}
	}
}

// TestTableLazyPurgeMatchesEager drives the dense table and the map
// reference through the same random schedule of every table operation and
// checks that each call answers the same and the observable state stays
// identical — the dense path's lazy ExpiryHeap must flip exactly the
// entries the reference's eager scan flips, at the same tick. Since the
// router holds a *denseTable and nothing selects the reference at run
// level, this is the whole gate for the table (reference_test.go), so it
// covers every method of the contract. The schedule runs at two read
// cadences: probing every destination after every step, and only every
// seventh step — a probe's validNext flips expired entries in both tables,
// which on the dense cadence hides whether the purge did.
func TestTableLazyPurgeMatchesEager(t *testing.T) {
	for _, probeEvery := range []int{1, 7} {
		tableDifferential(t, probeEvery)
	}
}

func tableDifferential(t *testing.T, probeEvery int) {
	k := sim.NewKernel()
	dense := newDenseTable(k)
	oracle := newMapTable(k)
	both := [...]routeTable{dense, oracle}
	sorted := func(u []UnreachableDst) []UnreachableDst {
		sort.Slice(u, func(i, j int) bool { return u[i].Dst < u[j].Dst })
		return u
	}

	rng := rand.New(rand.NewSource(42))
	for step := 0; step < 2000; step++ {
		k.Schedule(k.Now()+sim.Time(rng.Int63n(int64(200*sim.Millisecond))), func() {})
		k.Run()
		dst := netsim.NodeID(rng.Intn(12))
		switch rng.Intn(6) {
		case 0:
			seq, hops := uint32(rng.Intn(8)), 1+rng.Intn(4)
			next := netsim.NodeID(rng.Intn(4))
			life := sim.Time(1+rng.Intn(3)) * sim.Second
			known := rng.Intn(8) > 0
			for _, tb := range both {
				tb.update(dst, seq, known, hops, next, life)
			}
		case 1:
			for _, tb := range both {
				tb.refresh(dst, sim.Second)
			}
		case 2:
			for _, tb := range both {
				tb.purgeExpired()
			}
		case 3:
			n := netsim.NodeID(rng.Intn(4))
			got := sorted(dense.breakVia(n, nil))
			want := sorted(oracle.breakVia(n, nil))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cadence %d step %d: breakVia %v != %v", probeEvery, step, got, want)
			}
		case 4:
			seq := uint32(rng.Intn(10))
			from := netsim.NodeID(rng.Intn(4))
			gs, gp, gm := dense.rerrApply(dst, from, seq)
			ws, wp, wm := oracle.rerrApply(dst, from, seq)
			if gs != ws || gp != wp || gm != wm {
				t.Fatalf("cadence %d step %d: rerrApply (%d,%v,%v) != (%d,%v,%v)", probeEvery, step, gs, gp, gm, ws, wp, wm)
			}
		case 5:
			for _, tb := range both {
				tb.addPrecursor(dst, netsim.NodeID(rng.Intn(4)))
			}
		}
		if step%probeEvery != 0 {
			continue
		}
		for dst := netsim.NodeID(0); dst < 12; dst++ {
			gn, gh, gok := dense.validNext(dst)
			wn, wh, wok := oracle.validNext(dst)
			if gn != wn || gh != wh || gok != wok {
				t.Fatalf("cadence %d step %d dst %d: dense (%d,%d,%v) != oracle (%d,%d,%v)",
					probeEvery, step, dst, gn, gh, gok, wn, wh, wok)
			}
			gs, gk, gok2 := dense.lastSeq(dst)
			ws, wk, wok2 := oracle.lastSeq(dst)
			if gs != ws || gk != wk || gok2 != wok2 {
				t.Fatalf("cadence %d step %d dst %d: lastSeq (%d,%v,%v) != (%d,%v,%v)",
					probeEvery, step, dst, gs, gk, gok2, ws, wk, wok2)
			}
			gh, gs, gk, ge, gok := dense.replyInfo(dst)
			wh, ws, wk, we, wok := oracle.replyInfo(dst)
			if gh != wh || gs != ws || gk != wk || ge != we || gok != wok {
				t.Fatalf("cadence %d step %d dst %d: replyInfo (%d,%d,%v,%v,%v) != (%d,%d,%v,%v,%v)",
					probeEvery, step, dst, gh, gs, gk, ge, gok, wh, ws, wk, we, wok)
			}
		}
	}
}
