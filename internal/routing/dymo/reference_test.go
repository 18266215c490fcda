package dymo

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// routeTable is the part of netsim.Routes (what Router holds) that DYMO
// uses, which the map reference below also satisfies; it exists only so
// the table tests and BenchmarkDYMOForward can drive either. As in aodv, it
// is a value contract at the router's call boundary — every answer is a
// plain value — so equal answers per call imply equal runs by induction
// over the router's calls, and TestTableLazyPurgeMatchesEager is the whole
// gate for DYMO's use of the table: no Config switch, no run-level
// identity test.
//
// Reading a valid-but-expired entry through Next or Refresh flips it to
// invalid on the spot; the periodic purge retires the rest. The flip
// timing is part of the contract (BreakVia bumps sequence numbers only on
// still-valid entries).
type routeTable interface {
	// Next reports the forwarding state of a live, unexpired route.
	Next(dst netsim.NodeID) (next netsim.NodeID, hops int, ok bool)
	// LastSeq reports the stored sequence state for dst regardless of
	// route validity (RREQ target-seq seeding, RERR case ii).
	LastSeq(dst netsim.NodeID) (seq uint32, seqKnown bool, ok bool)
	// Update installs or refreshes a route per the draft's rules; an
	// accepted entry's lifetime runs lifetime from now.
	Update(dst netsim.NodeID, seq uint32, seqKnown bool, hops int, next netsim.NodeID, lifetime sim.Time)
	// Refresh extends a valid route's lifetime to lifetime from now.
	Refresh(dst netsim.NodeID, lifetime sim.Time)
	// BreakVia invalidates every valid route whose next hop is the broken
	// neighbor, bumping each sequence number and appending the (dst,
	// bumped seq) pairs to buf.
	BreakVia(neighbor netsim.NodeID, buf []netsim.Unreachable) []netsim.Unreachable
	// RerrApply processes one received RERR entry: matched when a valid
	// route to dst via from existed — it is flipped invalid without a seq
	// bump, adopting the reported seq when newer. seqOut is the entry's
	// sequence number after adoption; DYMO keeps no precursors, so
	// propagate is always false.
	RerrApply(dst, from netsim.NodeID, seq uint32) (seqOut uint32, propagate, matched bool)
	// Purge retires expired valid routes (periodic tick).
	Purge()
}

// route is one entry of the map reference.
type route struct {
	dst       netsim.NodeID
	seq       uint32
	seqKnown  bool
	hops      int
	nextHop   netsim.NodeID
	expiresAt sim.Time
	valid     bool
}

// mapTable is the map-based reference: the original table, kept verbatim
// but for the lifetime, which it takes per call as netsim.Routes does, and
// for RFC 3561 §6.2's unknown-sequence-number clause, changed with it.
type mapTable struct {
	kernel *sim.Kernel
	routes map[netsim.NodeID]*route
}

var (
	_ routeTable = (*mapTable)(nil)
	_ routeTable = (*netsim.Routes)(nil)
)

func newMapTable(k *sim.Kernel) *mapTable {
	return &mapTable{kernel: k, routes: make(map[netsim.NodeID]*route)}
}

// validRoute returns a live, unexpired route to dst or nil, flipping an
// expired valid entry to invalid.
func (t *mapTable) validRoute(dst netsim.NodeID) *route {
	rt := t.routes[dst]
	if rt == nil || !rt.valid {
		return nil
	}
	if t.kernel.Now() >= rt.expiresAt {
		rt.valid = false
		return nil
	}
	return rt
}

func (t *mapTable) Next(dst netsim.NodeID) (netsim.NodeID, int, bool) {
	rt := t.validRoute(dst)
	if rt == nil {
		return 0, 0, false
	}
	return rt.nextHop, rt.hops, true
}

func (t *mapTable) LastSeq(dst netsim.NodeID) (uint32, bool, bool) {
	rt := t.routes[dst]
	if rt == nil {
		return 0, false, false
	}
	return rt.seq, rt.seqKnown, true
}

// Update applies the draft's route-update rules (same sequence-number
// discipline as AODV, but an accepted update resets the lifetime instead
// of stretching it). DYMO's lifetime is the constant routeTimeout, so every
// stored deadline is some earlier now′ + lifetime and the reset equals
// netsim.Routes's max; the differential passes one constant lifetime and
// so checks that lemma. Information without a sequence number is accepted
// but keeps an existing entry's sequence number and flag.
func (t *mapTable) Update(dst netsim.NodeID, seq uint32, seqKnown bool, hops int, next netsim.NodeID, lifetime sim.Time) {
	now := t.kernel.Now()
	rt := t.routes[dst]
	if rt == nil {
		rt = &route{dst: dst}
		t.routes[dst] = rt
	} else if !seqKnown {
		seq, seqKnown = rt.seq, rt.seqKnown
	} else if rt.valid && rt.seqKnown && seqKnown {
		newer := int32(seq-rt.seq) > 0
		sameShorter := seq == rt.seq && hops < rt.hops
		if !newer && !sameShorter {
			if now+lifetime > rt.expiresAt {
				rt.expiresAt = now + lifetime
			}
			return
		}
	}
	rt.seq = seq
	rt.seqKnown = seqKnown
	rt.hops = hops
	rt.nextHop = next
	rt.valid = true
	rt.expiresAt = now + lifetime
}

func (t *mapTable) Refresh(dst netsim.NodeID, lifetime sim.Time) {
	if rt := t.validRoute(dst); rt != nil {
		exp := t.kernel.Now() + lifetime
		if exp > rt.expiresAt {
			rt.expiresAt = exp
		}
	}
}

// BreakVia invalidates the valid routes through the broken neighbor. Map
// iteration order varies, but RERR entries are processed independently by
// every receiver and the wire size depends only on the count, so the order
// never reaches the results — the same argument that lets netsim.Routes
// use insertion order.
func (t *mapTable) BreakVia(neighbor netsim.NodeID, buf []netsim.Unreachable) []netsim.Unreachable {
	for _, rt := range t.routes {
		if rt.valid && rt.nextHop == neighbor {
			rt.valid = false
			rt.seq++
			buf = append(buf, netsim.Unreachable{Dst: rt.dst, Seq: rt.seq})
		}
	}
	return buf
}

func (t *mapTable) RerrApply(dst, from netsim.NodeID, seq uint32) (uint32, bool, bool) {
	rt := t.routes[dst]
	if rt == nil || !rt.valid || rt.nextHop != from {
		return 0, false, false
	}
	rt.valid = false
	if int32(seq-rt.seq) > 0 {
		rt.seq = seq
	}
	return rt.seq, false, true
}

// Purge flips expired valid routes to invalid.
func (t *mapTable) Purge() {
	now := t.kernel.Now()
	for _, rt := range t.routes {
		if rt.valid && now >= rt.expiresAt {
			rt.valid = false
		}
	}
}

// TestTableLazyPurgeMatchesEager drives netsim.Routes and the map
// reference through the same random schedule of every table operation DYMO
// uses and checks that each call answers the same and the observable state
// stays identical — the shared table's epoch-stamped purge must behave
// exactly like the reference's eager scan at every query, and its max
// lifetimes like the reference's reset under one constant lifetime. Since
// the router holds a *netsim.Routes and nothing selects the reference at
// run level, this is the whole gate for DYMO's use of the table. The
// schedule runs at two read cadences: probing every destination after
// every step, and only every seventh step — a probe's Next flips expired
// entries in both tables, which on the dense cadence hides whether the
// purge did.
func TestTableLazyPurgeMatchesEager(t *testing.T) {
	for _, probeEvery := range []int{1, 7} {
		tableDifferential(t, probeEvery)
	}
}

// tableDsts is how many destinations the differential draws from: enough
// for the entries to fill three pages of the shared table's storage, so an
// index that reaches the wrong page or offset shows.
const tableDsts = 40

func tableDifferential(t *testing.T, probeEvery int) {
	const timeout = 2 * sim.Second
	k := sim.NewKernel()
	shared := netsim.NewRoutes(k)
	oracle := newMapTable(k)
	both := [...]routeTable{shared, oracle}
	byDst := func(a, b netsim.Unreachable) int { return cmp.Compare(a.Dst, b.Dst) }

	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 2000; step++ {
		k.Schedule(k.Now()+sim.Time(rng.Int63n(int64(500*sim.Millisecond))), func() {})
		for k.Step() {
		}
		dst := netsim.NodeID(rng.Intn(tableDsts))
		switch rng.Intn(5) {
		case 0:
			seq, hops := uint32(rng.Intn(8)), 1+rng.Intn(4)
			next := netsim.NodeID(rng.Intn(4))
			known := rng.Intn(8) > 0
			for _, tb := range both {
				tb.Update(dst, seq, known, hops, next, timeout)
			}
		case 1:
			for _, tb := range both {
				tb.Refresh(dst, timeout)
			}
		case 2:
			for _, tb := range both {
				tb.Purge()
			}
		case 3:
			n := netsim.NodeID(rng.Intn(4))
			got, want := shared.BreakVia(n, nil), oracle.BreakVia(n, nil)
			slices.SortFunc(got, byDst)
			slices.SortFunc(want, byDst)
			if !slices.Equal(got, want) {
				t.Fatalf("cadence %d step %d: BreakVia %v != %v", probeEvery, step, got, want)
			}
		case 4:
			seq := uint32(rng.Intn(10))
			from := netsim.NodeID(rng.Intn(4))
			gs, gp, gm := shared.RerrApply(dst, from, seq)
			ws, wp, wm := oracle.RerrApply(dst, from, seq)
			if gs != ws || gp != wp || gm != wm {
				t.Fatalf("cadence %d step %d: RerrApply (%d,%v,%v) != (%d,%v,%v)", probeEvery, step, gs, gp, gm, ws, wp, wm)
			}
		}
		if step%probeEvery != 0 {
			continue
		}
		for dst := netsim.NodeID(0); dst < tableDsts; dst++ {
			gn, gh, gok := shared.Next(dst)
			wn, wh, wok := oracle.Next(dst)
			if gn != wn || gh != wh || gok != wok {
				t.Fatalf("cadence %d step %d dst %d: shared (%d,%d,%v) != oracle (%d,%d,%v)",
					probeEvery, step, dst, gn, gh, gok, wn, wh, wok)
			}
			gs, gk, gok2 := shared.LastSeq(dst)
			ws, wk, wok2 := oracle.LastSeq(dst)
			if gs != ws || gk != wk || gok2 != wok2 {
				t.Fatalf("cadence %d step %d dst %d: LastSeq (%d,%v,%v) != (%d,%v,%v)",
					probeEvery, step, dst, gs, gk, gok2, ws, wk, wok2)
			}
		}
	}
}
