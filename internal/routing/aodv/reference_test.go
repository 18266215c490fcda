package aodv

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// routeTable is the table contract netsim.Routes (what Router holds) and
// the map reference below both satisfy; it exists only so the table tests
// and BenchmarkAODVForward can drive either. The contract is a value
// contract at the router's call boundary — no method hands out a pointer
// into table storage, every answer is a plain value — so equal answers per
// call imply equal runs by induction over the router's calls, and
// TestTableLazyPurgeMatchesEager, TestTableZeroLifetimeAtPurge and
// FuzzTableMatchesReference are the whole gate: there is no Config switch
// and no run-level identity test (ROADMAP, "Oracles are test references").
//
// Several methods share a read side effect: reading a valid-but-expired
// entry flips it to invalid on the spot. The flip timing (on read, and at
// the periodic purge) is part of the contract — RERR contents depend on
// which entries are still state-valid.
type routeTable interface {
	// Next reports the forwarding state of a live, unexpired route to
	// dst.
	Next(dst netsim.NodeID) (next netsim.NodeID, hops int, ok bool)
	// ReplyInfo reports what an intermediate RREP answer needs from a
	// live route (RFC 3561 §6.6.2). Same flip side effect as Next.
	ReplyInfo(dst netsim.NodeID) (hops int, seq uint32, seqKnown bool, expiresAt sim.Time, ok bool)
	// LastSeq reports the stored sequence state for dst regardless of
	// route validity (RREQ destination-seq seeding, RERR case ii).
	LastSeq(dst netsim.NodeID) (seq uint32, seqKnown bool, ok bool)
	// Update installs or refreshes a route per RFC 3561 §6.2.
	Update(dst netsim.NodeID, seq uint32, seqKnown bool, hops int, next netsim.NodeID, lifetime sim.Time)
	// Refresh extends the lifetime of a valid route (data traffic keeps
	// active routes alive, RFC 3561 §6.2).
	Refresh(dst netsim.NodeID, lifetime sim.Time)
	// AddPrecursor marks dst's entry, when one exists, as having
	// precursors (the only precursor fact the protocol ever reads).
	AddPrecursor(dst, prev netsim.NodeID)
	// BreakVia invalidates every valid route whose next hop is the
	// broken neighbor, bumping each sequence number and appending the
	// (dst, bumped seq) pairs to buf (RFC 3561 §6.11 case i).
	BreakVia(neighbor netsim.NodeID, buf []netsim.Unreachable) []netsim.Unreachable
	// RerrApply processes one received RERR entry (§6.11): matched when
	// a valid route to dst via from existed — it is flipped invalid
	// without a seq bump, adopting the reported seq when newer — and
	// propagate when that route had precursors. seqOut is the entry's
	// sequence number after adoption.
	RerrApply(dst, from netsim.NodeID, seq uint32) (seqOut uint32, propagate, matched bool)
	// Purge retires expired valid routes (periodic tick).
	Purge()
}

// routeState distinguishes usable from recently-invalidated entries of
// the map reference.
type routeState int

const (
	routeValid routeState = iota + 1
	routeInvalid
)

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

// mapTable is the map-based reference: the original table, kept verbatim
// but for §6.2's unknown-sequence-number clause, changed with netsim.Routes.
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

func (t *mapTable) Next(dst netsim.NodeID) (netsim.NodeID, int, bool) {
	r := t.validRoute(dst)
	if r == nil {
		return 0, 0, false
	}
	return r.nextHop, r.hops, true
}

func (t *mapTable) ReplyInfo(dst netsim.NodeID) (int, uint32, bool, sim.Time, bool) {
	r := t.validRoute(dst)
	if r == nil {
		return 0, 0, false, 0, false
	}
	return r.hops, r.seq, r.seqKnown, r.expiresAt, true
}

func (t *mapTable) LastSeq(dst netsim.NodeID) (uint32, bool, bool) {
	r := t.routes[dst]
	if r == nil {
		return 0, false, false
	}
	return r.seq, r.seqKnown, true
}

// Update follows the RFC 3561 §6.2 rules: accept when the entry is new,
// the sequence number is newer, equal-seq with fewer hops, or the
// existing entry is invalid/unknown-seq. Information without a sequence
// number (case iii) is accepted but keeps an existing entry's sequence
// number and flag.
func (t *mapTable) Update(dst netsim.NodeID, seq uint32, seqKnown bool, hops int, next netsim.NodeID, lifetime sim.Time) {
	now := t.kernel.Now()
	r := t.routes[dst]
	if r == nil {
		r = &route{dst: dst}
		t.routes[dst] = r
	} else if !seqKnown {
		seq, seqKnown = r.seq, r.seqKnown
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

func (t *mapTable) Refresh(dst netsim.NodeID, lifetime sim.Time) {
	if r := t.validRoute(dst); r != nil {
		exp := t.kernel.Now() + lifetime
		if exp > r.expiresAt {
			r.expiresAt = exp
		}
	}
}

func (t *mapTable) AddPrecursor(dst, prev netsim.NodeID) {
	if r := t.routes[dst]; r != nil {
		r.addPrecursor(prev)
	}
}

// BreakVia invalidates the valid routes through the broken neighbor,
// bumping each sequence number so stale information cannot resurrect
// them (RFC 3561 §6.11). Map iteration order varies, but RERR entries
// are processed independently by every receiver and the wire size
// depends only on the count, so the order never reaches the results —
// the same argument that lets netsim.Routes use insertion order.
func (t *mapTable) BreakVia(next netsim.NodeID, buf []netsim.Unreachable) []netsim.Unreachable {
	for _, r := range t.routes {
		if r.state == routeValid && r.nextHop == next {
			r.state = routeInvalid
			r.seq++
			buf = append(buf, netsim.Unreachable{Dst: r.dst, Seq: r.seq})
		}
	}
	return buf
}

func (t *mapTable) RerrApply(dst, from netsim.NodeID, seq uint32) (uint32, bool, bool) {
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

// Purge flips expired valid routes to invalid.
func (t *mapTable) Purge() {
	now := t.kernel.Now()
	for _, r := range t.routes {
		if r.state == routeValid && now >= r.expiresAt {
			r.state = routeInvalid
		}
	}
}

// TestTableLazyPurgeMatchesEager drives netsim.Routes and the map
// reference through the same random schedule of every table operation and
// checks that each call answers the same and the observable state stays
// identical — the shared table's epoch-stamped purge must flip exactly the
// entries the reference's eager scan flips, at the same tick. Since the
// router holds a *netsim.Routes and nothing selects the reference at run
// level, this is (with the zero-lifetime case and the fuzz target below)
// the whole gate for the table, so it covers every method of the contract.
// Lifetimes include 0, as an intermediate RREP's can, and a quarter of the
// steps let no time pass, so several operations land at one instant. The
// schedule runs at two read cadences: probing every destination after every
// step, and only every seventh step — a probe's Next flips expired entries
// in both tables, which on the dense cadence hides whether the purge did.
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
	k := sim.NewKernel()
	shared := netsim.NewRoutes(k)
	oracle := newMapTable(k)
	both := [...]routeTable{shared, oracle}

	rng := rand.New(rand.NewSource(42))
	for step := 0; step < 2000; step++ {
		if rng.Intn(4) > 0 {
			k.Schedule(k.Now()+sim.Time(rng.Int63n(int64(200*sim.Millisecond))), func() {})
			for k.Step() {
			}
		}
		at := fmt.Sprintf("cadence %d step %d", probeEvery, step)
		dst := netsim.NodeID(rng.Intn(tableDsts))
		switch rng.Intn(6) {
		case 0:
			seq, hops := uint32(rng.Intn(8)), 1+rng.Intn(4)
			next := netsim.NodeID(rng.Intn(4))
			life := sim.Time(rng.Intn(4)) * sim.Second
			known := rng.Intn(8) > 0
			for _, tb := range both {
				tb.Update(dst, seq, known, hops, next, life)
			}
		case 1:
			life := sim.Time(rng.Intn(2)) * sim.Second
			for _, tb := range both {
				tb.Refresh(dst, life)
			}
		case 2:
			for _, tb := range both {
				tb.Purge()
			}
		case 3:
			sameBreakVia(t, at, shared, oracle, netsim.NodeID(rng.Intn(4)))
		case 4:
			sameRerrApply(t, at, shared, oracle, dst, netsim.NodeID(rng.Intn(4)), uint32(rng.Intn(10)))
		case 5:
			for _, tb := range both {
				tb.AddPrecursor(dst, netsim.NodeID(rng.Intn(4)))
			}
		}
		if step%probeEvery != 0 {
			continue
		}
		for dst := netsim.NodeID(0); dst < tableDsts; dst++ {
			sameEntry(t, at, shared, oracle, dst)
		}
	}
}

// TestTableZeroLifetimeAtPurge pins the write guard of the shared table's
// lazy purge: a route accepted with lifetime 0 at the instant of a purge
// has expiresAt = lastPurge, but the eager purge ran before it and left it
// valid, so BreakVia, RerrApply and a keep-branch Update at that instant
// must all still see a valid route. Next would flip it (now ≥ expiresAt),
// so nothing reads the entry before the operation under test.
func TestTableZeroLifetimeAtPurge(t *testing.T) {
	for _, op := range []string{"BreakVia", "RerrApply", "keep-branch Update"} {
		k := sim.NewKernel()
		shared, oracle := netsim.NewRoutes(k), newMapTable(k)
		k.Schedule(sim.Second, func() {})
		for k.Step() {
		}
		for _, tb := range [...]routeTable{shared, oracle} {
			tb.Purge()
			tb.Update(3, 1, true, 2, 7, 0)
		}
		switch op {
		case "BreakVia":
			sameBreakVia(t, op, shared, oracle, 7)
		case "RerrApply":
			sameRerrApply(t, op, shared, oracle, 3, 7, 5)
		default:
			// Same seq, not shorter: the reference keeps next hop 7 and
			// stretches the lifetime.
			for _, tb := range [...]routeTable{shared, oracle} {
				tb.Update(3, 1, true, 3, 8, sim.Second)
			}
		}
		sameEntry(t, op, shared, oracle, 3)
	}
}

// FuzzTableMatchesReference drives netsim.Routes and the map reference in
// lockstep through a byte script of three-byte ops (what, a, b), with the
// same checks as TestTableLazyPurgeMatchesEager. Time moves only on op 6,
// so every other op lands at the instant of the one before it.
//
//	op%8: 0 Update(dst a%12, seq b%8, hops 1+b>>3%4, next b>>5%4,
//	        lifetime a>>4%4 × 500 ms, seq unknown when op ≥ 0x80)
//	      1 Refresh(dst a%12, lifetime a>>4%4 × 500 ms) · 2 Purge
//	      3 BreakVia(a%4) · 4 RerrApply(dst a%12, from b%4, seq b>>2%16)
//	      5 AddPrecursor(a%12, b%4) · 6 advance a × (1 ns, 1 ms, 100 ms,
//	        1 s)[b%4] · 7 compare every destination
//
// The selector stays op%8 for good: a new op takes a high-bit variant of an
// existing one, so every earlier seed keeps its meaning.
func FuzzTableMatchesReference(f *testing.F) {
	// TestTableZeroLifetimeAtPurge's BreakVia case: advance 1 s, purge,
	// Update(3, seq 1, hops 2, next 3, lifetime 0), BreakVia(3), compare.
	f.Add([]byte{6, 1, 3, 2, 0, 0, 0, 3, 105, 3, 3, 0, 7, 0, 0})
	// A route learnt (dst 1 via 2, 1 s), refreshed at 0.6 s, purged at its
	// 1.6 s deadline and relearnt with lifetime 0 at that instant, then
	// broken: BreakVia(2) must report it.
	f.Add([]byte{0, 0x25, 0x4d, 6, 6, 2, 1, 0x25, 0, 6, 1, 3, 2, 0, 0, 0, 1, 0x4d, 3, 2, 0, 7, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		k := sim.NewKernel()
		shared, oracle := netsim.NewRoutes(k), newMapTable(k)
		both := [...]routeTable{shared, oracle}
		units := [4]sim.Time{sim.Nanosecond, sim.Millisecond, 100 * sim.Millisecond, sim.Second}
		for i := 0; i+3 <= len(script) && i < 3*512; i += 3 {
			op, a, b := script[i], script[i+1], script[i+2]
			at := fmt.Sprintf("op %d at %v", i/3, k.Now())
			dst := netsim.NodeID(a % 12)
			life := sim.Time(a>>4%4) * 500 * sim.Millisecond
			switch op % 8 {
			case 0:
				for _, tb := range both {
					tb.Update(dst, uint32(b%8), op < 0x80, 1+int(b>>3%4), netsim.NodeID(b>>5%4), life)
				}
			case 1:
				for _, tb := range both {
					tb.Refresh(dst, life)
				}
			case 2:
				for _, tb := range both {
					tb.Purge()
				}
			case 3:
				sameBreakVia(t, at, shared, oracle, netsim.NodeID(a%4))
			case 4:
				sameRerrApply(t, at, shared, oracle, dst, netsim.NodeID(b%4), uint32(b>>2%16))
			case 5:
				for _, tb := range both {
					tb.AddPrecursor(dst, netsim.NodeID(b%4))
				}
			case 6:
				k.Schedule(k.Now()+sim.Time(a)*units[b%4], func() {})
				for k.Step() {
				}
			case 7:
				for dst := netsim.NodeID(0); dst < 12; dst++ {
					sameEntry(t, at, shared, oracle, dst)
				}
			}
		}
		for dst := netsim.NodeID(0); dst < 12; dst++ {
			sameEntry(t, "end", shared, oracle, dst)
		}
	})
}

// sameBreakVia runs BreakVia(n) on both tables and fails unless they
// invalidate the same (dst, seq) pairs, in any order.
func sameBreakVia(t *testing.T, at string, got, want routeTable, n netsim.NodeID) {
	t.Helper()
	byDst := func(a, b netsim.Unreachable) int { return cmp.Compare(a.Dst, b.Dst) }
	g, w := got.BreakVia(n, nil), want.BreakVia(n, nil)
	slices.SortFunc(g, byDst)
	slices.SortFunc(w, byDst)
	if !slices.Equal(g, w) {
		t.Fatalf("%s: BreakVia(%d) %v != %v", at, n, g, w)
	}
}

// sameRerrApply runs RerrApply on both tables and compares the answers.
func sameRerrApply(t *testing.T, at string, got, want routeTable, dst, from netsim.NodeID, seq uint32) {
	t.Helper()
	gs, gp, gm := got.RerrApply(dst, from, seq)
	ws, wp, wm := want.RerrApply(dst, from, seq)
	if gs != ws || gp != wp || gm != wm {
		t.Fatalf("%s: RerrApply(%d, %d, %d) (%d,%v,%v) != (%d,%v,%v)", at, dst, from, seq, gs, gp, gm, ws, wp, wm)
	}
}

// sameEntry compares every read of dst's entry: Next, LastSeq and
// ReplyInfo (the first flips an expired entry in both tables).
func sameEntry(t *testing.T, at string, got, want routeTable, dst netsim.NodeID) {
	t.Helper()
	gn, gh, gok := got.Next(dst)
	wn, wh, wok := want.Next(dst)
	if gn != wn || gh != wh || gok != wok {
		t.Fatalf("%s dst %d: Next (%d,%d,%v) != oracle (%d,%d,%v)", at, dst, gn, gh, gok, wn, wh, wok)
	}
	gs, gk, gok := got.LastSeq(dst)
	ws, wk, wok := want.LastSeq(dst)
	if gs != ws || gk != wk || gok != wok {
		t.Fatalf("%s dst %d: LastSeq (%d,%v,%v) != (%d,%v,%v)", at, dst, gs, gk, gok, ws, wk, wok)
	}
	gh, gs, gk, ge, gok := got.ReplyInfo(dst)
	wh, ws, wk, we, wok := want.ReplyInfo(dst)
	if gh != wh || gs != ws || gk != wk || ge != we || gok != wok {
		t.Fatalf("%s dst %d: ReplyInfo (%d,%d,%v,%v,%v) != (%d,%d,%v,%v,%v)", at, dst, gh, gs, gk, ge, gok, wh, ws, wk, we, wok)
	}
}
