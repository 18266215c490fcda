package dymo

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
// table tests and BenchmarkDYMOForward can drive either. As in aodv, it is
// a value contract at a package-internal call boundary — every answer is a
// plain value — so equal answers per call imply equal runs by induction
// over the router's calls, and TestTableLazyPurgeMatchesEager is the whole
// gate: no Config switch, no run-level identity test.
//
// Reading a valid-but-expired entry through validNext or refresh flips it
// to invalid on the spot; the periodic purge retires the rest. The flip
// timing is part of the contract (breakVia bumps sequence numbers only on
// still-valid entries).
type routeTable interface {
	// validNext reports the forwarding state of a live, unexpired route.
	validNext(dst netsim.NodeID) (next netsim.NodeID, hops int, ok bool)
	// lastSeq reports the stored sequence state for dst regardless of
	// route validity (RREQ target-seq seeding, RERR case ii).
	lastSeq(dst netsim.NodeID) (seq uint32, seqKnown bool, ok bool)
	// update installs or refreshes a route per the draft's rules; the
	// accepted entry's lifetime is reset to RouteTimeout from now.
	update(dst netsim.NodeID, seq uint32, seqKnown bool, hops int, next netsim.NodeID)
	// refresh extends a valid route's lifetime to RouteTimeout from now.
	refresh(dst netsim.NodeID)
	// breakVia invalidates every valid route whose next hop is the broken
	// neighbor, bumping each sequence number and appending the (dst,
	// bumped seq) pairs to buf.
	breakVia(neighbor netsim.NodeID, buf []AddrBlock) []AddrBlock
	// rerrApply processes one received RERR entry: matched when a valid
	// route to dst via from existed — it is flipped invalid without a seq
	// bump, adopting the reported seq when newer. seqOut is the entry's
	// sequence number after adoption.
	rerrApply(dst, from netsim.NodeID, seq uint32) (seqOut uint32, matched bool)
	// purgeExpired retires expired valid routes (periodic tick).
	purgeExpired()
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

// mapTable is the map-based reference: the original table, kept verbatim.
type mapTable struct {
	kernel  *sim.Kernel
	timeout sim.Time
	routes  map[netsim.NodeID]*route
}

var (
	_ routeTable = (*mapTable)(nil)
	_ routeTable = (*denseTable)(nil)
)

func newMapTable(k *sim.Kernel, timeout sim.Time) *mapTable {
	return &mapTable{kernel: k, timeout: timeout, routes: make(map[netsim.NodeID]*route)}
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

func (t *mapTable) validNext(dst netsim.NodeID) (netsim.NodeID, int, bool) {
	rt := t.validRoute(dst)
	if rt == nil {
		return 0, 0, false
	}
	return rt.nextHop, rt.hops, true
}

func (t *mapTable) lastSeq(dst netsim.NodeID) (uint32, bool, bool) {
	rt := t.routes[dst]
	if rt == nil {
		return 0, false, false
	}
	return rt.seq, rt.seqKnown, true
}

// update applies the draft's route-update rules (same sequence-number
// discipline as AODV, but an accepted update resets the lifetime instead
// of stretching it).
func (t *mapTable) update(dst netsim.NodeID, seq uint32, seqKnown bool, hops int, next netsim.NodeID) {
	now := t.kernel.Now()
	rt := t.routes[dst]
	if rt == nil {
		rt = &route{dst: dst}
		t.routes[dst] = rt
	} else if rt.valid && rt.seqKnown && seqKnown {
		newer := int32(seq-rt.seq) > 0
		sameShorter := seq == rt.seq && hops < rt.hops
		if !newer && !sameShorter {
			if now+t.timeout > rt.expiresAt {
				rt.expiresAt = now + t.timeout
			}
			return
		}
	}
	rt.seq = seq
	rt.seqKnown = seqKnown
	rt.hops = hops
	rt.nextHop = next
	rt.valid = true
	rt.expiresAt = now + t.timeout
}

func (t *mapTable) refresh(dst netsim.NodeID) {
	if rt := t.validRoute(dst); rt != nil {
		exp := t.kernel.Now() + t.timeout
		if exp > rt.expiresAt {
			rt.expiresAt = exp
		}
	}
}

// breakVia invalidates the valid routes through the broken neighbor. Map
// iteration order varies, but RERR entries are processed independently by
// every receiver and the wire size depends only on the count, so the order
// never reaches the results — the same argument that lets the dense path
// use insertion order.
func (t *mapTable) breakVia(neighbor netsim.NodeID, buf []AddrBlock) []AddrBlock {
	for _, rt := range t.routes {
		if rt.valid && rt.nextHop == neighbor {
			rt.valid = false
			rt.seq++
			buf = append(buf, AddrBlock{Addr: rt.dst, Seq: rt.seq})
		}
	}
	return buf
}

func (t *mapTable) rerrApply(dst, from netsim.NodeID, seq uint32) (uint32, bool) {
	rt := t.routes[dst]
	if rt == nil || !rt.valid || rt.nextHop != from {
		return 0, false
	}
	rt.valid = false
	if int32(seq-rt.seq) > 0 {
		rt.seq = seq
	}
	return rt.seq, true
}

// purgeExpired flips expired valid routes to invalid.
func (t *mapTable) purgeExpired() {
	now := t.kernel.Now()
	for _, rt := range t.routes {
		if rt.valid && now >= rt.expiresAt {
			rt.valid = false
		}
	}
}

// TestTableLazyPurgeMatchesEager drives the dense table and the map
// reference through the same random schedule of every table operation and
// checks that each call answers the same and the observable state stays
// identical — the dense path's epoch-stamped purge must behave exactly like
// the reference's eager scan at every query. Since the router holds a
// *denseTable and nothing selects the reference at run level, this is the
// whole gate for the table. The schedule runs at two read cadences: probing
// every destination after every step, and only every seventh step — a
// probe's validNext flips expired entries in both tables, which on the
// dense cadence hides whether the purge did.
func TestTableLazyPurgeMatchesEager(t *testing.T) {
	for _, probeEvery := range []int{1, 7} {
		tableDifferential(t, probeEvery)
	}
}

func tableDifferential(t *testing.T, probeEvery int) {
	k := sim.NewKernel()
	dense := newDenseTable(k, 2*sim.Second)
	oracle := newMapTable(k, 2*sim.Second)
	both := [...]routeTable{dense, oracle}
	sorted := func(u []AddrBlock) []AddrBlock {
		sort.Slice(u, func(i, j int) bool { return u[i].Addr < u[j].Addr })
		return u
	}

	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 2000; step++ {
		k.Schedule(k.Now()+sim.Time(rng.Int63n(int64(500*sim.Millisecond))), func() {})
		k.Run()
		dst := netsim.NodeID(rng.Intn(12))
		switch rng.Intn(5) {
		case 0:
			seq, hops := uint32(rng.Intn(8)), 1+rng.Intn(4)
			next := netsim.NodeID(rng.Intn(4))
			known := rng.Intn(8) > 0
			for _, tb := range both {
				tb.update(dst, seq, known, hops, next)
			}
		case 1:
			for _, tb := range both {
				tb.refresh(dst)
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
			gs, gm := dense.rerrApply(dst, from, seq)
			ws, wm := oracle.rerrApply(dst, from, seq)
			if gs != ws || gm != wm {
				t.Fatalf("cadence %d step %d: rerrApply (%d,%v) != (%d,%v)", probeEvery, step, gs, gm, ws, wm)
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
		}
	}
}
