package olsr

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// refTwoHop is the 2-hop set as it was kept before the merge and the
// expiry list: upsertTwoHop scans the neighbor's edge list from the start
// once for every advertised link, and a lazy ExpiryHeap, pushed once per
// new tuple and re-registered when a surfaced tuple turns out refreshed,
// retires tuples. It interns through its own router, so the index each
// side gives a node is compared too.
type refTwoHop struct {
	r   *Router // only its interner and slot ids are used
	of  [][]refEdge
	n   int
	exp sim.ExpiryHeap[[2]int32]
}

type refEdge struct {
	th    int32
	until sim.Time
}

func (ref *refTwoHop) intern(id netsim.NodeID) int32 {
	i := ref.r.intern(id)
	for int(i) >= len(ref.of) {
		ref.of = append(ref.of, nil)
	}
	return i
}

// hello is handleHello's 2-hop block as it was: one upsert per symmetric
// link to a node other than me.
func (ref *refTwoHop) hello(fi int32, me netsim.NodeID, links []HelloLink, now sim.Time) bool {
	material := false
	for _, hl := range links {
		if hl.Neighbor == me {
			continue
		}
		if hl.Code == LinkSym || hl.Code == LinkMPR {
			if ref.upsertTwoHop(fi, hl.Neighbor, now+neighborHold, now) {
				material = true
			}
		}
	}
	return material
}

// upsertTwoHop installs or refreshes the 2-hop tuple (nbr → th), keeping
// the neighbor's edge list sorted by 2-hop NodeID. It reports whether the
// edge is new or was revived from soft expiry.
func (ref *refTwoHop) upsertTwoHop(fi int32, th netsim.NodeID, until, now sim.Time) bool {
	ti := ref.intern(th)
	edges := ref.of[fi]
	pos := len(edges)
	for j := range edges {
		if edges[j].th == ti {
			material := edges[j].until <= now
			edges[j].until = until
			return material
		}
		if ref.r.slot(edges[j].th).id > th {
			pos = j
			break
		}
	}
	edges = append(edges, refEdge{})
	copy(edges[pos+1:], edges[pos:])
	edges[pos] = refEdge{th: ti, until: until}
	ref.of[fi] = edges
	ref.n++
	ref.exp.Push([2]int32{fi, ti}, until)
	return true
}

// expire is purge's 2-hop step as it was.
func (ref *refTwoHop) expire(now sim.Time) bool {
	material := false
	ref.exp.Expire(now, func(key [2]int32) (sim.Time, bool) {
		for _, e := range ref.of[key[0]] {
			if e.th == key[1] {
				return e.until, e.until > now
			}
		}
		return 0, false
	}, func(key [2]int32) {
		edges := ref.of[key[0]]
		for j := range edges {
			if edges[j].th == key[1] {
				ref.of[key[0]] = append(edges[:j], edges[j+1:]...)
				ref.n--
				break
			}
		}
		material = true
	})
	return material
}

// newTableRouter is a router with only what the 2-hop, topology and
// duplicate sets need: its interner and tables, no node.
func newTableRouter() *Router {
	return &Router{twoHopExp: sim.NewHoldList[twoHopTuple](), topoExp: sim.NewHoldList[topoTuple](), dups: sim.NewHoldList[dupTuple]()}
}

// byteStream hands out a fuzz input's bytes, then zeros.
type byteStream []byte

func (b *byteStream) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// runTwoHopDifferential decodes data into a stream of HELLOs and purges
// and drives the router's 2-hop set (mergeTwoHop, expireTwoHop) and the
// reference through it side by side. HELLOs come from up to 7 neighbors
// (node 0 is me) and advertise links to nodes 0..11 in ascending order, in
// any order, or with repeats, with every link code; time moves in
// sub-second steps, and some purges fall exactly on a deadline. After
// every step both sides must agree on every index, edge list, deadline,
// tuple count and material flag, and each neighbor's chain must hold its
// edges in the reference's order, each tuple naming that neighbor.
func runTwoHopDifferential(t *testing.T, data []byte) {
	in := byteStream(data)
	const me = netsim.NodeID(0)
	got, want := newTableRouter(), &refTwoHop{r: newTableRouter()}
	got.intern(me)
	want.intern(me)
	now := sim.Time(0)
	var heard []sim.Time // instants HELLOs were handled at
	codes := []LinkCode{LinkSym, LinkMPR, LinkAsym, LinkLost}
	for step := 0; len(in) > 0; step++ {
		var gm, wm bool
		op := "hello"
		switch c := in.next(); {
		case c < 160:
			from := netsim.NodeID(1 + c%7)
			fi, ri := got.intern(from), want.intern(from)
			if fi != ri {
				t.Fatalf("step %d: sender %d interned at %d, reference %d", step, from, fi, ri)
			}
			links := make([]HelloLink, 0, 12)
			mask := in.next()<<4 | in.next()
			for id := 0; id < 12; id++ {
				if mask>>id&1 == 1 {
					links = append(links, HelloLink{Neighbor: netsim.NodeID(id), Code: codes[in.next()%len(codes)]})
				}
			}
			switch shape := in.next() % 4; {
			case shape == 1 && len(links) > 1: // any order
				for i := len(links) - 1; i > 0; i-- {
					j := in.next() % (i + 1)
					links[i], links[j] = links[j], links[i]
				}
			case shape == 2 && len(links) > 0: // a repeated link, maybe with another code
				dup := links[in.next()%len(links)]
				dup.Code = codes[in.next()%len(codes)]
				links = slices.Insert(links, in.next()%(len(links)+1), dup)
			}
			gm = got.mergeTwoHop(fi, me, links, now)
			wm = want.hello(ri, me, links, now)
			heard = append(heard, now)
		case c < 224:
			now += sim.Time(1+in.next()) * 10 * sim.Millisecond
			continue
		default:
			op = "purge"
			if len(heard) > 0 && c%2 == 0 {
				// Exactly at a deadline written earlier, if not yet past.
				if at := heard[in.next()%len(heard)] + neighborHold; at > now {
					now = at
				}
			}
			gm, wm = got.expireTwoHop(now), want.expire(now)
		}
		if gm != wm {
			t.Fatalf("step %d (%s at t=%v): material %v, reference %v", step, op, now, gm, wm)
		}
		compareTwoHop(t, step, now, got, want)
	}
}

func compareTwoHop(t *testing.T, step int, now sim.Time, got *Router, want *refTwoHop) {
	t.Helper()
	compareIDs(t, step, now, got, want.r)
	if got.twoHopN != want.n {
		t.Fatalf("step %d t=%v: twoHopN %d, reference %d", step, now, got.twoHopN, want.n)
	}
	for fi := range want.of {
		ref := want.of[fi]
		j := 0
		for i := got.slot(int32(fi)).twoHop; i != noTuple; i = got.twoHopExp.At(i).next {
			e := got.twoHopExp.At(i)
			if j == len(ref) {
				t.Fatalf("step %d t=%v: neighbor %d has more than the reference's %d 2-hop tuples", step, now, got.slot(int32(fi)).id, len(ref))
			}
			if e.nb != int32(fi) || e.th != ref[j].th || e.until != ref[j].until || netsim.NodeID(e.thID) != got.slot(e.th).id {
				t.Fatalf("step %d t=%v: neighbor %d tuple %d is (%d → %d, %v), reference (%d, %v)",
					step, now, got.slot(int32(fi)).id, j, got.slot(e.nb).id, got.slot(e.th).id, e.until, got.slot(ref[j].th).id, ref[j].until)
			}
			j++
		}
		if j != len(ref) {
			t.Fatalf("step %d t=%v: neighbor %d has %d 2-hop tuples, reference %d", step, now, got.slot(int32(fi)).id, j, len(ref))
		}
	}
}

// compareIDs requires both routers to have interned the same ids in the
// same order.
func compareIDs(t *testing.T, step int, now sim.Time, got, want *Router) {
	t.Helper()
	if got.slots.Len() != want.slots.Len() {
		t.Fatalf("step %d t=%v: %d ids interned, reference %d", step, now, got.slots.Len(), want.slots.Len())
	}
	for i := int32(0); i < got.slots.Len(); i++ {
		if g, w := got.slot(i).id, want.slot(i).id; g != w {
			t.Fatalf("step %d t=%v: index %d is id %d, reference %d", step, now, i, g, w)
		}
	}
}

// TestTwoHopMatchesReference runs the differential on random streams.
func TestTwoHopMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		data := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(data)
		runTwoHopDifferential(t, data)
	}
}

func FuzzTwoHopMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 300)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(runTwoHopDifferential)
}

// refTopology is the topology set as it was kept before the chains: a
// slice of edges per originator, scanned once per advertised dest, and a
// lazy ExpiryHeap holding each originator with edges once, at the earliest
// deadline it had when it was pushed or last surfaced. It interns through
// its own router, so the index each side gives a node is compared too.
type refTopology struct {
	r      *Router // only its interner and slot ids are used
	etx    bool
	of     [][]refTopoEdge
	inHeap []bool
	n      int
	exp    sim.ExpiryHeap[int32]
}

type refTopoEdge struct {
	dest   int32
	ansn   uint16
	until  sim.Time
	linkLQ float64
}

func (ref *refTopology) intern(id netsim.NodeID) int32 {
	i := ref.r.intern(id)
	for int(i) >= len(ref.of) {
		ref.of = append(ref.of, nil)
		ref.inHeap = append(ref.inHeap, false)
	}
	return i
}

// tc is processTC as it was.
func (ref *refTopology) tc(msg *TC, now sim.Time) bool {
	oi := ref.intern(msg.Origin)
	edges := ref.of[oi]
	for _, e := range edges {
		if e.until > now && int16(e.ansn-msg.ANSN) > 0 {
			return false
		}
	}
	material := false
	kept := edges[:0]
	for _, e := range edges {
		if int16(msg.ANSN-e.ansn) > 0 {
			ref.n--
			material = true
			continue
		}
		kept = append(kept, e)
	}
	edges = kept
	for i, dest := range msg.Advertised {
		di := ref.intern(dest)
		var lq float64
		if msg.LQs != nil {
			lq = msg.LQs[i]
		}
		found := false
		for j := range edges {
			if edges[j].dest != di {
				continue
			}
			if edges[j].until <= now {
				material = true
			}
			if ref.etx && edges[j].linkLQ != lq {
				material = true
			}
			edges[j].ansn = msg.ANSN
			edges[j].until = now + topologyHold
			edges[j].linkLQ = lq
			found = true
			break
		}
		if !found {
			edges = append(edges, refTopoEdge{dest: di, ansn: msg.ANSN, until: now + topologyHold, linkLQ: lq})
			ref.n++
			material = true
		}
	}
	ref.of[oi] = edges
	if len(edges) > 0 && !ref.inHeap[oi] {
		ref.inHeap[oi] = true
		ref.exp.Push(oi, refMinUntil(edges))
	}
	return material
}

func refMinUntil(edges []refTopoEdge) sim.Time {
	min := edges[0].until
	for _, e := range edges[1:] {
		if e.until < min {
			min = e.until
		}
	}
	return min
}

// expire is purge's topology step as it was.
func (ref *refTopology) expire(now sim.Time) bool {
	material := false
	ref.exp.Expire(now, func(oi int32) (sim.Time, bool) {
		edges := ref.of[oi]
		kept := edges[:0]
		for _, e := range edges {
			if e.until > now {
				kept = append(kept, e)
			} else {
				ref.n--
				material = true
			}
		}
		ref.of[oi] = kept
		if len(kept) == 0 {
			return 0, false
		}
		return refMinUntil(kept), true
	}, func(oi int32) {
		ref.inHeap[oi] = false
	})
	return material
}

// runTopologyDifferential decodes data into a stream of TCs, clock moves
// and purges and drives the router's topology set (processTC,
// expireTopology) and the reference through it side by side. The first
// byte's low bit turns ETX on. TCs come from up to 5 originators and
// advertise nodes 0..11 in ascending order, in any order, or with
// repeats; each ANSN repeats the originator's last, steps by one either
// way, jumps ahead, jumps by about half the sequence space (wrapped
// comparisons), or is any value. Time moves in steps of up to 2.5 s, and
// some purges fall exactly on a deadline. After every step both sides must
// agree on every index, on each originator's tuples as a set (a chain's
// order is free; the reference keeps arrival order), on every tuple's
// ANSN, deadline and link quality, soft-expired tuples included, on the
// tuple count and on every material flag; each chain must be sorted by
// dest NodeID and each tuple name its originator.
func runTopologyDifferential(t *testing.T, data []byte) {
	in := byteStream(data)
	etx := in.next()&1 != 0
	got := newTableRouter()
	got.cfg.ETX = etx
	want := &refTopology{r: newTableRouter(), etx: etx}
	got.intern(0)
	want.intern(0)
	now := sim.Time(0)
	var last [6]uint16 // per originator, the last ANSN sent
	var heard []sim.Time
	for step := 0; len(in) > 0; step++ {
		var gm, wm bool
		op := "tc"
		switch c := in.next(); {
		case c < 150:
			origin := netsim.NodeID(1 + c%5)
			ansn := last[origin]
			switch mode := in.next() % 8; mode {
			case 1:
				ansn++
			case 2:
				ansn--
			case 3:
				ansn += uint16(2 + in.next())
			case 4:
				ansn += 1<<15 - 2 + uint16(in.next()%5)
			case 5:
				ansn = uint16(in.next()<<8 | in.next())
			}
			last[origin] = ansn
			msg := &TC{Origin: origin, ANSN: ansn}
			mask := in.next()<<4 | in.next()
			for id := 0; id < 12; id++ {
				if mask>>id&1 == 1 {
					msg.Advertised = append(msg.Advertised, netsim.NodeID(id))
				}
			}
			switch shape := in.next() % 4; {
			case shape == 1 && len(msg.Advertised) > 1: // any order
				for i := len(msg.Advertised) - 1; i > 0; i-- {
					j := in.next() % (i + 1)
					msg.Advertised[i], msg.Advertised[j] = msg.Advertised[j], msg.Advertised[i]
				}
			case shape == 2 && len(msg.Advertised) > 0: // a repeated dest
				dup := msg.Advertised[in.next()%len(msg.Advertised)]
				msg.Advertised = slices.Insert(msg.Advertised, in.next()%(len(msg.Advertised)+1), dup)
			}
			if etx {
				for range msg.Advertised {
					msg.LQs = append(msg.LQs, float64(1+in.next()%3)/4)
				}
			}
			gm, wm = got.processTC(msg, now), want.tc(msg, now)
			heard = append(heard, now)
		case c < 224:
			now += sim.Time(1+in.next()) * 10 * sim.Millisecond
			continue
		default:
			op = "purge"
			if len(heard) > 0 && c%2 == 0 {
				// Exactly at a deadline written earlier, if not yet past.
				if at := heard[in.next()%len(heard)] + topologyHold; at > now {
					now = at
				}
			}
			gm, wm = got.expireTopology(now), want.expire(now)
		}
		if gm != wm {
			t.Fatalf("step %d (%s at t=%v): material %v, reference %v", step, op, now, gm, wm)
		}
		compareTopology(t, step, now, got, want)
	}
}

func compareTopology(t *testing.T, step int, now sim.Time, got *Router, want *refTopology) {
	t.Helper()
	compareIDs(t, step, now, got, want.r)
	if got.topoN != want.n {
		t.Fatalf("step %d t=%v: topoN %d, reference %d", step, now, got.topoN, want.n)
	}
	for oi := range want.of {
		origin := got.slot(int32(oi)).id
		ref := make(map[int32]refTopoEdge)
		for _, e := range want.of[oi] {
			ref[e.dest] = e
		}
		n, prev := 0, netsim.NodeID(-1)
		for i := got.slot(int32(oi)).topo; i != noTuple; i = got.topoExp.At(i).next {
			e := got.topoExp.At(i)
			dest := got.slot(e.dest).id
			if e.origin != int32(oi) || dest <= prev {
				t.Fatalf("step %d t=%v: originator %d's chain holds (%d → %d) after dest %d",
					step, now, origin, got.slot(e.origin).id, dest, prev)
			}
			prev = dest
			w, ok := ref[e.dest]
			if !ok || w.ansn != e.ansn || w.until != e.until || w.linkLQ != e.linkLQ {
				t.Fatalf("step %d t=%v: tuple (%d → %d) is ansn %d until %v lq %v; reference %+v (present %v)",
					step, now, origin, dest, e.ansn, e.until, e.linkLQ, w, ok)
			}
			n++
		}
		if n != len(ref) {
			t.Fatalf("step %d t=%v: originator %d has %d topology tuples, reference %d", step, now, origin, n, len(ref))
		}
	}
}

// TestTopologyMatchesReference runs the differential on random streams.
func TestTopologyMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		data := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(data)
		runTopologyDifferential(t, data)
	}
}

func FuzzTopologyMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 300)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	// Wrapped ANSNs: originator 1 advertises {2} at 0 and {3} at 32 768
	// (neither older than the other); a TC at 16 384 then finds {2} older
	// and {3} newer and live, and must change nothing.
	f.Add([]byte{0, 0, 0, 0, 4, 0, 0, 4, 2, 0, 8, 0, 5, 5, 0x40, 0, 0, 2, 0, 255})
	f.Fuzz(runTopologyDifferential)
}

// TestTablePageSizes pins the four paged tables a router grows on 64-bit:
// a page of 16 slots, 16 2-hop items, 16 topology items or 16 duplicate
// items each fills a Go size class (2 048, 512, 640 and 512 B), so a new
// page wastes nothing, and a slot is two cache lines, of which the kernels
// read the first.
func TestTablePageSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the sizes are pinned on 64-bit")
	}
	page := func(pages reflect.Type) reflect.Type {
		t.Helper()
		f, ok := pages.FieldByName("pages")
		if !ok || f.Type.Kind() != reflect.Slice || f.Type.Elem().Kind() != reflect.Pointer {
			t.Fatalf("%v does not store a slice of page pointers", pages)
		}
		return f.Type.Elem().Elem()
	}
	items := func(list reflect.Type) reflect.Type {
		t.Helper()
		f, ok := list.FieldByName("items")
		if !ok {
			t.Fatalf("%v keeps no items", list)
		}
		return page(f.Type)
	}
	for _, c := range []struct {
		what string
		page reflect.Type
		size uintptr
	}{
		{"slot", page(reflect.TypeOf(sim.Pages[slot]{})), 2048},
		{"2-hop item", items(reflect.TypeOf(sim.HoldList[twoHopTuple]{})), 512},
		{"topology item", items(reflect.TypeOf(sim.HoldList[topoTuple]{})), 640},
		{"duplicate item", items(reflect.TypeOf(sim.HoldList[dupTuple]{})), 512},
	} {
		if c.page.Len() != 16 || c.page.Size() != c.size {
			t.Errorf("a %s page holds %d in %d B, want 16 in %d", c.what, c.page.Len(), c.page.Size(), c.size)
		}
	}
}

// TestTupleRefreshAllocFree: once a router holds its 2-hop and topology
// tuples, a HELLO that only refreshes them and a TC that repeats its ANSN
// allocate nothing — the tuples are list items, not slice elements.
func TestTupleRefreshAllocFree(t *testing.T) {
	r := newTableRouter()
	const me = netsim.NodeID(0)
	r.intern(me)
	fi := r.intern(1)
	var links []HelloLink
	for id := netsim.NodeID(2); id < 40; id++ {
		links = append(links, HelloLink{Neighbor: id, Code: LinkSym})
	}
	tc := &TC{Origin: 5, ANSN: 7}
	for id := netsim.NodeID(6); id < 40; id += 2 {
		tc.Advertised = append(tc.Advertised, id)
	}
	now := sim.Time(0)
	r.mergeTwoHop(fi, me, links, now)
	r.processTC(tc, now)
	if allocs := testing.AllocsPerRun(100, func() {
		now += sim.Millisecond
		if r.mergeTwoHop(fi, me, links, now) || r.processTC(tc, now) {
			t.Fatal("a refresh of live tuples reported a material change")
		}
	}); allocs != 0 {
		t.Fatalf("a refresh-only HELLO and TC allocate %.1f times, want 0", allocs)
	}
	if r.twoHopN != len(links) || r.topoN != len(tc.Advertised) {
		t.Fatalf("%d 2-hop and %d topology tuples, want %d and %d", r.twoHopN, r.topoN, len(links), len(tc.Advertised))
	}
}

// dupKey names a message in the reference duplicate set.
type dupKey struct {
	origin netsim.NodeID
	seq    uint16
}

// runDupsDifferential decodes data into a stream of received messages,
// probes and purges, and drives the router's duplicate set (isDup,
// recordDup, expireDups) and the FIFO set it replaced, sim.ExpiringSet,
// side by side. A message is looked up and, when both sides call it new,
// recorded, as handleTC and handleHNA do; a probe only looks up, also for
// originators never heard. Each originator's sequence number repeats,
// steps by one either way (wrapping at 0 and 65 535), jumps, returns to
// an earlier value or is any value. Time moves in steps of up to 12.8 s
// against the 30-s hold, and some purges fall exactly on a deadline.
// Every lookup must agree, and after every step dupN must equal the
// reference's Len, every tuple must be a live reference key, and each
// originator's chain must run from its slot's dup to its dupTail in
// deadline order, each tuple naming its originator.
func runDupsDifferential(t *testing.T, data []byte) {
	in := byteStream(data)
	got := newTableRouter()
	want := sim.NewExpiringSet[dupKey](dupHold)
	now := sim.Time(0)
	var last [7]uint16 // per originator, the last sequence number
	var heard []sim.Time
	for step := 0; len(in) > 0; step++ {
		op := "message"
		switch c := in.next(); {
		case c < 140:
			origin := netsim.NodeID(1 + c%6)
			seq := last[origin]
			switch mode := in.next() % 8; mode {
			case 1, 2:
				seq++
			case 3:
				seq--
			case 4:
				seq += uint16(2 + in.next())
			case 5:
				seq = uint16(0xfffe + in.next()%4) // around the wrap
			case 6:
				seq = uint16(in.next()<<8 | in.next())
			}
			last[origin] = seq
			g, w := got.isDup(origin, seq), want.Contains(dupKey{origin, seq})
			if g != w {
				t.Fatalf("step %d t=%v: message (%d, %d) is a duplicate: %v, reference %v", step, now, origin, seq, g, w)
			}
			if !g {
				got.recordDup(origin, seq, now)
				want.Add(dupKey{origin, seq}, now)
				heard = append(heard, now)
			}
		case c < 170:
			op = "probe"
			origin := netsim.NodeID(1 + in.next()%9) // 7..9 never send
			seq := last[min(origin, 6)] - uint16(in.next()%4)
			if g, w := got.isDup(origin, seq), want.Contains(dupKey{origin, seq}); g != w {
				t.Fatalf("step %d t=%v: probe (%d, %d) is a duplicate: %v, reference %v", step, now, origin, seq, g, w)
			}
		case c < 230:
			now += sim.Time(1+in.next()) * 50 * sim.Millisecond
			continue
		default:
			op = "purge"
			if len(heard) > 0 && c%2 == 0 {
				// Exactly at a deadline written earlier, if not yet past.
				if at := heard[in.next()%len(heard)] + dupHold; at > now {
					now = at
				}
			}
			got.expireDups(now)
			want.Expire(now)
		}
		compareDups(t, step, op, now, got, &want)
	}
}

func compareDups(t *testing.T, step int, op string, now sim.Time, got *Router, want *sim.ExpiringSet[dupKey]) {
	t.Helper()
	if got.dupN != want.Len() {
		t.Fatalf("step %d (%s at t=%v): dupN %d, reference %d", step, op, now, got.dupN, want.Len())
	}
	n := 0
	for oi := int32(0); oi < int32(got.slots.Len()); oi++ {
		s := got.slot(oi)
		tail, prev := int32(noTuple), sim.Time(-1)
		for i := s.dup; i != noTuple; i = got.dups.At(i).next {
			d := got.dups.At(i)
			if d.origin != oi || d.until < prev || !want.Contains(dupKey{s.id, d.seq}) {
				t.Fatalf("step %d (%s at t=%v): originator %d's chain holds (%d, %d) until %v after a tuple until %v",
					step, op, now, s.id, got.slot(d.origin).id, d.seq, d.until, prev)
			}
			tail, prev = i, d.until
			n++
		}
		if s.dupTail != tail {
			t.Fatalf("step %d (%s at t=%v): originator %d's chain ends at item %d, dupTail %d", step, op, now, s.id, tail, s.dupTail)
		}
	}
	if n != got.dupN {
		t.Fatalf("step %d (%s at t=%v): the chains hold %d tuples, dupN %d", step, op, now, n, got.dupN)
	}
}

// TestDupsMatchReference runs the differential on random streams.
func TestDupsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		data := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(data)
		runDupsDifferential(t, data)
	}
}

func FuzzDupsMatchReference(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 300)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	// Originator 1 sends one message at 0 s, a purge at its deadline, 30 s,
	// empties its chain, and its next message must start the chain anew.
	f.Add([]byte{0, 0, 229, 199, 229, 199, 229, 198, 230, 0, 0, 1})
	f.Fuzz(runDupsDifferential)
}

// TestDupRecordAllocFree: once a router has recycled its first
// DUP_HOLD_TIME of duplicate tuples, recording a new TC's tuple and the
// purge that retires the oldest allocate nothing — removed items are
// reused.
func TestDupRecordAllocFree(t *testing.T) {
	r := newTableRouter()
	now, seq := sim.Time(0), uint16(0)
	receive := func() {
		now += tcInterval / 5
		seq++
		origin := netsim.NodeID(1 + seq%5)
		if r.isDup(origin, seq) {
			t.Fatalf("(%d, %d) is a duplicate", origin, seq)
		}
		r.recordDup(origin, seq, now)
		r.expireDups(now)
	}
	for now < 2*dupHold {
		receive()
	}
	live := r.dupN
	if allocs := testing.AllocsPerRun(100, receive); allocs != 0 {
		t.Fatalf("recording a duplicate tuple and purging allocate %.1f times, want 0", allocs)
	}
	if r.dupN != live {
		t.Fatalf("%d duplicate tuples live, want %d", r.dupN, live)
	}
}
