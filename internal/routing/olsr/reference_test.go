package olsr

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"cavenet/internal/geometry"
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
	exp expiryHeap[[2]int32]
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
	if got.twoHopExp.Len() != want.n {
		t.Fatalf("step %d t=%v: twoHopN %d, reference %d", step, now, got.twoHopExp.Len(), want.n)
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
	exp    expiryHeap[int32]
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
	if got.topoExp.Len() != want.n {
		t.Fatalf("step %d t=%v: topoN %d, reference %d", step, now, got.topoExp.Len(), want.n)
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
	if r.twoHopExp.Len() != len(links) || r.topoExp.Len() != len(tc.Advertised) {
		t.Fatalf("%d 2-hop and %d topology tuples, want %d and %d", r.twoHopExp.Len(), r.topoExp.Len(), len(links), len(tc.Advertised))
	}
}

// dupKey names a message in the reference duplicate set.
type dupKey struct {
	origin netsim.NodeID
	seq    uint16
}

// runDupsDifferential decodes data into a stream of received messages,
// probes and purges, and drives the router's duplicate set (isDup,
// recordDup, expireDups) and a map of deadlines, side by side: a key
// lives until the first purge with now ≥ its deadline, the contract of
// the FIFO set the chains replaced. A message is looked up and, when both sides call it new,
// recorded, as handleTC and handleHNA do; a probe only looks up, also for
// originators never heard. Each originator's sequence number repeats,
// steps by one either way (wrapping at 0 and 65 535), jumps, returns to
// an earlier value or is any value. Time moves in steps of up to 12.8 s
// against the 30-s hold, and some purges fall exactly on a deadline.
// Every lookup must agree, and after every step dups.Len() must equal the
// reference's Len, every tuple must be a live reference key, and each
// originator's chain must run from its slot's dup to its dupTail in
// deadline order, each tuple naming its originator.
func runDupsDifferential(t *testing.T, data []byte) {
	in := byteStream(data)
	got := newTableRouter()
	want := refDups{}
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
			g, w := got.isDup(origin, seq), want.contains(dupKey{origin, seq})
			if g != w {
				t.Fatalf("step %d t=%v: message (%d, %d) is a duplicate: %v, reference %v", step, now, origin, seq, g, w)
			}
			if !g {
				got.recordDup(origin, seq, now)
				want[dupKey{origin, seq}] = now + dupHold
				heard = append(heard, now)
			}
		case c < 170:
			op = "probe"
			origin := netsim.NodeID(1 + in.next()%9) // 7..9 never send
			seq := last[min(origin, 6)] - uint16(in.next()%4)
			if g, w := got.isDup(origin, seq), want.contains(dupKey{origin, seq}); g != w {
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
			want.expire(now)
		}
		compareDups(t, step, op, now, got, want)
	}
}

// refDups is the reference duplicate set: each key's deadline.
type refDups map[dupKey]sim.Time

func (d refDups) contains(k dupKey) bool {
	_, ok := d[k]
	return ok
}

// expire drops every key whose deadline passed.
func (d refDups) expire(now sim.Time) {
	for k, until := range d { // order-free: deletes only
		if until <= now {
			delete(d, k)
		}
	}
}

func compareDups(t *testing.T, step int, op string, now sim.Time, got *Router, want refDups) {
	t.Helper()
	if got.dups.Len() != len(want) {
		t.Fatalf("step %d (%s at t=%v): dupN %d, reference %d", step, op, now, got.dups.Len(), len(want))
	}
	n := 0
	for oi := int32(0); oi < int32(got.slots.Len()); oi++ {
		s := got.slot(oi)
		tail, prev := int32(noTuple), sim.Time(-1)
		for i := s.dup; i != noTuple; i = got.dups.At(i).next {
			d := got.dups.At(i)
			if d.origin != oi || d.until < prev || want[dupKey{s.id, d.seq}] != d.until {
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
	if n != got.dups.Len() {
		t.Fatalf("step %d (%s at t=%v): the chains hold %d tuples, dupN %d", step, op, now, n, got.dups.Len())
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
	live := r.dups.Len()
	if allocs := testing.AllocsPerRun(100, receive); allocs != 0 {
		t.Fatalf("recording a duplicate tuple and purging allocate %.1f times, want 0", allocs)
	}
	if r.dups.Len() != live {
		t.Fatalf("%d duplicate tuples live, want %d", r.dups.Len(), live)
	}
}

// expiryHeap is the lazy deadline heap the expiry lists replaced, kept as
// the references' expiry: it records the deadline a key had when it was
// pushed, and when that deadline surfaces, Expire asks the caller for the
// key's current one and re-registers the key if it was extended. Callers
// push once per entry creation, never per refresh. The zero value is an
// empty heap ready for use.
type expiryHeap[K comparable] struct {
	items []expiryItem[K]
}

type expiryItem[K comparable] struct {
	until sim.Time
	key   K
}

// Len reports the number of registered items (live keys plus any stale
// duplicates that have not yet surfaced).
func (h *expiryHeap[K]) Len() int { return len(h.items) }

// Push registers key with the given deadline.
func (h *expiryHeap[K]) Push(key K, until sim.Time) {
	h.items = append(h.items, expiryItem[K]{until: until, key: key})
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].until <= h.items[i].until {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func (h *expiryHeap[K]) pop() expiryItem[K] {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items = h.items[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && h.items[l].until < h.items[least].until {
			least = l
		}
		if r < n && h.items[r].until < h.items[least].until {
			least = r
		}
		if least == i {
			break
		}
		h.items[i], h.items[least] = h.items[least], h.items[i]
		i = least
	}
	return top
}

// Expire surfaces every registered deadline that has passed. For each such
// key it calls current, which reports the entry's live deadline: when keep
// is true and the deadline is still in the future the key is re-registered
// at it; otherwise expired(key) is invoked. Keys whose entries are already
// gone must report keep=false.
func (h *expiryHeap[K]) Expire(now sim.Time, current func(K) (sim.Time, bool), expired func(K)) {
	for len(h.items) > 0 && h.items[0].until <= now {
		it := h.pop()
		if until, keep := current(it.key); keep && until > now {
			h.Push(it.key, until)
		} else {
			expired(it.key)
		}
	}
}

func TestExpiryHeapOrdersAndExpires(t *testing.T) {
	var h expiryHeap[string]
	live := map[string]sim.Time{"a": 10, "b": 20, "c": 30}
	h.Push("c", 30)
	h.Push("a", 10)
	h.Push("b", 20)

	var gone []string
	expire := func(now sim.Time) {
		h.Expire(now,
			func(k string) (sim.Time, bool) { u, ok := live[k]; return u, ok },
			func(k string) { delete(live, k); gone = append(gone, k) })
	}

	expire(5)
	if len(gone) != 0 || h.Len() != 3 {
		t.Fatalf("nothing should expire at t=5: gone=%v len=%d", gone, h.Len())
	}
	expire(20)
	if len(gone) != 2 || gone[0] != "a" || gone[1] != "b" {
		t.Fatalf("want [a b] expired in deadline order, got %v", gone)
	}
	if h.Len() != 1 {
		t.Fatalf("heap should still track c, len=%d", h.Len())
	}
}

func TestExpiryHeapRefreshedEntryReRegisters(t *testing.T) {
	var h expiryHeap[int]
	until := sim.Time(10)
	h.Push(1, until)

	// The entry's lifetime was extended after the push: the stale deadline
	// surfaces, the key is re-registered, nothing expires.
	until = 50
	expired := 0
	h.Expire(25,
		func(int) (sim.Time, bool) { return until, true },
		func(int) { expired++ })
	if expired != 0 {
		t.Fatalf("refreshed entry expired %d times", expired)
	}
	if h.Len() != 1 {
		t.Fatalf("key must stay registered, len=%d", h.Len())
	}
	// At the extended deadline it finally expires.
	h.Expire(50,
		func(int) (sim.Time, bool) { return until, false },
		func(int) { expired++ })
	if expired != 1 || h.Len() != 0 {
		t.Fatalf("want exactly one expiry at the live deadline, got %d (len=%d)", expired, h.Len())
	}
}

func TestExpiryHeapVanishedKeyExpiresOnce(t *testing.T) {
	var h expiryHeap[int]
	h.Push(7, 10)
	var got []int
	h.Expire(10,
		func(int) (sim.Time, bool) { return 0, false },
		func(k int) { got = append(got, k) })
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("vanished key must surface exactly once, got %v", got)
	}
	if h.Len() != 0 {
		t.Fatal("heap not drained")
	}
}

// TestExpiryHeapKeepWithPassedDeadlineExpires guards against an infinite
// re-push loop: current reporting keep=true with a deadline that is not in
// the future must be treated as expired.
func TestExpiryHeapKeepWithPassedDeadlineExpires(t *testing.T) {
	var h expiryHeap[int]
	h.Push(1, 10)
	expired := 0
	h.Expire(10,
		func(int) (sim.Time, bool) { return 10, true },
		func(int) { expired++ })
	if expired != 1 || h.Len() != 0 {
		t.Fatalf("stale keep must expire: expired=%d len=%d", expired, h.Len())
	}
}

// refLinks is the link set as it was kept before the expiry lists: per
// neighbor a present flag and three deadlines, a lazy expiryHeap pushed
// once per new link and re-registered when a surfaced link turns out
// refreshed, and a second heap for the symmetric deadline, pushed when a
// link turns symmetric and has no item registered yet (inSymHeap). One
// thing is as it is now: a failure removes the link at once. Each heap
// item is keyed by the link's incarnation, so the items a removed link
// leaves behind surface to find it gone, where the heaps once kept the
// link present with zeroed deadlines until its item surfaced.
type refLinks struct {
	links           map[netsim.NodeID]*refLink
	linkExp, symExp expiryHeap[refLinkKey]
	incarnations    int
}

type refLink struct {
	inc                        int // incarnation: the key of its heap items
	inSymHeap                  bool
	until, symUntil, asymUntil sim.Time
}

type refLinkKey struct {
	id  netsim.NodeID
	inc int
}

// live returns id's link if key names its present incarnation.
func (ref *refLinks) live(key refLinkKey) *refLink {
	if l := ref.links[key.id]; l != nil && l.inc == key.inc {
		return l
	}
	return nil
}

// hello is handleHello's link block as it was.
func (ref *refLinks) hello(from, me netsim.NodeID, links []HelloLink, now sim.Time) (material, selected bool) {
	l := ref.links[from]
	if l == nil {
		ref.incarnations++
		l = &refLink{inc: ref.incarnations}
		ref.links[from] = l
		ref.linkExp.Push(refLinkKey{from, l.inc}, now+neighborHold)
		material = true
	}
	l.asymUntil, l.until = now+neighborHold, now+neighborHold
	wasSym := l.symUntil > now
	for _, hl := range links {
		if hl.Neighbor != me {
			continue
		}
		if hl.Code == LinkMPR {
			selected = true
		}
		if hl.Code != LinkLost {
			l.symUntil = now + neighborHold
		}
	}
	if l.symUntil > now && !wasSym {
		material = true
		if !l.inSymHeap {
			l.inSymHeap = true
			ref.symExp.Push(refLinkKey{from, l.inc}, l.symUntil)
		}
	}
	return material, selected
}

// expire is purge's link block as it was.
func (ref *refLinks) expire(now sim.Time) bool {
	material := false
	ref.linkExp.Expire(now, func(key refLinkKey) (sim.Time, bool) {
		if l := ref.live(key); l != nil {
			return l.until, l.until > now
		}
		return 0, false
	}, func(key refLinkKey) {
		if ref.live(key) != nil {
			delete(ref.links, key.id)
			material = true
		}
	})
	ref.symExp.Expire(now, func(key refLinkKey) (sim.Time, bool) {
		if l := ref.live(key); l != nil {
			return l.symUntil, l.symUntil > now
		}
		return 0, false
	}, func(key refLinkKey) {
		if l := ref.live(key); l != nil {
			l.inSymHeap = false
			material = true
		}
	})
	return material
}

// helloLinks is what the reference's HELLO would advertise (no MPRs).
func (ref *refLinks) helloLinks(now sim.Time) []HelloLink {
	var out []HelloLink
	for id, l := range ref.links { // order-free: sorted below
		if l.until <= now {
			continue
		}
		code := LinkLost
		switch {
		case l.symUntil > now:
			code = LinkSym
		case l.asymUntil > now:
			code = LinkAsym
		}
		out = append(out, HelloLink{Neighbor: id, Code: code})
	}
	slices.SortFunc(out, func(a, b HelloLink) int { return int(a.Neighbor - b.Neighbor) })
	return out
}

// runLinkSetDifferential decodes data into a stream of HELLOs, link
// failures and purges, ETX off, and drives a router (hearLink, LinkFailure,
// expireLinks) and refLinks through it side by side. HELLOs come from
// neighbors 1..6 and list me (node 0) with any code, or not at all, among
// other links; time moves in sub-second steps, and some purges fall
// exactly on a deadline written earlier. Every step must agree on the
// material and MPR-selection flags, and after every step on what readers
// see: the present links, the HELLO the router would send, symmetric for
// every neighbor and the sorted symmetric-neighbor list the kernels
// start from, and the number of links with a pending symmetric deadline.
func runLinkSetDifferential(t *testing.T, data []byte) {
	in := byteStream(data)
	w, err := netsim.NewWorld(netsim.WorldConfig{Nodes: 1, Seed: 1, Static: []geometry.Vec2{{}}},
		func(node *netsim.Node) netsim.Router { return New(node, Config{}) })
	if err != nil {
		t.Fatal(err)
	}
	got := w.Node(0).Router().(*Router)
	want := &refLinks{links: map[netsim.NodeID]*refLink{}}
	const me = netsim.NodeID(0)
	got.intern(me)
	codes := []LinkCode{LinkSym, LinkMPR, LinkAsym, LinkLost}
	now := sim.Time(0)
	var heard []sim.Time
	for step := 0; len(in) > 0; step++ {
		op := "hello"
		switch c := in.next(); {
		case c < 120:
			from := netsim.NodeID(1 + c%6)
			var links []HelloLink
			if k := in.next(); k%4 != 0 { // lists me
				links = append(links, HelloLink{Neighbor: me, Code: codes[k%len(codes)]})
			}
			if k := in.next(); k%2 == 0 {
				links = append(links, HelloLink{Neighbor: netsim.NodeID(1 + k%6), Code: LinkSym})
			}
			gm, gs := got.hearLink(got.intern(from), me, links, now)
			wm, ws := want.hello(from, me, links, now)
			if gm != wm || gs != ws {
				t.Fatalf("step %d: HELLO from %d at t=%v: material %v selected %v, reference %v %v", step, from, now, gm, gs, wm, ws)
			}
			heard = append(heard, now)
		case c < 150:
			op = "failure"
			id := netsim.NodeID(1 + in.next()%7) // 7 is never heard
			got.LinkFailure(id, &netsim.Packet{Kind: netsim.KindControl})
			delete(want.links, id)
		case c < 220:
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
			if gm, wm := got.expireLinks(now), want.expire(now); gm != wm {
				t.Fatalf("step %d: purge at t=%v: material %v, reference %v", step, now, gm, wm)
			}
		}
		compareLinks(t, step, op, now, got, want)
	}
}

func compareLinks(t *testing.T, step int, op string, now sim.Time, got *Router, want *refLinks) {
	t.Helper()
	var present, wantPresent, wantSym []netsim.NodeID
	pendingSym := 0
	for _, fi := range got.linkList {
		present = append(present, got.slot(fi).id)
	}
	for id, l := range want.links { // order-free: sorted below
		wantPresent = append(wantPresent, id)
		if l.symUntil > now {
			wantSym = append(wantSym, id)
		}
		if l.inSymHeap {
			pendingSym++
		}
	}
	slices.Sort(present)
	slices.Sort(wantPresent)
	slices.Sort(wantSym)
	if !slices.Equal(present, wantPresent) {
		t.Fatalf("step %d (%s at t=%v): links %v, reference %v", step, op, now, present, wantPresent)
	}
	if g, w := got.helloLinks(now), want.helloLinks(now); !slices.Equal(g, w) {
		t.Fatalf("step %d (%s at t=%v): HELLO advertises %v, reference %v", step, op, now, g, w)
	}
	for id := netsim.NodeID(1); id <= 7; id++ {
		l := want.links[id]
		if g, w := got.symmetric(id, now), l != nil && l.symUntil > now; g != w {
			t.Fatalf("step %d (%s at t=%v): symmetric(%d) = %v, reference %v", step, op, now, id, g, w)
		}
	}
	got.denseNeighbors(now, got.nextEpoch(), false)
	var sym []netsim.NodeID
	for _, fi := range got.scratch.symList {
		sym = append(sym, got.slot(fi).id)
	}
	if !slices.Equal(sym, wantSym) {
		t.Fatalf("step %d (%s at t=%v): symmetric neighbors %v, reference %v", step, op, now, sym, wantSym)
	}
	if g := got.symExp.Len(); g != pendingSym {
		t.Fatalf("step %d (%s at t=%v): %d links with a symmetric deadline pending, reference %d", step, op, now, g, pendingSym)
	}
	if g := got.linkExp.Len(); g != len(wantPresent) {
		t.Fatalf("step %d (%s at t=%v): %d items in the link list for %d links", step, op, now, g, len(wantPresent))
	}
}

// TestLinkSetMatchesReference runs the differential on random streams.
func TestLinkSetMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		data := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(data)
		runLinkSetDifferential(t, data)
	}
}

func FuzzLinkSetMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 300)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(runLinkSetDifferential)
}
