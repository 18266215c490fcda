package olsr

import (
	"math/rand"
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
	r   *Router // only its interner and ids are used
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
		if ref.r.ids[edges[j].th] > th {
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

// newTwoHopRouter is a router with only what the 2-hop set needs: its
// interner and tables, no node.
func newTwoHopRouter() *Router {
	return &Router{twoHopExp: sim.NewHoldList[int32]()}
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
// tuple count and material flag, and each edge must own a list item of its
// own that names its neighbor.
func runTwoHopDifferential(t *testing.T, data []byte) {
	in := byteStream(data)
	const me = netsim.NodeID(0)
	got, want := newTwoHopRouter(), &refTwoHop{r: newTwoHopRouter()}
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
	if !slices.Equal(got.ids, want.r.ids) {
		t.Fatalf("step %d t=%v: ids %v, reference %v", step, now, got.ids, want.r.ids)
	}
	if got.twoHopN != want.n {
		t.Fatalf("step %d t=%v: twoHopN %d, reference %d", step, now, got.twoHopN, want.n)
	}
	items := make(map[int32]bool)
	for fi := range want.of {
		var edges []twoHopEdge
		if fi < len(got.twoHopOf) {
			edges = got.twoHopOf[fi]
		}
		ref := want.of[fi]
		if len(edges) != len(ref) {
			t.Fatalf("step %d t=%v: neighbor %d has %d 2-hop edges, reference %d", step, now, got.ids[fi], len(edges), len(ref))
		}
		for j, e := range edges {
			if e.th != ref[j].th || e.until != ref[j].until {
				t.Fatalf("step %d t=%v: neighbor %d edge %d is (%d, %v), reference (%d, %v)",
					step, now, got.ids[fi], j, got.ids[e.th], e.until, got.ids[ref[j].th], ref[j].until)
			}
			if k := *got.twoHopExp.At(e.item); k != int32(fi) || items[e.item] {
				t.Fatalf("step %d t=%v: edge (%d → %d) owns list item %d, which names neighbor %d or another edge too",
					step, now, got.ids[fi], got.ids[e.th], e.item, got.ids[k])
			}
			items[e.item] = true
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

// TestTwoHopEdgeSize: the list item an edge names fills what was padding
// beside its deadline, so an edge is still 16 B on every word size.
func TestTwoHopEdgeSize(t *testing.T) {
	if n := unsafe.Sizeof(twoHopEdge{}); n != 16 {
		t.Fatalf("2-hop edge is %d B, want 16", n)
	}
}
