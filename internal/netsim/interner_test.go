package netsim

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// TestInterner drives the shared interner through one id sequence that
// spans small ids, ids far apart, the V2I uplink's synthetic external
// addresses and negative ids, across the table's first growths. After
// every step all ids seen so far must still resolve to the index they
// were first given (stable across growth, never recycled) and every
// unseen probe must read as absent.
func TestInterner(t *testing.T) {
	steps := []struct {
		name    string
		id      NodeID
		wantIdx int32
		wantNew bool
	}{
		{"first small id", 5, 0, true},
		{"smaller id", 2, 1, true},
		{"far id", 900, 2, true},
		{"repeat of a small id", 5, 0, false},
		{"id 1<<16 - 1", 1<<16 - 1, 3, true},
		{"id 1<<16", 1 << 16, 4, true},
		{"synthetic external address", 1 << 30, 5, true},
		{"repeat of an external address", 1 << 30, 5, false},
		{"negative id (broadcast)", BroadcastID, 6, true},
		{"another negative id", -7, 7, true},
		{"zero", 0, 8, true},
		{"repeat after growth", 2, 1, false},
	}
	absent := []NodeID{1, 3, 899, 901, 1<<16 - 2, 1<<16 + 1, 1<<30 + 1, -2, -1 << 30}

	var in Interner
	if in.Index(0) != -1 || in.Index(-1) != -1 || in.Index(1<<30) != -1 {
		t.Fatal("zero Interner is not empty")
	}
	seen := map[NodeID]int32{}
	for _, s := range steps {
		x, isNew := in.Intern(s.id)
		if x != s.wantIdx || isNew != s.wantNew {
			t.Fatalf("%s: Intern(%d) = (%d, %v), want (%d, %v)", s.name, s.id, x, isNew, s.wantIdx, s.wantNew)
		}
		seen[s.id] = x
		for id, want := range seen {
			if got := in.Index(id); got != want {
				t.Fatalf("%s: Index(%d) = %d, want %d (indices must be stable)", s.name, id, got, want)
			}
		}
		for _, id := range absent {
			if got := in.Index(id); got != -1 {
				t.Fatalf("%s: Index(%d) = %d for an id never interned", s.name, id, got)
			}
		}
	}

	// Index is the per-packet path: present or absent, near or far, it
	// must not allocate.
	probes := append([]NodeID{5, 900, 1 << 16, 1 << 30, BroadcastID}, absent...)
	var sink int32
	if n := testing.AllocsPerRun(100, func() {
		for _, id := range probes {
			sink += in.Index(id)
		}
	}); n != 0 {
		t.Fatalf("Index allocates: %v allocs/run", n)
	}
	_ = sink
}

// TestInternerBytesFollowIds: the table is sized by the ids interned, not
// by their range. The same number of ids spread over the 2 000 ids of a
// metro2k world and over the 2³⁰ of the uplink's external addresses
// allocate the same bytes, at most 32 B per id amortised over the growths
// (74 ids, about what a metro2k router hears, end in a 128-slot table),
// and the first Intern allocates once.
func TestInternerBytesFollowIds(t *testing.T) {
	const k = 74
	near := internBytes(spreadIDs(k, 2000))
	far := internBytes(spreadIDs(k, 1<<30))
	if near != far {
		t.Fatalf("%d ids allocate %d B over [0, 2000) but %d B over [0, 2^30)", k, near, far)
	}
	if near > 32*k {
		t.Fatalf("%d ids allocate %d B, %.1f B per id, want ≤ 32", k, near, float64(near)/k)
	}

	var in Interner
	if n := testing.AllocsPerRun(20, func() {
		in = Interner{}
		in.Intern(1999)
	}); n != 1 {
		t.Fatalf("interning one id into an empty interner took %v allocations, want 1", n)
	}
}

// internBytes is the heap bytes one fresh Interner allocates interning
// ids: the mean over 100 runs, the least of five such means, so that an
// allocation elsewhere in the process cannot show.
func internBytes(ids []NodeID) uint64 {
	const runs = 100
	least := uint64(math.MaxUint64)
	var in Interner
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			in = Interner{}
			for _, id := range ids {
				in.Intern(id)
			}
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return least
}

// spreadIDs returns k distinct ids drawn over [0, width) by a fixed
// splitmix64 sequence.
func spreadIDs(k int, width uint64) []NodeID {
	var ids []NodeID
	seen := map[NodeID]bool{}
	for z := uint64(1); len(ids) < k; z++ {
		v := z * 0x9E3779B97F4A7C15
		v = (v ^ v>>30) * 0xBF58476D1CE4E5B9
		v = (v ^ v>>27) * 0x94D049BB133111EB
		id := NodeID((v ^ v>>31) % width)
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return ids
}

// FuzzInterner checks the interner against a first-sight map after every
// step of an arbitrary id sequence: Intern's (index, isNew), Index of
// every id seen so far, and Index of ids never interned.
//
// The input is a list of records, one id each: a tag byte, then
//
//	tag%5 == 0: one byte v, the id v (small ids, 0 among them)
//	tag%5 == 1: BroadcastID
//	tag%5 == 2: -1 << 30
//	tag%5 == 3: one byte v, the external address 1<<30 + v
//	tag%5 == 4: four bytes, a little-endian int32 id
func FuzzInterner(f *testing.F) {
	// TestInterner's sequence.
	f.Add([]byte{0, 5, 0, 2, 4, 0x84, 3, 0, 0, 0, 5, 4, 0xff, 0xff, 0, 0, 4, 0, 0, 1, 0,
		3, 0, 3, 0, 1, 4, 0xf9, 0xff, 0xff, 0xff, 0, 0, 0, 2})
	f.Add([]byte{2, 1, 3, 7, 0, 0, 2, 1, 3, 7, 4, 0xff, 0xff, 0xff, 0x7f, 4, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		var ids []NodeID
		for len(data) > 0 && len(ids) < 256 {
			tag := data[0] % 5
			data = data[1:]
			switch {
			case tag == 0 && len(data) >= 1:
				ids = append(ids, NodeID(data[0]))
				data = data[1:]
			case tag == 1:
				ids = append(ids, BroadcastID)
			case tag == 2:
				ids = append(ids, -1<<30)
			case tag == 3 && len(data) >= 1:
				ids = append(ids, 1<<30+NodeID(data[0]))
				data = data[1:]
			case tag == 4 && len(data) >= 4:
				ids = append(ids, NodeID(int32(binary.LittleEndian.Uint32(data))))
				data = data[4:]
			default:
				data = nil
			}
		}

		// An id past int32 (64-bit builds only) is never present, even
		// when its low 32 bits are.
		shift := 32
		wide := NodeID(1) << shift

		var in Interner
		ref := map[NodeID]int32{}
		var order []NodeID
		for step, id := range ids {
			want, seen := ref[id]
			if !seen {
				want = int32(len(ref))
				ref[id] = want
				order = append(order, id)
			}
			if x, isNew := in.Intern(id); x != want || isNew == seen {
				t.Fatalf("step %d: Intern(%d) = (%d, %v), want (%d, %v)", step, id, x, isNew, want, !seen)
			}
			for _, id := range order {
				if got := in.Index(id); got != ref[id] {
					t.Fatalf("step %d: Index(%d) = %d, want %d", step, id, got, ref[id])
				}
				for _, probe := range []NodeID{id - 1, id + 1, -id, id ^ 1<<29} {
					checkIndex(t, step, &in, ref, probe)
				}
				if wide != 0 {
					checkIndex(t, step, &in, ref, id+wide)
				}
			}
			for _, probe := range []NodeID{0, BroadcastID, -1 << 30, 1 << 30, 1<<31 - 1, -1 << 31} {
				checkIndex(t, step, &in, ref, probe)
			}
		}
	})
}

// checkIndex fails unless Index(id) agrees with the reference for an id
// that may or may not have been interned.
func checkIndex(t *testing.T, step int, in *Interner, ref map[NodeID]int32, id NodeID) {
	t.Helper()
	want, ok := ref[id]
	if !ok {
		want = -1
	}
	if got := in.Index(id); got != want {
		t.Fatalf("step %d: Index(%d) = %d, want %d", step, id, got, want)
	}
}

// TestInternerPanicsPastInt32: an id that does not fit the table's int32
// keys panics with the id, rather than aliasing its low 32 bits.
func TestInternerPanicsPastInt32(t *testing.T) {
	shift := 32
	wide := NodeID(1)<<shift + 5
	if wide == 5 {
		t.Skip("NodeID is 32 bits wide")
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatalf("Intern(%d) did not panic", wide)
		}
	}()
	var in Interner
	in.Intern(5)
	in.Intern(wide)
}

// BenchmarkInterner: Index hits and misses, and building the table, for
// one router's ids in three worlds — table1's 30 dense ids, a metro2k
// router's ≈ 74 ids spread over 2 000, and a 10 000-vehicle metro router's
// 100 spread over 10 000. Index must read 0 allocs/op; build's B/op is
// the table one router holds.
func BenchmarkInterner(b *testing.B) {
	shapes := []struct {
		name  string
		k     int
		width uint64
	}{
		{"table1", 30, 30},
		{"metro2k", 74, 2000},
		{"metro", 100, 10000},
	}
	for _, sh := range shapes {
		ids := spreadIDs(sh.k, sh.width)
		var in Interner
		for _, id := range ids {
			in.Intern(id)
		}
		var misses []NodeID
		for id := NodeID(0); len(misses) < sh.k; id++ {
			if in.Index(id) < 0 {
				misses = append(misses, id)
			}
		}
		b.Run(sh.name+"/hit", func(b *testing.B) {
			b.ReportAllocs()
			for i := range b.N {
				internSink += in.Index(ids[i%len(ids)])
			}
		})
		b.Run(sh.name+"/miss", func(b *testing.B) {
			b.ReportAllocs()
			for i := range b.N {
				internSink += in.Index(misses[i%len(misses)])
			}
		})
		b.Run(sh.name+"/build", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				var in Interner
				for _, id := range ids {
					in.Intern(id)
				}
				internSink += in.n
			}
		})
	}
}

// internSink keeps BenchmarkInterner's results live.
var internSink int32
