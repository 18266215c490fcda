package netsim

import "testing"

// TestInterner drives the shared interner through one id sequence that
// crosses every regime: the direct range, the not-yet-grown part of it,
// the map fallback above the direct limit, and negative ids. After every
// step all ids seen so far must still resolve to the index they were
// first given (stable across growth, never recycled) and every unseen
// probe must read as absent.
func TestInterner(t *testing.T) {
	steps := []struct {
		name    string
		id      NodeID
		wantIdx int32
		wantNew bool
	}{
		{"first direct id", 5, 0, true},
		{"direct id below the grown range", 2, 1, true},
		{"direct id that grows the slice", 900, 2, true},
		{"repeat of a direct id", 5, 0, false},
		{"last direct id", internDirectLimit - 1, 3, true},
		{"first id past the direct limit", internDirectLimit, 4, true},
		{"synthetic external address", 1 << 30, 5, true},
		{"repeat of an external address", 1 << 30, 5, false},
		{"negative id (broadcast)", BroadcastID, 6, true},
		{"another negative id", -7, 7, true},
		{"zero", 0, 8, true},
		{"repeat after growth", 2, 1, false},
	}
	absent := []NodeID{1, 3, 899, 901, internDirectLimit - 2, internDirectLimit + 1, 1<<30 + 1, -2, -1 << 30}

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

	// Index is the per-packet path: present or absent, direct or fallback,
	// it must not allocate.
	probes := append([]NodeID{5, 900, internDirectLimit, 1 << 30, BroadcastID}, absent...)
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

// TestInternerGrowsOnce: interning a far id grows the direct slice in one
// allocation, not one doubling per power of two below it, and every slot
// it skips over still reads absent.
func TestInternerGrowsOnce(t *testing.T) {
	const far = 1999
	var in Interner
	if n := testing.AllocsPerRun(20, func() {
		in = Interner{}
		in.Intern(far)
	}); n != 1 {
		t.Fatalf("interning id %d into an empty interner took %v allocations, want 1", far, n)
	}
	for id := NodeID(0); id < far; id++ {
		if x := in.Index(id); x != -1 {
			t.Fatalf("Index(%d) = %d below a far id, want -1", id, x)
		}
	}
	// A second far id beyond the capacity also grows once, and keeps both.
	if n := testing.AllocsPerRun(20, func() {
		in = Interner{}
		in.Intern(far)
		in.Intern(4 * far)
	}); n != 2 {
		t.Fatalf("two far ids took %v allocations, want 2", n)
	}
	if in.Index(far) != 0 || in.Index(4*far) != 1 || in.Index(2*far) != -1 {
		t.Fatalf("after a second growth: Index(%d, %d, %d) = %d, %d, %d; want 0, 1, -1",
			far, 4*far, 2*far, in.Index(far), in.Index(4*far), in.Index(2*far))
	}
}
