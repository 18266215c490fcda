package sim

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// TestHoldListMatchesOrder drives a HoldList and a plain slice of live
// items in refresh order through random Adds, Refreshes and Removes from
// the front or the middle, and requires after every step the same order
// (walked forwards and backwards), the same values, and no more items
// allocated than were ever live at once.
func TestHoldListMatchesOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		l := NewHoldList[int]()
		var order []int32 // live items, front first
		val := map[int32]int{}
		peak := 0
		for step := 0; step < 3000; step++ {
			switch r := rnd.Intn(10); {
			case r < 4 || len(order) == 0:
				v := rnd.Int()
				i := l.Add(v)
				if slices.Contains(order, i) {
					t.Fatalf("seed %d step %d: Add returned live item %d", seed, step, i)
				}
				order = append(order, i)
				val[i] = v
			case r < 7:
				k := rnd.Intn(len(order))
				i := order[k]
				l.Refresh(i)
				order = append(slices.Delete(order, k, k+1), i)
			case r < 9:
				i, ok := l.Front()
				if !ok || i != order[0] {
					t.Fatalf("seed %d step %d: Front = %d, %v; want %d", seed, step, i, ok, order[0])
				}
				l.Remove(i)
				order = order[1:]
			default:
				k := rnd.Intn(len(order))
				l.Remove(order[k])
				order = slices.Delete(order, k, k+1)
			}
			peak = max(peak, len(order))
			var fwd, back []int32
			for i := l.head; i != noItem; i = l.items.At(i).next {
				fwd = append(fwd, i)
				if *l.At(i) != val[i] {
					t.Fatalf("seed %d step %d: item %d holds %d, want %d", seed, step, i, *l.At(i), val[i])
				}
			}
			for i := l.tail; i != noItem; i = l.items.At(i).prev {
				back = append(back, i)
			}
			slices.Reverse(back)
			if !slices.Equal(fwd, order) || !slices.Equal(back, order) {
				t.Fatalf("seed %d step %d: list %v (backwards %v), want %v", seed, step, fwd, back, order)
			}
			if int(l.items.Len()) > peak {
				t.Fatalf("seed %d step %d: %d items allocated for at most %d live", seed, step, l.items.Len(), peak)
			}
		}
	}
}

// TestHoldListPageSize: a 2-hop tuple's item (the neighbor's index and two
// links) is 12 B, and a page of 16 is 192 B, an exact size class, on every
// word size.
func TestHoldListPageSize(t *testing.T) {
	if n := unsafe.Sizeof([pageLen]holdItem[int32]{}); n != 192 {
		t.Fatalf("a page of int32 hold-list items is %d B, want 192", n)
	}
}
