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
// (walked forwards and backwards), the same values, Len the number of live
// items, and no more items allocated than were ever live at once.
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
			if l.Len() != len(order) {
				t.Fatalf("seed %d step %d: Len = %d for %d live items", seed, step, l.Len(), len(order))
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

// The burst tests below pin the list's behaviour under the load shape
// fault injection creates: a blackout expires whole neighbourhoods of
// protocol state in one purge wave, so a purge must drain an arbitrarily
// large expired prefix touching nothing else, a refresh must move its item
// rather than add one, and an idle purge must cost one look at the head.

// burstTable is a protocol table in miniature: key k's deadline is
// until[k], written only as now + hold, and item[k] is its list item.
type burstTable struct {
	l     HoldList[int]
	until []Time
	item  []int32
}

func newBurstTable(n int) *burstTable {
	return &burstTable{l: NewHoldList[int](), until: make([]Time, n), item: make([]int32, n)}
}

// purge pops keys from the head while the head is due, calls gone for
// each, and reports how many heads it read.
func (b *burstTable) purge(now Time, gone func(k int)) (reads int) {
	for i, ok := b.l.Front(); ok; i, ok = b.l.Front() {
		reads++
		k := *b.l.At(i)
		if b.until[k] > now {
			break
		}
		b.l.Remove(i)
		gone(k)
	}
	return reads
}

// TestHoldListMassExpiryBurst: 100 000 keys added over 1 000 instants
// with a constant hold; one purge at the middle deadline retires exactly
// the first half, reading one head more than it retires, and a second
// purge drains the rest.
func TestHoldListMassExpiryBurst(t *testing.T) {
	const n, hold = 100000, 1000
	b := newBurstTable(n)
	added := func(k int) Time { return Time(k / 100) } // instants 0..999, ascending
	for k := 0; k < n; k++ {
		b.until[k] = added(k) + hold
		b.item[k] = b.l.Add(k)
	}
	if reads := b.purge(hold-1, func(k int) { t.Fatalf("key %d expired before its deadline", k) }); reads != 1 {
		t.Fatalf("an idle purge read %d heads, want 1", reads)
	}
	live := make([]bool, n)
	for k := range live {
		live[k] = true
	}
	gone := 0
	reads := b.purge(hold+499, func(k int) {
		if b.until[k] > hold+499 || !live[k] {
			t.Fatalf("key %d (deadline %v, live %v) expired at %v", k, b.until[k], live[k], Time(hold+499))
		}
		live[k] = false
		gone++
	})
	if gone != n/2 || reads != n/2+1 {
		t.Fatalf("the burst retired %d keys reading %d heads, want %d and %d", gone, reads, n/2, n/2+1)
	}
	if i, ok := b.l.Front(); !ok || *b.l.At(i) != n/2 {
		t.Fatalf("after the burst the head is key %d (%v), want %d", *b.l.At(i), ok, n/2)
	}
	b.purge(2*hold, func(k int) { live[k] = false; gone++ })
	if _, ok := b.l.Front(); ok || gone != n {
		t.Fatalf("the final wave left the list non-empty after %d of %d keys", gone, n)
	}
}

// TestHoldListBurstRefreshCoalesces: refreshing every key before a mass
// deadline moves each key's one item to the tail; nothing expires at the
// old deadline, no item is added, and every key expires at the new one.
func TestHoldListBurstRefreshCoalesces(t *testing.T) {
	const n = 50000
	b := newBurstTable(n)
	for k := 0; k < n; k++ {
		b.until[k] = 10
		b.item[k] = b.l.Add(k)
	}
	for k := n - 1; k >= 0; k-- { // refresh at 90 with a hold of 10
		b.until[k] = 100
		b.l.Refresh(b.item[k])
	}
	b.purge(10, func(k int) { t.Fatalf("key %d expired despite its refreshed deadline", k) })
	if b.l.items.Len() != n {
		t.Fatalf("the refresh wave left %d items for %d keys", b.l.items.Len(), n)
	}
	gone := 0
	b.purge(100, func(k int) {
		if want := n - 1 - gone; k != want {
			t.Fatalf("key %d expired in place %d, want key %d (refresh order)", k, gone, want)
		}
		gone++
	})
	if _, ok := b.l.Front(); ok || gone != n {
		t.Fatalf("refreshed deadlines expired %d of %d keys", gone, n)
	}
}

// TestHoldListIdlePurgeAllocatesNothing pins the O(expired) claim's
// constant factor: purging when nothing is due allocates nothing.
func TestHoldListIdlePurgeAllocatesNothing(t *testing.T) {
	b := newBurstTable(1000)
	for k := range b.until {
		b.until[k] = 1000
		b.item[k] = b.l.Add(k)
	}
	gone := func(k int) { t.Fatalf("key %d expired at 5", k) }
	if allocs := testing.AllocsPerRun(100, func() { b.purge(5, gone) }); allocs != 0 {
		t.Fatalf("an idle purge allocates %.1f objects per call", allocs)
	}
}
