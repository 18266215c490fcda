package sim

import (
	"fmt"
	"strings"
	"testing"
)

// The burst tests below pin the expiry substrate's behavior under the
// load shape fault injection creates: a blackout expires whole
// neighborhoods of protocol state in one purge wave, so Expire must drain
// an arbitrarily large expired prefix in one call, leave survivors
// untouched, and coalesce refreshed entries by re-registration instead of
// duplicating heap items.

func TestExpiryHeapMassExpiryBurst(t *testing.T) {
	var h ExpiryHeap[int]
	live := make(map[int]Time)
	const n = 100000
	for i := 0; i < n; i++ {
		d := Time(i%1000) + 1
		live[i] = d
		h.Push(i, d)
	}
	// Nothing is due yet: a purge attempt must touch nothing.
	h.Expire(0,
		func(k int) (Time, bool) { u, ok := live[k]; return u, ok },
		func(k int) { t.Fatalf("key %d expired before its deadline", k) })
	if h.Len() != n {
		t.Fatalf("idle Expire changed the heap: %d items, want %d", h.Len(), n)
	}
	// Half the deadlines pass at once.
	gone := 0
	h.Expire(500,
		func(k int) (Time, bool) { u, ok := live[k]; return u, ok },
		func(k int) { delete(live, k); gone++ })
	wantGone := 0
	for i := 0; i < n; i++ {
		if Time(i%1000)+1 <= 500 {
			wantGone++
		}
	}
	if gone != wantGone {
		t.Fatalf("burst expired %d keys, want %d", gone, wantGone)
	}
	if h.Len() != n-wantGone {
		t.Fatalf("heap holds %d items after the burst, want %d", h.Len(), n-wantGone)
	}
	// The rest goes in a second wave.
	h.Expire(1001,
		func(k int) (Time, bool) { u, ok := live[k]; return u, ok },
		func(k int) { delete(live, k) })
	if h.Len() != 0 || len(live) != 0 {
		t.Fatalf("final wave left %d heap items and %d live entries", h.Len(), len(live))
	}
}

// TestExpiryHeapBurstRefreshCoalesces pins the lazy-refresh contract at
// scale: extending every entry's lifetime before a mass deadline costs one
// re-registration per key — the heap stays at one item per live key rather
// than accreting a stale copy per refresh.
func TestExpiryHeapBurstRefreshCoalesces(t *testing.T) {
	var h ExpiryHeap[int]
	live := make(map[int]Time)
	const n = 50000
	for i := 0; i < n; i++ {
		live[i] = 10
		h.Push(i, 10)
	}
	for i := 0; i < n; i++ {
		live[i] = 100 // refresh: map only, no Push
	}
	h.Expire(10,
		func(k int) (Time, bool) { u, ok := live[k]; return u, ok },
		func(k int) { t.Fatalf("key %d expired despite its refreshed deadline", k) })
	if h.Len() != n {
		t.Fatalf("refresh wave left %d heap items, want %d (one per key)", h.Len(), n)
	}
	gone := 0
	h.Expire(100,
		func(k int) (Time, bool) { u, ok := live[k]; return u, ok },
		func(k int) { delete(live, k); gone++ })
	if gone != n || h.Len() != 0 {
		t.Fatalf("refreshed deadlines expired %d of %d keys, %d heap items left", gone, n, h.Len())
	}
}

// TestExpiryHeapIdlePurgeAllocatesNothing pins the O(expired) claim's
// constant factor: purging when nothing is due must not allocate.
func TestExpiryHeapIdlePurgeAllocatesNothing(t *testing.T) {
	var h ExpiryHeap[int]
	for i := 0; i < 1000; i++ {
		h.Push(i, 1000)
	}
	current := func(k int) (Time, bool) { return 1000, true }
	expired := func(k int) {}
	allocs := testing.AllocsPerRun(100, func() {
		h.Expire(5, current, expired)
	})
	if allocs != 0 {
		t.Fatalf("idle Expire allocates %.1f objects per call", allocs)
	}
}

// TestExpiringSetMassBurst: a set built with a constant hold, filled over
// 100 instants, retires exactly the entries added at or before now - hold
// in one Expire, leaves the rest with one queued deadline each, and drains
// at the end.
func TestExpiringSetMassBurst(t *testing.T) {
	s := NewExpiringSet[uint64](1)
	const n = 50000
	added := func(i uint64) Time { return Time(i / 500) } // instants 0..99, ascending
	for i := uint64(0); i < n; i++ {
		s.Add(i, added(i))
	}
	if s.Len() != n || int(s.n) != n {
		t.Fatalf("populated set has %d entries / %d deadlines", s.Len(), s.n)
	}
	s.Expire(50)
	want := 0
	for i := uint64(0); i < n; i++ {
		if added(i)+1 > 50 {
			want++
		}
	}
	if s.Len() != want {
		t.Fatalf("after the burst: %d live entries, want %d", s.Len(), want)
	}
	if int(s.n) != s.Len() {
		t.Fatalf("%d queued deadlines for %d live entries — the purge left stale deadlines", s.n, s.Len())
	}
	if s.Contains(0) || s.Contains(24999) || !s.Contains(25000) || !s.Contains(n-1) {
		t.Fatal("membership disagrees with deadlines after the burst")
	}
	s.Expire(1000)
	if s.Len() != 0 || s.n != 0 {
		t.Fatalf("final purge left %d entries / %d deadlines", s.Len(), s.n)
	}
}

// TestSchedulePastPanicCarriesClock pins the kernel's diagnostic contract:
// scheduling behind the clock reports where the clock was, where the
// request landed, and how far in the past it was.
func TestSchedulePastPanicCarriesClock(t *testing.T) {
	k := NewKernel()
	k.Schedule(5*Second, func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("scheduling in the past did not panic")
			}
			msg := fmt.Sprint(r)
			for _, want := range []string{"t=5", "2.000000s", "in the past"} {
				if !strings.Contains(msg, want) {
					t.Fatalf("panic %q lacks %q", msg, want)
				}
			}
		}()
		k.Schedule(3*Second, func() {})
	})
	k.Run()
}
