package sim

import (
	"math/rand"
	"testing"
)

func TestExpiryHeapOrdersAndExpires(t *testing.T) {
	var h ExpiryHeap[string]
	live := map[string]Time{"a": 10, "b": 20, "c": 30}
	h.Push("c", 30)
	h.Push("a", 10)
	h.Push("b", 20)

	var gone []string
	expire := func(now Time) {
		h.Expire(now,
			func(k string) (Time, bool) { u, ok := live[k]; return u, ok },
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
	var h ExpiryHeap[int]
	until := Time(10)
	h.Push(1, until)

	// The entry's lifetime was extended after the push: the stale deadline
	// surfaces, the key is re-registered, nothing expires.
	until = 50
	expired := 0
	h.Expire(25,
		func(int) (Time, bool) { return until, true },
		func(int) { expired++ })
	if expired != 0 {
		t.Fatalf("refreshed entry expired %d times", expired)
	}
	if h.Len() != 1 {
		t.Fatalf("key must stay registered, len=%d", h.Len())
	}
	// At the extended deadline it finally expires.
	h.Expire(50,
		func(int) (Time, bool) { return until, false },
		func(int) { expired++ })
	if expired != 1 || h.Len() != 0 {
		t.Fatalf("want exactly one expiry at the live deadline, got %d (len=%d)", expired, h.Len())
	}
}

func TestExpiryHeapVanishedKeyExpiresOnce(t *testing.T) {
	var h ExpiryHeap[int]
	h.Push(7, 10)
	var got []int
	h.Expire(10,
		func(int) (Time, bool) { return 0, false },
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
	var h ExpiryHeap[int]
	h.Push(1, 10)
	expired := 0
	h.Expire(10,
		func(int) (Time, bool) { return 10, true },
		func(int) { expired++ })
	if expired != 1 || h.Len() != 0 {
		t.Fatalf("stale keep must expire: expired=%d len=%d", expired, h.Len())
	}
}

// heapExpiringSet is the duplicate set as it was before the hold moved to
// construction: a map of deadlines retired through a lazy ExpiryHeap. It is
// the reference the FIFO ExpiringSet is checked against.
type heapExpiringSet[K comparable] struct {
	m map[K]Time
	h ExpiryHeap[K]
}

func (s *heapExpiringSet[K]) Add(key K, until Time) {
	if s.m == nil {
		s.m = make(map[K]Time)
	}
	s.m[key] = until
	s.h.Push(key, until)
}

func (s *heapExpiringSet[K]) Expire(now Time) {
	s.h.Expire(now,
		func(k K) (Time, bool) { u, ok := s.m[k]; return u, ok && u > now },
		func(k K) { delete(s.m, k) })
}

// TestExpiringSetMatchesHeap drives the FIFO set and the heap reference
// through the same random stream of Adds (new keys and re-Adds of live and
// expired ones), membership reads and Expires, some at the exact instant a
// deadline falls due, and requires the same members after every step.
func TestExpiringSetMatchesHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		hold := Time(1 + rnd.Intn(20))
		got := NewExpiringSet[int](hold)
		var want heapExpiringSet[int]
		keys := 1 + rnd.Intn(40)
		now := Time(0)
		for step := 0; step < 2000; step++ {
			switch r := rnd.Intn(10); {
			case r < 5:
				k := rnd.Intn(keys)
				got.Add(k, now)
				want.Add(k, now+hold)
			case r < 7:
				now += Time(rnd.Intn(4))
			case r < 8:
				now = now - now%hold + hold // a deadline boundary
				fallthrough
			default:
				got.Expire(now)
				want.Expire(now)
			}
			if got.Len() != len(want.m) {
				t.Fatalf("seed %d step %d t=%d: %d entries, reference %d", seed, step, now, got.Len(), len(want.m))
			}
			for k := 0; k < keys; k++ {
				if _, in := want.m[k]; got.Contains(k) != in {
					t.Fatalf("seed %d step %d t=%d: Contains(%d) = %v, reference %v", seed, step, now, k, !in, in)
				}
			}
			if int(got.n) < got.Len() {
				t.Fatalf("seed %d step %d: %d deadlines for %d entries", seed, step, got.n, got.Len())
			}
		}
	}
}

// TestExpiringSetReAddedKeySurvives: a key added again before its first
// deadline lives until the second, although its first queued deadline pops
// before then.
func TestExpiringSetReAddedKeySurvives(t *testing.T) {
	s := NewExpiringSet[string](10)
	s.Add("a", 0)
	s.Add("b", 3)
	s.Add("a", 5)
	s.Expire(10)
	if !s.Contains("a") || !s.Contains("b") {
		t.Fatalf("at t=10: a %v, b %v; both live until 15 and 13", s.Contains("a"), s.Contains("b"))
	}
	s.Expire(13)
	if !s.Contains("a") || s.Contains("b") {
		t.Fatalf("at t=13: a %v, b %v; want a only", s.Contains("a"), s.Contains("b"))
	}
	s.Expire(15)
	if s.Len() != 0 || s.n != 0 {
		t.Fatalf("at t=15: %d entries, %d deadlines left", s.Len(), s.n)
	}
}

// TestExpiringSetAddBehindPanics: the queue is in deadline order only if
// no Add goes back in time, so one that does is loud.
func TestExpiringSetAddBehindPanics(t *testing.T) {
	s := NewExpiringSet[int](5)
	s.Add(1, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("an Add behind the last deadline did not panic")
		}
	}()
	s.Add(2, 9)
}
