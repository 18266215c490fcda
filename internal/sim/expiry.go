package sim

// ExpiryHeap tracks soft deadlines for keyed protocol state whose
// lifetime can shrink (link tuples, neighbour entries) so that purging
// costs O(expired) instead of a full sweep of every live entry.
//
// The heap is lazy: it records the deadline a key had when it was pushed.
// If the underlying entry's lifetime is extended afterwards, the stale heap
// item still surfaces at the old deadline — Expire then asks the caller for
// the entry's current deadline and re-registers the key instead of expiring
// it. Callers therefore push once per entry creation, never per refresh,
// which keeps the heap at one item per live key.
//
// The zero value is an empty heap ready for use.
type ExpiryHeap[K comparable] struct {
	items []expiryItem[K]
}

type expiryItem[K comparable] struct {
	until Time
	key   K
}

// Len reports the number of registered items (live keys plus any stale
// duplicates that have not yet surfaced).
func (h *ExpiryHeap[K]) Len() int { return len(h.items) }

// Push registers key with the given deadline. Push once when the entry is
// created; lifetime extensions are discovered lazily through Expire's
// current callback.
func (h *ExpiryHeap[K]) Push(key K, until Time) {
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

func (h *ExpiryHeap[K]) pop() expiryItem[K] {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	var zero expiryItem[K]
	h.items[n] = zero // release the key for GC
	h.items = h.items[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h.items[l].until < h.items[min].until {
			min = l
		}
		if r < n && h.items[r].until < h.items[min].until {
			min = r
		}
		if min == i {
			break
		}
		h.items[i], h.items[min] = h.items[min], h.items[i]
		i = min
	}
	return top
}

// Expire surfaces every registered deadline that has passed. For each such
// key it calls current, which reports the entry's live deadline: when keep
// is true and the deadline is still in the future the key is re-registered
// at it (the entry was refreshed since the push); otherwise expired(key) is
// invoked and the caller is expected to delete the underlying entry. Keys
// whose entries are already gone must report keep=false.
func (h *ExpiryHeap[K]) Expire(now Time, current func(K) (Time, bool), expired func(K)) {
	for len(h.items) > 0 && h.items[0].until <= now {
		it := h.pop()
		if until, keep := current(it.key); keep && until > now {
			h.Push(it.key, until)
		} else {
			expired(it.key)
		}
	}
}

// ExpiringSet is a keyed set whose entries expire a constant hold after
// they were added: a reactive router's flood dedup table (netsim.Reactive's
// seen set, keyed by originator and request id). The hold is fixed when
// the set is built, so every Add's deadline is the latest yet: the
// deadlines sit in a FIFO queue beside the map, in deadline order, and
// Expire pops from its head at O(expired) cost.
//
// Exact against a lazy heap of the same deadlines: both retire a key at
// the first Expire whose now reaches the deadline of its last Add. A key
// added again before it expired has two queue entries; the older one pops
// first and finds the map's deadline still in the future, so the key
// survives until its own last entry pops.
type ExpiringSet[K comparable] struct {
	m    map[K]Time
	hold Time
	q    []expiryItem[K] // ring buffer of n deadlines from head, oldest first
	head int32
	n    int32
}

// NewExpiringSet returns an empty set whose entries expire hold after they
// are added. A negative hold panics.
func NewExpiringSet[K comparable](hold Time) ExpiringSet[K] {
	if hold < 0 {
		panic("sim: expiring set with negative hold")
	}
	return ExpiringSet[K]{hold: hold}
}

// Add installs key until now + hold. now must not go back between Adds
// (it is the kernel's clock). Adding a key that is already present extends
// it, at the cost of one more queue entry until the older one pops; dedup
// tables check Contains first.
func (s *ExpiringSet[K]) Add(key K, now Time) {
	until := now + s.hold
	if s.m == nil {
		s.m = make(map[K]Time)
	}
	if int(s.n) == len(s.q) {
		s.grow()
	}
	if s.n > 0 && until < s.at(s.n-1).until {
		panic("sim: ExpiringSet.Add behind the last deadline")
	}
	s.m[key] = until
	*s.at(s.n) = expiryItem[K]{until: until, key: key}
	s.n++
}

// at returns the i-th queued deadline, oldest first.
func (s *ExpiringSet[K]) at(i int32) *expiryItem[K] {
	return &s.q[(s.head+i)%int32(len(s.q))]
}

// grow doubles the ring, unwrapping it to start at index 0. From one slot
// up to 256 the capacities are the ones append gives a growing slice.
func (s *ExpiringSet[K]) grow() {
	q := make([]expiryItem[K], max(1, 2*len(s.q)))
	for i := int32(0); i < s.n; i++ {
		q[i] = *s.at(i)
	}
	s.q, s.head = q, 0
}

// Contains reports whether key is present (and not yet expired by Expire).
func (s *ExpiringSet[K]) Contains(key K) bool {
	_, ok := s.m[key]
	return ok
}

// Len reports the number of live entries.
func (s *ExpiringSet[K]) Len() int { return len(s.m) }

// Expire deletes every entry whose deadline has passed.
func (s *ExpiringSet[K]) Expire(now Time) {
	for s.n > 0 && s.at(0).until <= now {
		it := s.at(0)
		if s.m[it.key] <= now {
			delete(s.m, it.key)
		}
		*it = expiryItem[K]{} // release the key for GC
		s.head = (s.head + 1) % int32(len(s.q))
		s.n--
	}
}
