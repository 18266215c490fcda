package sim

import (
	"math/bits"
	"sort"
)

// calendar is the production event queue: a bucketed calendar queue
// (Brown, CACM 1988) specialized for the kernel's workload — a large set
// of near-future timers (HELLO/TC tickers, DCF backoffs, mobility ticks)
// churning at roughly fixed intervals, plus a thin tail of far-future
// deadlines.
//
// Structure. Time is divided into fixed-width "days" (width = 1<<shift
// nanoseconds); day d hashes to bucket d & mask over a power-of-two bucket
// array. Each bucket keeps its events in strict (time, seq) order behind a
// head cursor: popping advances the cursor instead of shifting the slice,
// so draining the large same-timestamp bursts a synchronized fleet
// produces (10k mobility ticks sharing one instant share one bucket) is
// O(1) per event rather than O(bucket). A scan cursor (scanDay) walks days
// in increasing order; because an event's day determines its bucket,
// visiting days in order visits event times in order, which is what makes
// the pop order bit-identical to the heap oracle's (time, seq) contract.
//
// Rolling window. Events within len(buckets) days ahead of the cursor go
// into buckets; everything farther out goes to overflow: a plain
// (time, seq) min-heap, the same shape ExpiryHeap uses for protocol
// deadlines. Overflow events are promoted into buckets when they become
// due — next compares the overflow head against the bucket minimum on
// every pop, so promotion can never be late. The window slides forward as
// the cursor advances; scheduling before the cursor (always >= now, so
// only possible after a peek advanced the cursor past a quiet stretch)
// simply rolls the cursor back, paid for by the scheduler of that event.
//
// Sizing. The bucket array doubles when live events exceed 2x the bucket
// count and rebuilds down when they fall under a quarter of it; each
// rebuild re-derives the day width from the live events' spread (width ~
// 2x the mean gap, rounded up to a power of two), so day arithmetic stays
// a shift and the active window tracks the workload's actual horizon. A
// scan that completes a full lap without a hit (the width has drifted far
// from the distribution) also triggers a rebuild, which re-parks the
// cursor on the minimum event.
//
// Lazy cancellation. Cancel marks the record dead and bumps its
// generation; the record is reclaimed when the scan reaches it, when a
// rebuild sweeps it, or — so cancel-heavy churn cannot grow memory without
// bound — by a compaction sweep once dead records outnumber live ones by
// calDeadSlack. Every reclamation feeds the kernel's free list, keeping
// the steady state allocation-free.
type calendar struct {
	buckets []calBucket
	mask    int64 // len(buckets) - 1
	shift   uint  // day width = 1 << shift nanoseconds
	scanDay int64 // next day the pop scan will inspect
	bLive   int   // live events resident in buckets
	bDead   int   // cancelled records still occupying buckets

	overflow []*event // min-heap on (time, seq): events beyond the window
	ovLive   int
	ovDead   int

	// shrinkStreak counts consecutive pops that left the queue below the
	// shrink threshold; see popDue for the hysteresis it implements.
	shrinkStreak int

	scratch []*event // rebuild staging, reused across rebuilds
}

// calBucket is one day list: evs[head:] holds the pending events in
// strict (time, seq) order. Slots before head are spent (nil) and are
// reused by insertions that precede the current minimum; the slice resets
// to its base once the cursor drains it.
type calBucket struct {
	head int
	evs  []*event
}

const (
	calMinBuckets = 64
	calMaxBuckets = 1 << 22
	calInitShift  = 20 // ~1 ms days before the first adaptive rebuild
	calMinShift   = 10 // ~1 µs floor on the day width
	calDeadSlack  = 64 // dead records tolerated beyond the live count
)

// pending reports the number of live queued events.
func (c *calendar) pending() int { return c.bLive + c.ovLive }

// day maps a timestamp to its day index under the current width.
func (c *calendar) day(at Time) int64 { return int64(at >> c.shift) }

// first returns the bucket's current head event, or nil when drained.
func (b *calBucket) first() *event {
	if b.head == len(b.evs) {
		return nil
	}
	return b.evs[b.head]
}

// dropHead retires the bucket's head slot, resetting the slice once empty
// so its capacity is reused from the base.
func (b *calBucket) dropHead() {
	b.evs[b.head] = nil
	b.head++
	if b.head == len(b.evs) {
		b.head = 0
		b.evs = b.evs[:0]
	}
}

// insert places a freshly scheduled event. The caller has set at/seq.
func (c *calendar) insert(k *Kernel, ev *event) {
	if c.buckets == nil {
		c.buckets = make([]calBucket, calMinBuckets)
		c.mask = calMinBuckets - 1
		c.shift = calInitShift
		c.scanDay = c.day(ev.at)
	}
	d := c.day(ev.at)
	if c.bLive+c.bDead+c.ovLive+c.ovDead == 0 {
		// Empty queue: re-anchor the cursor at the event so a long quiet
		// gap costs nothing to scan across.
		c.scanDay = d
	}
	if d-c.scanDay >= int64(len(c.buckets)) {
		ev.index = calOverflowIdx
		c.ovPush(ev)
		c.ovLive++
	} else {
		ev.index = calBucketIdx
		c.bucketPut(d, ev)
		c.bLive++
		if d < c.scanDay {
			c.scanDay = d
		}
	}
	if total := c.bLive + c.ovLive; total > 2*len(c.buckets) && len(c.buckets) < calMaxBuckets {
		c.rebuild(k)
	}
}

// bucketPut inserts ev into day d's bucket, keeping it sorted. In-order
// arrivals — the common case: timers re-armed at fixed intervals, and
// fan-outs arriving as one pre-sorted batch entry rather than a shuffle of
// per-receiver events — append; the rest insert positionally, shifting
// whichever side of the insertion point is shorter (the spent slots the
// cursor left behind absorb a shift towards the head).
func (c *calendar) bucketPut(d int64, ev *event) {
	b := &c.buckets[int(d&c.mask)]
	n := len(b.evs)
	if b.head == n {
		b.head = 0
		b.evs = append(b.evs[:0], ev)
		return
	}
	if eventLess(b.evs[n-1], ev) {
		b.evs = append(b.evs, ev)
		return
	}
	act := b.evs[b.head:]
	i := sort.Search(len(act), func(i int) bool { return eventLess(ev, act[i]) })
	if b.head > 0 && i <= len(act)-i {
		// Shift the (shorter) prefix into the spent slot in front.
		copy(b.evs[b.head-1:], b.evs[b.head:b.head+i])
		b.head--
	} else {
		b.evs = append(b.evs, nil)
		copy(b.evs[b.head+i+1:], b.evs[b.head+i:])
	}
	b.evs[b.head+i] = ev
}

// scanMin returns the minimum live event resident in buckets; the caller
// guarantees bLive > 0. Dead records surfacing at bucket heads are
// recycled on the way. On return, the result is the head of the bucket at
// scanDay.
func (c *calendar) scanMin(k *Kernel) *event {
	for steps := 0; ; {
		b := &c.buckets[int(c.scanDay&c.mask)]
		for ev := b.first(); ev != nil && ev.dead; ev = b.first() {
			c.bDead--
			k.recycle(ev)
			b.dropHead()
		}
		if ev := b.first(); ev != nil && c.day(ev.at) == c.scanDay {
			return ev
		}
		c.scanDay++
		steps++
		if steps > len(c.buckets) {
			// A full lap without a hit: the day width has drifted far from
			// the pending distribution. Rebuild re-derives it and parks the
			// cursor on the minimum event.
			c.rebuild(k)
			steps = 0
		}
	}
}

// next returns the earliest live event without removing it, or nil when
// the queue is empty. It leaves the result at the head of the bucket at
// scanDay, where popDue takes it from without a second search.
func (c *calendar) next(k *Kernel) *event {
	for {
		var ev *event
		if c.bLive > 0 {
			ev = c.scanMin(k)
		}
		// Promote overflow deadlines due before the bucket minimum. The
		// overflow peek is O(1), so the common no-promotion case costs one
		// comparison.
		promoted := false
		for len(c.overflow) > 0 {
			h := c.overflow[0]
			if h.dead {
				c.ovPop()
				c.ovDead--
				k.recycle(h)
				continue
			}
			if ev != nil && eventLess(ev, h) {
				break
			}
			c.ovPop()
			c.ovLive--
			d := c.day(h.at)
			h.index = calBucketIdx
			c.bucketPut(d, h)
			c.bLive++
			if d < c.scanDay {
				c.scanDay = d
			}
			promoted = true
			break
		}
		if promoted {
			continue // rescan: the promoted event may now be the minimum
		}
		return ev
	}
}

// popDue removes and returns the earliest live event if it fires at or
// before deadline; nil when the queue is empty or nothing is due yet.
func (c *calendar) popDue(k *Kernel, deadline Time) *event {
	ev := c.next(k)
	if ev == nil || ev.at > deadline {
		return nil
	}
	b := &c.buckets[int(c.scanDay&c.mask)]
	if b.first() != ev {
		panic("sim: calendar cursor desynchronized from minimum event")
	}
	b.dropHead()
	c.bLive--
	ev.index = noIdx
	// Shrink hysteresis: rebuilding down the moment the live count dips
	// under a quarter of the bucket count made a fleet that drains and
	// re-arms within one tick (the MetroArrivals shape: ~10k events popped
	// and rescheduled at every mobility beat) thrash a shrink rebuild at
	// the bottom of every drain and a grow rebuild right after. Only
	// shrink once the queue has stayed small for a full bucket-count's
	// worth of pops — a transient drain never gets that far, while a
	// genuinely settled queue still compacts. Rebuilds do not affect pop
	// order, so the hysteresis is invisible to the heap oracle.
	if total := c.bLive + c.ovLive; total*4 < len(c.buckets) && len(c.buckets) > calMinBuckets {
		c.shrinkStreak++
		if c.shrinkStreak > len(c.buckets) {
			c.rebuild(k)
		}
	} else {
		c.shrinkStreak = 0
	}
	return ev
}

// cancelled accounts for a lazily cancelled record and triggers a
// compaction sweep when dead records outnumber live ones by more than the
// slack — the bound that keeps cancel-heavy churn at O(live) memory.
func (c *calendar) cancelled(k *Kernel, ev *event) {
	if ev.index == calOverflowIdx {
		c.ovLive--
		c.ovDead++
	} else {
		c.bLive--
		c.bDead++
	}
	if c.bDead+c.ovDead > c.bLive+c.ovLive+calDeadSlack {
		c.compact(k)
	}
}

// compact sweeps every dead record out of the buckets and the overflow
// heap, recycling them to the kernel's free list.
func (c *calendar) compact(k *Kernel) {
	for bi := range c.buckets {
		b := &c.buckets[bi]
		w := 0
		for _, ev := range b.evs[b.head:] {
			if ev.dead {
				k.recycle(ev)
			} else {
				b.evs[w] = ev
				w++
			}
		}
		for i := w; i < len(b.evs); i++ {
			b.evs[i] = nil
		}
		b.evs = b.evs[:w]
		b.head = 0
	}
	w := 0
	for _, ev := range c.overflow {
		if ev.dead {
			k.recycle(ev)
		} else {
			c.overflow[w] = ev
			w++
		}
	}
	for i := w; i < len(c.overflow); i++ {
		c.overflow[i] = nil
	}
	c.overflow = c.overflow[:w]
	c.ovHeapify()
	c.bDead, c.ovDead = 0, 0
}

// rebuild resizes the bucket array to ~2x the live event count, re-derives
// the day width from the live events' spread, drops dead records, and
// redistributes everything (overflow included) under the new geometry. The
// cursor is parked on the minimum event's day.
func (c *calendar) rebuild(k *Kernel) {
	s := c.scratch[:0]
	for bi := range c.buckets {
		b := &c.buckets[bi]
		for i, ev := range b.evs[b.head:] {
			if ev.dead {
				k.recycle(ev)
			} else {
				s = append(s, ev)
			}
			b.evs[b.head+i] = nil
		}
		b.evs = b.evs[:0]
		b.head = 0
	}
	for i, ev := range c.overflow {
		if ev.dead {
			k.recycle(ev)
		} else {
			s = append(s, ev)
		}
		c.overflow[i] = nil
	}
	c.overflow = c.overflow[:0]
	c.bLive, c.bDead, c.ovLive, c.ovDead = 0, 0, 0, 0
	c.shrinkStreak = 0

	n := len(s)
	size := calMinBuckets
	for size < 2*n && size < calMaxBuckets {
		size <<= 1
	}
	if size != len(c.buckets) {
		c.buckets = make([]calBucket, size)
		c.mask = int64(size - 1)
	}
	if n > 0 {
		minAt, maxAt := s[0].at, s[0].at
		for _, ev := range s[1:] {
			if ev.at < minAt {
				minAt = ev.at
			}
			if ev.at > maxAt {
				maxAt = ev.at
			}
		}
		if maxAt > minAt {
			// Day width ~ 2x the mean inter-event gap, so the live set
			// occupies about half its days at ~2 events each and the window
			// (size * width ~ 4x the spread) leaves room to roll forward.
			c.shift = shiftFor(2 * ((maxAt - minAt) / Time(n)))
		}
		if maxShift := uint(62 - bits.Len(uint(size-1))); c.shift > maxShift {
			c.shift = maxShift
		}
		if c.shift < calMinShift {
			c.shift = calMinShift
		}
		c.scanDay = c.day(minAt)
	}
	for _, ev := range s {
		d := c.day(ev.at)
		if d-c.scanDay >= int64(size) {
			ev.index = calOverflowIdx
			c.ovPush(ev)
			c.ovLive++
		} else {
			ev.index = calBucketIdx
			c.bucketPut(d, ev)
			c.bLive++
		}
	}
	for i := range s {
		s[i] = nil
	}
	c.scratch = s[:0]
}

// shiftFor returns the smallest shift whose day width covers w.
func shiftFor(w Time) uint {
	if w <= 1 {
		return calMinShift
	}
	return uint(bits.Len64(uint64(w - 1)))
}

// ovPush adds ev to the overflow min-heap.
func (c *calendar) ovPush(ev *event) {
	c.overflow = append(c.overflow, ev)
	i := len(c.overflow) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(c.overflow[i], c.overflow[p]) {
			break
		}
		c.overflow[i], c.overflow[p] = c.overflow[p], c.overflow[i]
		i = p
	}
}

// ovPop removes and returns the overflow head.
func (c *calendar) ovPop() *event {
	h := c.overflow[0]
	n := len(c.overflow) - 1
	c.overflow[0] = c.overflow[n]
	c.overflow[n] = nil
	c.overflow = c.overflow[:n]
	c.ovSiftDown(0)
	return h
}

func (c *calendar) ovSiftDown(i int) {
	n := len(c.overflow)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && eventLess(c.overflow[l], c.overflow[min]) {
			min = l
		}
		if r < n && eventLess(c.overflow[r], c.overflow[min]) {
			min = r
		}
		if min == i {
			return
		}
		c.overflow[i], c.overflow[min] = c.overflow[min], c.overflow[i]
		i = min
	}
}

func (c *calendar) ovHeapify() {
	for i := len(c.overflow)/2 - 1; i >= 0; i-- {
		c.ovSiftDown(i)
	}
}
