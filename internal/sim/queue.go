package sim

import "math/bits"

// entry is one queued event: its (at, seq) key inline, so a comparison
// never dereferences a record, and the handle the record was pushed under.
// An entry is stale exactly when its handle is not live — the rule
// Handle.Scheduled uses: Cancel released the record, which may already
// carry another event under a later generation.
type entry struct {
	at  Time
	seq uint64
	h   Handle
}

// before is 1 when a's key precedes b's in the kernel's (time, seq) order
// and 0 otherwise: the borrow out of the 128-bit subtraction
// (at, seq) − (b.at, b.seq), with at's sign bit flipped so that an
// unsigned borrow orders signed times. It is arithmetic, not a branch, so
// picking the least of four children costs no mispredicted jumps; the
// descent in removeTop is most of the queue's time.
func before(a, b *entry) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at)^1<<63, uint64(b.at)^1<<63, borrow)
	return int(borrow)
}

// deadSlack is how many stale entries the queue tolerates beyond its live
// count before a compaction sweep; it keeps the heap at ≤ 2·live + 64.
const deadSlack = 64

// queue is the kernel's event set: a 4-ary min-heap of entries on
// (at, seq). A 4-ary heap is half as deep as a binary one, and the four
// children of a node share a cache line or two of inline keys.
//
// Cancellation is lazy. The kernel releases a cancelled record at once
// and calls cancelled; the stale entry stays in the heap until it surfaces
// at the top (min drops it) or until stale entries outnumber live ones by
// more than deadSlack, when compact sweeps them all out in one pass.
//
// A pop leaves a hole at the root instead of restoring the heap at once.
// Most callbacks schedule a follow-up, and the push that finds the hole
// takes the root and sifts down: one descent pays for the pop and the push
// together. Anything else that reads the heap first (min, a cancel)
// settles the hole with an ordinary removal.
type queue struct {
	es    []entry
	stale int  // entries in es whose handle is no longer live
	hole  bool // es[0] was popped; the next push fills it
}

// live reports the number of live entries.
func (q *queue) live() int {
	n := len(q.es) - q.stale
	if q.hole {
		n--
	}
	return n
}

// push adds an entry.
func (q *queue) push(e entry) {
	if q.hole {
		q.hole = false
		q.down(0, e)
		return
	}
	q.es = append(q.es, e)
	q.up(len(q.es) - 1)
}

// min returns the earliest live entry, or nil when none is queued. Stale
// entries at the top are dropped on the way.
func (q *queue) min() *entry {
	q.settle()
	for len(q.es) > 0 && !q.es[0].h.live() {
		q.stale--
		q.removeTop()
	}
	if len(q.es) == 0 {
		return nil
	}
	return &q.es[0]
}

// next is min for a reader that will push before it pops — drain seeding
// its bound: while a pop's hole is open, the least of the root's children
// is the earliest of the rest, and when it is live the hole stays open
// for the push. Otherwise it settles like min.
func (q *queue) next() *entry {
	if q.hole && len(q.es) > 1 {
		m := 1
		for j, end := 2, min(5, len(q.es)); j < end; j++ {
			m += (j - m) & -before(&q.es[j], &q.es[m])
		}
		if q.es[m].h.live() {
			return &q.es[m]
		}
	}
	return q.min()
}

// pop takes the top entry, which the caller has seen live through min,
// and leaves its slot as the hole.
func (q *queue) pop() entry {
	q.hole = true
	return q.es[0]
}

// settle removes the hole a pop left, if no push has filled it.
func (q *queue) settle() {
	if q.hole {
		q.hole = false
		q.removeTop()
	}
}

// removeTop deletes es[0]: the last entry takes its place and sifts down.
func (q *queue) removeTop() {
	n := len(q.es) - 1
	last := q.es[n]
	q.es[n] = entry{} // drop the record pointer
	q.es = q.es[:n]
	if n > 0 {
		q.down(0, last)
	}
}

// cancelled counts one more stale entry, and compacts once stale entries
// outnumber live ones by more than deadSlack — the bound that keeps
// cancel-heavy churn at O(live) memory: after a cancel the heap holds at
// most 2·live + deadSlack entries.
func (q *queue) cancelled() {
	q.settle()
	q.stale++
	if q.stale > q.live()+deadSlack {
		q.compact()
	}
}

// compact drops every stale entry and rebuilds the heap in place: each
// live entry moves down to the end of the heap built so far and sifts up
// within it.
func (q *queue) compact() {
	w := 0
	for _, e := range q.es {
		if e.h.live() {
			q.es[w] = e
			q.up(w)
			w++
		}
	}
	clear(q.es[w:])
	q.es = q.es[:w]
	q.stale = 0
}

// up moves es[i] towards the root while it precedes its parent.
func (q *queue) up(i int) {
	e := q.es[i]
	for i > 0 {
		p := (i - 1) / 4
		if before(&e, &q.es[p]) == 0 {
			break
		}
		q.es[i] = q.es[p]
		i = p
	}
	q.es[i] = e
}

// down puts e in slot i, moving it towards the leaves while a child
// precedes it.
func (q *queue) down(i int, e entry) {
	n := len(q.es)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			m += (j - m) & -before(&q.es[j], &q.es[m]) // j if it precedes m
		}
		if before(&q.es[m], &e) == 0 {
			break
		}
		q.es[i] = q.es[m]
		i = m
	}
	q.es[i] = e
}
