// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is the CPS substrate of CAVENET: it plays the role ns-2's
// scheduler plays in the paper. Events are executed in strictly
// non-decreasing timestamp order; ties are broken by insertion order so a
// run is fully reproducible. The kernel is single-threaded by design — all
// model code (PHY, MAC, routing, traffic) runs inside event callbacks.
//
// The event queue is a bucketed calendar queue (calendar.go): O(1)
// amortized schedule and pop for the near-future timer churn that
// dominates a protocol run. The original container/heap implementation is
// kept as the reference this package's tests select (Kernel.oracle) — both
// pop in the identical strict (time, seq) order, and the randomized
// differential and fuzz tests assert bit-identical pop sequences.
//
// Event records are pooled: once an event fires or is cancelled its record
// returns to a free list and is reused by a later Schedule, so the steady
// state of a long run performs no per-event heap allocation. Callers hold
// Handle values, which pair the record pointer with a generation number;
// a handle to a recycled record is detected by the generation mismatch and
// behaves exactly like a handle to a fired event (not scheduled, Cancel is
// a no-op), never touching the record's new occupant.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"strconv"
)

// Time is a simulation timestamp in nanoseconds since the start of the run.
//
// Nanosecond resolution comfortably covers 802.11 slot times (20 µs) while
// an int64 still spans ~292 years of simulated time.
type Time int64

// Common durations expressed as Time deltas.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable simulation time.
const MaxTime Time = math.MaxInt64

// Seconds converts a floating-point second count to a Time.
func Seconds(s float64) Time { return Time(math.Round(s * float64(Second))) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time as seconds with microsecond precision.
func (t Time) String() string {
	return strconv.FormatFloat(t.Seconds(), 'f', 6, 64) + "s"
}

// Queue-position markers stored in event.index. The heap oracle keeps real
// indices (>= 0); the calendar queue only records which tier holds the
// record, because lazy cancellation never needs to locate it.
const (
	noIdx          = -1 // not queued
	calBucketIdx   = -2 // resident in a calendar bucket
	calOverflowIdx = -3 // resident in the far-future overflow heap
)

// event is a pooled scheduled-callback record. Exactly one of fn, afn,
// batch and set is set while the event is pending; a batch's entry is keyed
// by the batch's next member, a timer set's no later than its list head.
// gen increments every time the record is released, invalidating
// outstanding handles. dead marks a cancelled record that still physically
// occupies a calendar bucket (lazy cancellation); it is skipped and
// recycled when the scan reaches it. The record is 80 B.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	afn   func(any)
	arg   any
	batch *batch
	set   *TimerSet
	gen   uint64
	index int32 // heap position, or a cal*Idx tier marker, or noIdx
	dead  bool
}

// eventLess is the kernel's total order: time, then insertion sequence.
// Both queue implementations pop in exactly this order — it is the
// determinism contract every downstream golden depends on.
func eventLess(a, b *event) bool { return keyLess(a.at, a.seq, b.at, b.seq) }

// keyLess is the (time, seq) order on bare keys.
func keyLess(at Time, seq uint64, bt Time, bseq uint64) bool {
	if at != bt {
		return at < bt
	}
	return seq < bseq
}

// Handle identifies a scheduled event. It is a small value, cheap to copy
// and store; the zero Handle refers to no event (not scheduled, cancel is a
// no-op). A handle outlives its event harmlessly: once the event fires or
// is cancelled the handle reports not-scheduled even after the kernel
// recycles the underlying record for a new event.
type Handle struct {
	ev  *event
	gen uint64
}

// live reports whether the handle still refers to the pending incarnation
// of its event record. Cancellation bumps the generation immediately (even
// when the record is reclaimed lazily), so live is false the moment the
// event stops being pending.
func (h Handle) live() bool { return h.ev != nil && h.ev.gen == h.gen }

// Scheduled reports whether the event is still pending.
func (h Handle) Scheduled() bool { return h.live() }

// At reports the time the event is scheduled to fire; it returns 0 once the
// event has fired, been cancelled, or been recycled. Caveat: that sentinel
// is indistinguishable from a genuinely pending time-zero event — use When
// where the distinction matters.
func (h Handle) At() Time {
	if !h.live() {
		return 0
	}
	return h.ev.at
}

// eventQueue is the container/heap implementation — the pre-calendar event
// queue, kept as the differential reference (Kernel.oracle).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool { return eventLess(q[i], q[j]) }

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = int32(i)
	q[j].index = int32(j)
}

func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = int32(len(*q))
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = noIdx
	*q = old[:n-1]
	return ev
}

// Kernel is a discrete-event scheduler. Create one with NewKernel.
type Kernel struct {
	now Time
	seq uint64
	// oracle selects the original binary-heap event queue, the reference
	// the calendar's pop order is held to. No exported switch sets it: the
	// queue's contract is a value contract (same pushes and cancels ⇒ same
	// (time, seq) pop sequence), which this package's own tests —
	// TestCalendarMatchesHeapOracle, TestBatchMatchesScheduleArg,
	// FuzzKernelDifferential — check by building &Kernel{oracle: true}
	// (newHeapKernel in kernel_test.go). The fork stays in this file and
	// not in a _test.go because lifting it out needs a queue interface on
	// push/pop, the hottest calls in the program.
	oracle    bool
	heapq     eventQueue // reference path
	cal       calendar   // the path every run takes
	free      []*event   // recycled event records
	batchFree []*batch   // recycled batch storage
	sortBuf   []member   // radixSort's scratch, as long as the largest batch
	extra     int        // batch members and set items not counted by a queue entry
	boundAt   Time       // with boundSeq: drain's lower bound on queued keys
	boundSeq  uint64
	processed uint64
	stopped   bool
}

// NewKernel returns an empty kernel positioned at time zero, using the
// calendar-queue event set.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now reports the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Pending reports the number of events waiting to fire, batch members and
// armed TimerSet items included. Cancelled records awaiting lazy
// reclamation are not counted.
func (k *Kernel) Pending() int {
	if k.oracle {
		return len(k.heapq) + k.extra
	}
	return k.cal.pending() + k.extra
}

// Processed reports the total number of events executed so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// record takes an event record from the free list, or grows the pool.
func (k *Kernel) record() *event {
	if n := len(k.free); n > 0 {
		ev := k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		return ev
	}
	return &event{index: noIdx}
}

// alloc takes a record for a new event at time at and draws its sequence
// number.
func (k *Kernel) alloc(at Time) *event {
	ev := k.record()
	ev.at = at
	ev.seq = k.seq
	k.seq++
	return ev
}

// invalidate bumps the record's generation (cutting off every outstanding
// handle) and drops its callback references. The record may still occupy a
// calendar bucket afterwards; recycle returns it to the free list once it
// is physically out of the queue.
func (k *Kernel) invalidate(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
}

// recycle returns a record that is no longer queued to the free list.
func (k *Kernel) recycle(ev *event) {
	ev.dead = false
	ev.index = noIdx
	k.free = append(k.free, ev)
}

// release invalidates outstanding handles to ev and returns the record to
// the free list.
func (k *Kernel) release(ev *event) {
	k.invalidate(ev)
	k.recycle(ev)
}

func (k *Kernel) push(ev *event) Handle {
	if keyLess(ev.at, ev.seq, k.boundAt, k.boundSeq) {
		k.boundAt, k.boundSeq = ev.at, ev.seq // see drain
	}
	if k.oracle {
		heap.Push(&k.heapq, ev)
	} else {
		k.cal.insert(k, ev)
	}
	return Handle{ev: ev, gen: ev.gen}
}

// checkNotPast panics when at precedes the clock: scheduling in the past is
// always a model bug and silently clamping would hide it.
func (k *Kernel) checkNotPast(at Time) {
	if at < k.now {
		panic(fmt.Sprintf("sim: t=%v: schedule at %v is %v in the past", k.now, at, k.now-at))
	}
}

// Schedule queues fn to run at absolute time at. Scheduling in the past
// panics.
func (k *Kernel) Schedule(at Time, fn func()) Handle {
	k.checkNotPast(at)
	if fn == nil {
		panic("sim: schedule with nil callback")
	}
	ev := k.alloc(at)
	ev.fn = fn
	return k.push(ev)
}

// ScheduleArg queues fn(arg) to run at absolute time at. Unlike Schedule,
// the callback receives its state as an argument, so hot paths can pass a
// package-level func plus a pointer argument and avoid allocating a closure
// per event. The same past-time and nil-callback panics apply.
func (k *Kernel) ScheduleArg(at Time, fn func(any), arg any) Handle {
	k.checkNotPast(at)
	if fn == nil {
		panic("sim: schedule with nil callback")
	}
	ev := k.alloc(at)
	ev.afn = fn
	ev.arg = arg
	return k.push(ev)
}

// After queues fn to run d after the current time. Negative d panics.
func (k *Kernel) After(d Time, fn func()) Handle {
	return k.Schedule(k.now+d, fn)
}

// AfterArg queues fn(arg) to run d after the current time; see ScheduleArg.
func (k *Kernel) AfterArg(d Time, fn func(any), arg any) Handle {
	return k.ScheduleArg(k.now+d, fn, arg)
}

// Cancel removes a pending event from the queue. It reports whether the
// event was still pending; cancelling an already-fired, already-cancelled
// or recycled handle is a harmless no-op.
//
// On the calendar path cancellation is lazy: the handle dies immediately
// (Scheduled reports false, the generation is bumped), but the record stays
// in its bucket marked dead until the scan reaches it or a compaction sweep
// reclaims it — there is no positional removal to pay for.
func (k *Kernel) Cancel(h Handle) bool {
	if !h.live() {
		return false
	}
	ev := h.ev
	if k.oracle {
		if ev.index < 0 {
			return false
		}
		heap.Remove(&k.heapq, int(ev.index))
		ev.index = noIdx
		k.release(ev)
		return true
	}
	if ev.index != calBucketIdx && ev.index != calOverflowIdx {
		return false
	}
	k.invalidate(ev)
	ev.dead = true
	k.cal.cancelled(k, ev)
	return true
}

// popDue removes and returns the earliest pending event if it fires at or
// before deadline, and nil otherwise: one minimum lookup serves both the
// deadline test and the pop. On the calendar path the lookup may advance
// the scan cursor and reclaim cancelled records even when nothing is due —
// deterministic state changes that never affect pop order.
//
// A popped TimerSet entry not keyed at its list head is stale; it is
// settled here, above both queues, and never returned: it fires nothing, so
// Now() and Processed() do not move. A set is exactly its items as
// stand-alone Timers, by three clauses (L1 and L2 of drain, in the same
// form):
//
// (a) Every item's seq is drawn at an unchanged program point: Reset draws
// k.seq where Timer.Reset's AfterArg drew it, and a (re)queued entry
// borrows its head's key instead of drawing one.
//
// (b) The hold is constant, so a Reset's key (now + hold, k.seq) is the
// largest armed key: appended at the tail, it keeps the list in key order,
// and the head is the earliest armed item. The entry's key is no later
// than any armed item's: it was the head's key when pushed, and every key
// linked since is larger still (a Reset or Stop only unlinks what it
// moves). So the entry never has to move earlier:
// it is pushed only while the set is out of the queue, never re-keyed, and
// never pops after an armed item's key. The kernel still pops the
// smallest key among queued events and armed items first, and drain's
// bound — lowered by every push, raised by nothing a callback does to a
// set — stays a lower bound.
//
// (c) Only an entry carrying the head's (time, seq) fires, and it fires
// the head. A stale one is requeued at the head's key, or returned once
// the list is empty, so every stale pop is paid for by a Reset or Stop of
// the head it was keyed at, and popDue's loop ends.
//
// So every item fires at the (time, seq) its own Timer would have had, in
// the same place among all other events, with the same Now() and
// Processed() in every callback.
func (k *Kernel) popDue(deadline Time) *event {
	for {
		var ev *event
		if k.oracle {
			if len(k.heapq) == 0 || k.heapq[0].at > deadline {
				return nil
			}
			ev = heap.Pop(&k.heapq).(*event)
		} else if ev = k.cal.popDue(k, deadline); ev == nil {
			return nil
		}
		if ev.set == nil || ev.set.due() {
			return ev
		}
	}
}

// peek returns the earliest pending event without removing it, or nil when
// the queue is empty.
func (k *Kernel) peek() *event {
	if k.oracle {
		if len(k.heapq) == 0 {
			return nil
		}
		return k.heapq[0]
	}
	return k.cal.next(k)
}

// fire executes a popped event, advancing the clock to its timestamp; a
// batch entry fires every member that is due, or just one when single; a
// timer set's entry fires its head item.
func (k *Kernel) fire(ev *event, deadline Time, single bool) {
	if ev.batch != nil {
		k.drain(ev, deadline, single)
		return
	}
	if ev.set != nil {
		ev.set.fire()
		return
	}
	k.now = ev.at
	k.processed++
	fn, afn, arg := ev.fn, ev.afn, ev.arg
	// Recycle before running so the callback can schedule into the freed
	// record; its handle is distinguished by the bumped generation.
	k.release(ev)
	if fn != nil {
		fn()
	} else {
		afn(arg)
	}
}

// drain fires members of the batch whose queue entry ev was just popped,
// back to back, for as long as a queue holding one entry per member would
// have fired them next; then it requeues the batch under its next member's
// key, or recycles it once empty. Call an event's (time, seq) its key.
//
// (L1) Sequence numbers are drawn at unchanged program points in an
// unchanged order: Add/Append draw k.seq exactly where the ScheduleArg they
// replace stood, and a batch's queue entry borrows its next member's key
// instead of drawing one. So every member carries the key it would have
// carried as a stand-alone event.
//
// (L2) The kernel always fires the smallest key among all queued events and
// the next member of every pending batch. Members are sorted (Commit sorts;
// Append only accepts a time >= the last member's, with the largest seq
// ever drawn) and a queued batch's entry carries its next member's key, so
// the first member fired after a pop is right. A further member m fires
// without a pop only if key(m) < (boundAt, boundSeq), a lower bound on
// every key in the queue: it starts as the queue minimum (one peek, after
// the pop, so this batch is not in it) and every push a callback makes
// lowers it (Kernel.push: plain events, other batches' Commits, a timer
// set's first Reset). An Append to another queued batch lands behind
// that batch's entry key, as a Reset of a queued set lands behind the
// set's (popDue, clause b); an Append to this batch is seen by
// the loop itself, and a Cancel only removes keys — so the true minimum is
// never below the bound, which errs towards an early requeue, never a
// wrong firing.
//
// By induction the firing sequence, each callback's Now() and the k.seq
// trajectory are those of per-member scheduling, on both queues (drain sits
// above them and needs only peek/push/pop). Run, RunUntil and Step must not
// be called from a callback: a nested pop would overtake the members still
// held here.
func (k *Kernel) drain(ev *event, deadline Time, single bool) {
	b := ev.batch
	k.boundAt, k.boundSeq = MaxTime, math.MaxUint64
	if min := k.peek(); min != nil {
		k.boundAt, k.boundSeq = min.at, min.seq
	}
	k.extra++ // the popped entry no longer counts the head member
	for {
		m := &b.members[b.head]
		arg := m.arg
		m.arg = nil
		b.head++
		k.extra--
		k.now = m.at
		k.processed++
		b.fn(arg)
		if b.head == len(b.members) {
			k.recycleBatch(b)
			return
		}
		next := &b.members[b.head]
		if single || k.stopped || next.at > deadline ||
			!keyLess(next.at, next.seq, k.boundAt, k.boundSeq) {
			k.requeue(b)
			return
		}
	}
}

// Step executes the next pending event (one member, when that is a batch),
// advancing the clock to its timestamp. It reports false when the queue is
// empty.
func (k *Kernel) Step() bool {
	ev := k.popDue(MaxTime)
	if ev == nil {
		return false
	}
	k.fire(ev, MaxTime, true)
	return true
}

// Stop makes the current Run/RunUntil call return after the in-flight event
// completes. Pending events remain queued.
func (k *Kernel) Stop() { k.stopped = true }

// run executes events with timestamps <= deadline until none is due or Stop
// is called.
func (k *Kernel) run(deadline Time) {
	k.stopped = false
	for !k.stopped {
		ev := k.popDue(deadline)
		if ev == nil {
			break
		}
		k.fire(ev, deadline, false)
	}
}

// RunUntil executes events with timestamps <= end, then sets the clock to
// end. Events scheduled after end remain queued.
func (k *Kernel) RunUntil(end Time) {
	k.run(end)
	if !k.stopped && k.now < end {
		k.now = end
	}
}
