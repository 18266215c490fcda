package sim

import (
	"math/bits"
	"slices"
)

// Batch is a set of events that share one callback and occupy ONE queue
// entry between them — the kernel's answer to fan-out, where one cause (a
// radio transmission) schedules the same callback at many receivers.
//
// A batch is exactly equivalent to scheduling every member with ScheduleArg
// at the program point of its Add/Append: each member draws its own
// sequence number there, and the run loop fires members in the global
// (time, seq) order, interleaved with every other event (Kernel.drain has
// the argument). What a member gives up is its Handle: a batch is only for
// events that are never cancelled individually.
//
// Life cycle: NewBatch, Add in any time order, Commit (sorts and queues);
// the kernel must not run between the first Add and Commit. A committed
// batch takes in-order Appends. When its last member has fired the kernel
// recycles the storage and every copy of the handle goes stale, like the
// zero Batch.
type Batch struct {
	b   *batch
	gen uint64
}

// member is one batched event: the key it would carry as a stand-alone
// event, and its callback argument.
type member struct {
	at  Time
	seq uint64
	arg any
}

// batch is the pooled storage behind a Batch. members[head:] are pending,
// in (time, seq) order once committed; fired slots keep their key (Append
// reads the last one) but drop their argument.
type batch struct {
	k       *Kernel
	fn      func(any)
	members []member
	head    int
	ev      *event // the queue entry, keyed by members[head]; nil until Commit
	gen     uint64
}

// NewBatch returns an empty, uncommitted batch whose members run fn(arg).
func (k *Kernel) NewBatch(fn func(any)) Batch {
	if fn == nil {
		panic("sim: batch with nil callback")
	}
	var b *batch
	if n := len(k.batchFree); n > 0 {
		b = k.batchFree[n-1]
		k.batchFree[n-1] = nil
		k.batchFree = k.batchFree[:n-1]
	} else {
		b = &batch{k: k}
	}
	b.fn = fn
	return Batch{b: b, gen: b.gen}
}

// open returns the batch's storage if the handle is live and the batch is
// still being built (committed false) or queued or draining (true).
func (h Batch) open(committed bool) *batch {
	if h.b == nil || h.b.gen != h.gen || (h.b.ev != nil) != committed {
		return nil
	}
	return h.b
}

// add draws the member's sequence number — at this program point, which is
// what makes a batch indistinguishable from per-member ScheduleArg calls.
func (b *batch) add(at Time, arg any) {
	k := b.k
	k.checkNotPast(at)
	b.members = append(b.members, member{at: at, seq: k.seq, arg: arg})
	k.seq++
	k.extra++
}

// Add gives an uncommitted batch a member firing fn(arg) at absolute time
// at, in any time order. A time in the past panics, as in ScheduleArg.
func (h Batch) Add(at Time, arg any) {
	b := h.open(false)
	if b == nil {
		panic("sim: Add on a committed or recycled batch")
	}
	b.add(at, arg)
}

// Commit sorts the members and queues the batch; an empty one is recycled.
func (h Batch) Commit() {
	b := h.open(false)
	if b == nil {
		panic("sim: Commit on a committed or recycled batch")
	}
	if len(b.members) == 0 {
		b.k.recycleBatch(b)
		return
	}
	sortMembers(b.members, &b.k.sortBuf)
	b.ev = b.k.record()
	b.ev.batch = b
	b.k.requeue(b)
}

// insertionMax is the largest batch sortMembers hands to insertionSort:
// up to about 30 members on the propagation grid the shifts cost less than
// radixSort's two passes (BenchmarkBatchCommit; the crossover is in PERF.md).
const insertionMax = 28

// sortMembers sorts a batch by (time, seq), the order its members fire in.
// The shape it is tuned for is a phy fan-out at metro density: ≈ 145
// members whose arrival times spread over at most 1 835 ns of propagation
// delay; the one-member signal-end batches need no work. Up to
// insertionMax members go to a shifting insertion sort, more to radixSort,
// which grows the kernel's scratch buffer to the largest batch it has seen.
func sortMembers(ms []member, scratch *[]member) {
	if len(ms) <= insertionMax {
		insertionSort(ms)
		return
	}
	radixSort(ms, scratch)
}

// insertionSort sorts ms by (time, seq) in place.
func insertionSort(ms []member) {
	for i := 1; i < len(ms); i++ {
		m, j := ms[i], i
		for ; j > 0 && keyLess(m.at, m.seq, ms[j-1].at, ms[j-1].seq); j-- {
			ms[j] = ms[j-1]
		}
		ms[j] = m
	}
}

// radixSort sorts ms by (time, seq) with a least-significant-digit radix
// sort on at − min(at), ping-ponging through *scratch. It is exact:
//
//  1. add draws k.seq at each call, and k.seq only grows, so at Commit the
//     members are in strictly increasing seq order;
//  2. so the (time, seq) order is exactly a stable sort by time;
//  3. each pass is a stable counting sort on one digit (the scatter walks
//     its source forwards), so the passes compose to a stable sort on every
//     bit they cover; one pass per 8-bit digit of the spread
//     max(at) − min(at), its bits split evenly over the passes, covers
//     every key bit: a spread of 0 needs no pass, a phy fan-out's 11 bits
//     two passes of 6 (64 buckets each).
//
// Any spread works, up to the full int64 range. The rule this rests on: a
// batch sort must be stable in add order.
func radixSort(ms []member, scratch *[]member) {
	lo, hi := ms[0].at, ms[0].at
	for i := range ms {
		lo, hi = min(lo, ms[i].at), max(hi, ms[i].at)
	}
	keyBits := bits.Len64(uint64(hi) - uint64(lo))
	if keyBits == 0 {
		return // all one time: seq order is the order
	}
	passes := (keyBits + 7) / 8
	width := (keyBits + passes - 1) / passes // ≤ 8: the passes split the bits evenly
	mask := uint64(1)<<width - 1
	*scratch = slices.Grow((*scratch)[:0], len(ms))[:len(ms)]
	src, dst := ms, *scratch
	for shift := 0; shift < keyBits; shift += width {
		var start [256]int32 // digit → its first slot in dst
		for _, m := range src {
			start[byte((uint64(m.at)-uint64(lo))>>shift&mask)]++
		}
		var sum int32
		for d := range start[:mask+1] {
			start[d], sum = sum, sum+start[d]
		}
		for i := range src {
			d := byte((uint64(src[i].at) - uint64(lo)) >> shift & mask)
			dst[start[d]] = src[i]
			start[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ms[0] { // an odd number of passes ends in the scratch
		copy(ms, src)
	}
	clear(*scratch) // the kernel keeps the buffer, not the arguments
}

// Append adds a member to a committed batch that is still queued or
// draining, and reports whether it did. It refuses — drawing no sequence
// number, so the caller can schedule the event another way at the same
// program point — when the batch has finished, or when at precedes the
// batch's last member and would break its order (at or after it, the fresh
// sequence number sorts the newcomer last by construction).
func (h Batch) Append(at Time, arg any) bool {
	b := h.open(true)
	if b == nil || at < b.members[len(b.members)-1].at {
		return false
	}
	b.add(at, arg)
	return true
}

// requeue (re)inserts the batch's queue entry under its next member's key.
func (k *Kernel) requeue(b *batch) {
	next := &b.members[b.head]
	b.ev.at, b.ev.seq = next.at, next.seq
	k.extra-- // that member is now counted by the queue
	k.push(b.ev)
}

// recycleBatch returns a finished batch's storage to the pool, cutting off
// every outstanding handle.
func (k *Kernel) recycleBatch(b *batch) {
	if b.ev != nil {
		b.ev.batch = nil
		k.release(b.ev)
	}
	b.gen++
	b.fn, b.ev = nil, nil
	b.members, b.head = b.members[:0], 0
	k.batchFree = append(k.batchFree, b)
}
