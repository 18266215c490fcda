package sim

import "slices"

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
	sortMembers(b.members)
	b.ev = b.k.record()
	b.ev.batch = b
	b.k.requeue(b)
}

// sortMembers sorts by (time, seq). Fan-outs of a dozen members are the
// common case, and there a shifting insertion sort with the comparison
// inlined takes half the generic sort's time.
func sortMembers(ms []member) {
	if len(ms) > 16 {
		slices.SortFunc(ms, func(x, y member) int {
			if keyLess(x.at, x.seq, y.at, y.seq) {
				return -1
			}
			return 1
		})
		return
	}
	for i := 1; i < len(ms); i++ {
		m, j := ms[i], i
		for ; j > 0 && keyLess(m.at, m.seq, ms[j-1].at, ms[j-1].seq); j-- {
			ms[j] = ms[j-1]
		}
		ms[j] = m
	}
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
