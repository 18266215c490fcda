package sim

// TimerSet is a set of resettable one-shot timers, indexed by small
// non-negative ints, that share one callback and one hold, and occupy at
// most ONE queue entry between them — the timer analogue of Batch, for a
// protocol that keeps a deadline per peer (HELLO liveness: one item per
// neighbour, each lost a constant hold after it was last heard).
//
// Each item behaves exactly like its own Timer reset to the hold: Reset
// draws its sequence number where Timer.Reset's AfterArg drew it, and the
// item fires fn(i) at that (time, seq) key, interleaved with every other
// event (Kernel.popDue has the argument). What the set saves is the queue
// traffic: a Reset cancels nothing and pushes nothing unless the set was
// out of the queue.
//
// How. The hold is the same for every Reset, so the last Reset is the
// latest deadline: armed items form one list in last-Reset order (a
// holdList), which is their key order, and a Reset unlinks its item and
// appends it at the tail (Varghese & Lauck's scheme 1 for a constant
// timeout). The set's queue entry carries a key no later than the head's.
// A popped entry whose key is not the head's fires nothing: the kernel
// requeues it at the head's key.
//
// Items live in Pages: a Reset of an index past the last one appends items
// up to it, 24 B each, a page of 16 at a time, and no item ever moves. A
// TimerSet must not be copied.
type TimerSet struct {
	holdList[timerKey] // armed items, earliest key first
	k                  *Kernel
	fn                 func(i int32)
	hold               Time
	ev                 *event // the queue entry, keyed no later than head; nil while not queued
}

// timerKey is an armed item's key.
type timerKey struct {
	at  Time
	seq uint64
}

// setItem is one timer: its key while armed, and its list neighbours (next
// is unlinked while the item is disarmed).
type setItem = holdItem[timerKey]

// NewTimerSet returns an empty set whose items fire fn(i) hold after their
// last Reset. A negative hold panics.
func (k *Kernel) NewTimerSet(hold Time, fn func(i int32)) *TimerSet {
	if fn == nil {
		panic("sim: timer set with nil callback")
	}
	if hold < 0 {
		panic("sim: timer set with negative hold")
	}
	return &TimerSet{holdList: holdList[timerKey]{head: noItem, tail: noItem}, k: k, fn: fn, hold: hold}
}

// Reset (re)arms item i to fire the set's hold from now, replacing its
// pending deadline.
func (s *TimerSet) Reset(i int32) {
	k := s.k
	seq := k.seq
	k.seq++
	for i >= s.items.Len() {
		s.items.Append(setItem{next: unlinked})
	}
	it := s.items.At(i)
	if it.next == unlinked {
		k.extra++
	} else {
		s.unlink(i)
	}
	it.val = timerKey{at: k.now + s.hold, seq: seq}
	s.link(i)
	if s.ev == nil {
		s.requeue()
	}
}

// Stop disarms item i and reports whether it was armed. A queued entry
// keyed at it is settled lazily, when it pops.
func (s *TimerSet) Stop(i int32) bool {
	if !s.Active(i) {
		return false
	}
	s.unlink(i)
	s.k.extra--
	return true
}

// StopAll disarms every item and takes the set out of the queue.
func (s *TimerSet) StopAll() {
	for i := s.head; i != noItem; {
		it := s.items.At(i)
		i, it.next = it.next, unlinked
		s.k.extra--
	}
	s.head, s.tail = noItem, noItem
	if s.ev != nil {
		s.ev.set = nil // Cancel returns the record to the pool as a plain one
		s.k.Cancel(Handle{ev: s.ev, gen: s.ev.gen})
		s.ev = nil
		s.k.extra++
	}
}

// Active reports whether item i has a pending deadline.
func (s *TimerSet) Active(i int32) bool {
	return i < s.items.Len() && s.items.At(i).next != unlinked
}

// Queue accounting: k.extra counts armed items that no queue entry
// counts, so while the set's entry is queued it holds (armed items - 1),
// and while it is not, (armed items).

// requeue pushes the set's entry — just popped, or fresh — under the
// head's key, borrowing it instead of drawing one, or returns the record
// once the list is empty.
func (s *TimerSet) requeue() {
	k := s.k
	if s.head == noItem {
		if s.ev != nil {
			s.ev.set = nil
			k.release(s.ev)
			s.ev = nil
		}
		return
	}
	if s.ev == nil {
		s.ev = k.record()
		s.ev.set = s
	}
	s.ev.at, s.ev.seq = s.items.At(s.head).val.at, s.items.At(s.head).val.seq
	k.extra-- // the entry counts one armed item
	k.push(s.ev)
}

// due settles the set's just-popped entry: it reports true when the entry
// carries the head's key (the caller fires the head); otherwise it
// requeues the entry at the head's key, or returns it once the list is
// empty, and reports false. A stale pop fires nothing: the clock and
// Processed() do not move.
func (s *TimerSet) due() bool {
	if h := s.head; h != noItem && s.items.At(h).val.at == s.ev.at && s.items.At(h).val.seq == s.ev.seq {
		return true
	}
	s.k.extra++ // popped
	s.requeue()
	return false
}

// fire runs the head of the set's just-popped entry.
func (s *TimerSet) fire() {
	k := s.k
	i := s.head
	s.unlink(i) // disarmed and popped: the two cancel in k.extra
	k.now = s.ev.at
	k.processed++
	s.requeue() // before the callback, which may Reset any item
	s.fn(i)
}
