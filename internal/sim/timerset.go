package sim

// TimerSet is a set of resettable one-shot timers, indexed by small
// non-negative ints, that share one callback and occupy at most ONE queue
// entry between them — the timer analogue of Batch, for a protocol that
// keeps a deadline per peer (HELLO liveness: one item per neighbour).
//
// Each item behaves exactly like its own Timer: Reset draws its sequence
// number where Timer.Reset's AfterArg drew it, and the item fires fn(i) at
// that (time, seq) key, interleaved with every other event (Kernel.popDue
// has the argument). What the set saves is the queue traffic: a Reset that
// moves a deadline later — every HELLO refresh — cancels nothing and
// pushes nothing.
//
// How. Each armed item keeps its true key and has one registration in a
// small (time, seq) min-heap, at a key no later than the true one; the
// set's queue entry carries the heap minimum. A popped entry whose head
// registration is stale (its item was reset later, or stopped) fires
// nothing: the kernel re-registers the item at its true key, or drops the
// registration, and requeues the entry.
//
// Item storage grows on first Reset to the largest index used, ≈ 48 B per
// item. A TimerSet must not be copied.
type TimerSet struct {
	k     *Kernel
	fn    func(i int32)
	items []setItem
	regs  []setReg // min-heap on (at, seq), at most one registration per item
	ev    *event   // the queue entry, keyed by regs[0]; nil while not queued
}

// setItem is one timer: its true key while armed, and where its
// registration sits in regs (-1: none).
type setItem struct {
	at    Time
	seq   uint64
	reg   int32
	armed bool
}

// setReg registers item at key (at, seq), no later than the item's true key
// while it is armed.
type setReg struct {
	at   Time
	seq  uint64
	item int32
}

// NewTimerSet returns an empty set whose items fire fn(i).
func (k *Kernel) NewTimerSet(fn func(i int32)) *TimerSet {
	if fn == nil {
		panic("sim: timer set with nil callback")
	}
	return &TimerSet{k: k, fn: fn}
}

// Reset (re)arms item i to fire d from now, replacing its pending
// deadline. Negative d panics, as in Timer.Reset.
func (s *TimerSet) Reset(i int32, d Time) {
	k := s.k
	at := k.now + d
	k.checkNotPast(at)
	seq := k.seq
	k.seq++
	for int(i) >= len(s.items) {
		s.items = append(s.items, setItem{reg: -1})
	}
	it := &s.items[i]
	if !it.armed {
		it.armed = true
		k.extra++
	}
	it.at, it.seq = at, seq
	if it.reg >= 0 {
		r := &s.regs[it.reg]
		if !keyLess(at, seq, r.at, r.seq) {
			return // a later deadline: the registration still bounds it
		}
		r.at, r.seq = at, seq
		s.up(int(it.reg))
	} else {
		it.reg = int32(len(s.regs))
		s.regs = append(s.regs, setReg{at: at, seq: seq, item: i})
		s.up(int(it.reg))
	}
	if it.reg != 0 {
		return // not the new minimum: the entry's key still bounds it
	}
	if s.ev != nil {
		s.unqueue() // re-key: the entry may only ever move earlier by a push
	}
	s.requeue()
}

// Stop disarms item i and reports whether it was armed. Its registration
// is dropped lazily, when the entry pops at it.
func (s *TimerSet) Stop(i int32) bool {
	if !s.Active(i) {
		return false
	}
	s.items[i].armed = false
	s.k.extra--
	return true
}

// StopAll disarms every item and takes the set out of the queue.
func (s *TimerSet) StopAll() {
	for i := range s.items {
		it := &s.items[i]
		if it.armed {
			it.armed = false
			s.k.extra--
		}
		it.reg = -1
	}
	s.regs = s.regs[:0]
	if s.ev != nil {
		s.unqueue()
	}
}

// Active reports whether item i has a pending deadline.
func (s *TimerSet) Active(i int32) bool {
	return int(i) < len(s.items) && s.items[i].armed
}

// Queue accounting: k.extra counts armed items that no queue entry
// counts, so while the set's entry is queued it holds (armed items - 1),
// and while it is not, (armed items).

// requeue pushes the set's entry — just popped, or fresh — under the
// minimum registration's key, borrowing it instead of drawing one, or
// returns the record once no registration is left.
func (s *TimerSet) requeue() {
	k := s.k
	if len(s.regs) == 0 {
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
	s.ev.at, s.ev.seq = s.regs[0].at, s.regs[0].seq
	k.extra-- // the entry counts one armed item
	k.push(s.ev)
}

// unqueue cancels the set's queued entry.
func (s *TimerSet) unqueue() {
	s.ev.set = nil // a lazily cancelled record is recycled as a plain event
	s.k.Cancel(Handle{ev: s.ev, gen: s.ev.gen})
	s.ev = nil
	s.k.extra++
}

// due settles the set's just-popped entry: it reports true when the head
// registration is its item's live deadline (the caller fires it);
// otherwise it re-registers the item at its true key, or drops the
// registration of a stopped item, requeues the entry and reports false.
// A stale head fires nothing: the clock and Processed() do not move.
func (s *TimerSet) due() bool {
	r := &s.regs[0]
	it := &s.items[r.item]
	if it.armed && it.at == r.at && it.seq == r.seq {
		return true
	}
	s.k.extra++ // popped
	if it.armed {
		r.at, r.seq = it.at, it.seq
		s.down(0)
	} else {
		s.pop()
	}
	s.requeue()
	return false
}

// fire runs the live head registration of the set's just-popped entry.
func (s *TimerSet) fire() {
	k := s.k
	r := s.regs[0]
	s.items[r.item].armed = false // and popped: the two cancel in k.extra
	s.pop()
	k.now = r.at
	k.processed++
	s.requeue() // before the callback, which may Reset any item
	s.fn(r.item)
}

// pop removes the head registration.
func (s *TimerSet) pop() {
	s.items[s.regs[0].item].reg = -1
	n := len(s.regs) - 1
	if n > 0 {
		s.regs[0] = s.regs[n]
		s.items[s.regs[0].item].reg = 0
	}
	s.regs = s.regs[:n]
	s.down(0)
}

func (s *TimerSet) less(a, b int) bool {
	return keyLess(s.regs[a].at, s.regs[a].seq, s.regs[b].at, s.regs[b].seq)
}

func (s *TimerSet) swap(a, b int) {
	s.regs[a], s.regs[b] = s.regs[b], s.regs[a]
	s.items[s.regs[a].item].reg = int32(a)
	s.items[s.regs[b].item].reg = int32(b)
}

func (s *TimerSet) up(j int) {
	for j > 0 {
		p := (j - 1) / 2
		if !s.less(j, p) {
			return
		}
		s.swap(j, p)
		j = p
	}
}

func (s *TimerSet) down(j int) {
	n := len(s.regs)
	for {
		l, r, min := 2*j+1, 2*j+2, j
		if l < n && s.less(l, min) {
			min = l
		}
		if r < n && s.less(r, min) {
			min = r
		}
		if min == j {
			return
		}
		s.swap(j, min)
		j = min
	}
}
