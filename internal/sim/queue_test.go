package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refItem is one event in the reference: its key, its callback (for
// refKernel) and its position in refHeap, so a cancel removes it eagerly.
type refItem struct {
	at    Time
	seq   uint64
	fn    func()
	index int // -1 once popped or removed
}

// refHeap is the reference the queue is held to: a container/heap binary
// heap on (at, seq) with eager removal — the event queue the kernel had
// before the calendar.
type refHeap []*refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return keyLess(h[i].at, h[i].seq, h[j].at, h[j].seq)
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *refHeap) Push(x any) {
	it := x.(*refItem)
	it.index = len(*h)
	*h = append(*h, it)
}
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	old[len(old)-1] = nil
	it.index = -1
	*h = old[:len(old)-1]
	return it
}

// refKernel is a kernel on refHeap: the reference the ported kernel-level
// differentials run beside a real Kernel.
type refKernel struct {
	now Time
	seq uint64
	h   refHeap
}

// sched is what diffWorkload drives: a Kernel, or a refKernel.
type sched interface {
	Now() Time
	schedule(at Time, fn func()) (cancel func() bool)
	RunUntil(end Time)
	Step() bool
}

type kernelSched struct{ *Kernel }

func (k kernelSched) schedule(at Time, fn func()) func() bool {
	h := k.Schedule(at, fn)
	return func() bool { return k.Cancel(h) }
}

func newRefKernel() *refKernel { return &refKernel{} }

func (r *refKernel) Now() Time    { return r.now }
func (r *refKernel) Pending() int { return r.h.Len() }

func (r *refKernel) schedule(at Time, fn func()) func() bool {
	it := &refItem{at: at, seq: r.seq, fn: fn}
	r.seq++
	heap.Push(&r.h, it)
	return func() bool {
		if it.index < 0 {
			return false
		}
		heap.Remove(&r.h, it.index)
		return true
	}
}

func (r *refKernel) Step() bool {
	if r.h.Len() == 0 {
		return false
	}
	it := heap.Pop(&r.h).(*refItem)
	r.now = it.at
	it.fn()
	return true
}

func (r *refKernel) RunUntil(end Time) {
	for r.h.Len() > 0 && r.h[0].at <= end {
		r.Step()
	}
	if r.now < end {
		r.now = end
	}
}

// popRecord is one executed event as observed by a differential run:
// the event's insertion sequence (via the payload), its fire time and the
// clock at execution.
type popRecord struct {
	id  int
	at  Time
	now Time
}

// diffWorkload drives one scheduler through a deterministic pseudo-random
// schedule/cancel/run workload and returns the full pop log. The rng
// stream and the decision points depend only on (seed, cfg params), so
// the kernel and the reference see bit-identical operation sequences.
func diffWorkload(s sched, seed int64, ops int, cancelFrac float64, farFrac float64, burst int) []popRecord {
	rng := rand.New(rand.NewSource(seed))
	var log []popRecord
	var cancels []func() bool
	nextID := 0
	schedule := func(at Time) {
		id := nextID
		nextID++
		cancels = append(cancels, s.schedule(at, func() {
			log = append(log, popRecord{id: id, at: at, now: s.Now()})
		}))
	}
	for i := 0; i < ops; i++ {
		switch r := rng.Float64(); {
		case r < 0.55:
			at := s.Now() + Time(rng.Int63n(int64(50*Millisecond)))
			if rng.Float64() < farFrac {
				at = s.Now() + Time(rng.Int63n(int64(1000*Second)))
			}
			schedule(at)
			// Same-time bursts stress the seq tie-break.
			for b := 0; b < burst && rng.Float64() < 0.3; b++ {
				schedule(at)
			}
		case r < 0.55+cancelFrac:
			if len(cancels) > 0 {
				j := rng.Intn(len(cancels))
				cancels[j]()
				cancels[j] = cancels[len(cancels)-1]
				cancels = cancels[:len(cancels)-1]
			}
		case r < 0.9:
			s.RunUntil(s.Now() + Time(rng.Int63n(int64(20*Millisecond))))
		default:
			for n := rng.Intn(5); n > 0 && s.Step(); n-- {
			}
		}
	}
	for s.Step() {
	}
	return log
}

// TestQueueMatchesHeapReference: over randomized schedule/cancel/run
// sequences — cancel-heavy, far-future, same-time bursts — the kernel must
// pop the identical (time, seq, payload) sequence as a kernel on the
// container/heap reference.
func TestQueueMatchesHeapReference(t *testing.T) {
	cases := []struct {
		name       string
		ops        int
		cancelFrac float64
		farFrac    float64
		burst      int
	}{
		{"mixed", 4000, 0.15, 0.02, 2},
		{"cancel-heavy", 4000, 0.35, 0.01, 0},
		{"far-future", 3000, 0.10, 0.40, 1},
		{"bursty-ties", 3000, 0.10, 0.00, 8},
		{"tiny", 200, 0.20, 0.10, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				got := diffWorkload(kernelSched{NewKernel()}, seed, tc.ops, tc.cancelFrac, tc.farFrac, tc.burst)
				want := diffWorkload(newRefKernel(), seed, tc.ops, tc.cancelFrac, tc.farFrac, tc.burst)
				if len(got) != len(want) {
					t.Fatalf("seed %d: kernel popped %d events, reference %d", seed, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d: pop %d diverged: kernel %+v, reference %+v", seed, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestQueuePendingMatchesReference cross-checks the live count under lazy
// cancellation: Pending must never include stale entries, and Cancel must
// answer as an eager removal does.
func TestQueuePendingMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := kernelSched{NewKernel()}
		ref := newRefKernel()
		var ck, cr []func() bool
		for i := 0; i < 2000; i++ {
			switch r := rng.Float64(); {
			case r < 0.5:
				at := k.Now() + Time(rng.Int63n(int64(Second)))
				ck = append(ck, k.schedule(at, noop))
				cr = append(cr, ref.schedule(at, noop))
			case r < 0.85:
				if len(ck) > 0 {
					j := rng.Intn(len(ck))
					if got, want := ck[j](), cr[j](); got != want {
						t.Fatalf("seed %d: Cancel disagreed: kernel %v, reference %v", seed, got, want)
					}
					ck[j], ck = ck[len(ck)-1], ck[:len(ck)-1]
					cr[j], cr = cr[len(cr)-1], cr[:len(cr)-1]
				}
			default:
				end := k.Now() + Time(rng.Int63n(int64(200*Millisecond)))
				k.RunUntil(end)
				ref.RunUntil(end)
			}
			if k.Pending() != ref.Pending() {
				t.Fatalf("seed %d op %d: Pending: kernel %d, reference %d", seed, i, k.Pending(), ref.Pending())
			}
			if k.Now() != ref.Now() {
				t.Fatalf("seed %d op %d: Now: kernel %v, reference %v", seed, i, k.Now(), ref.Now())
			}
		}
	}
}

// TestQueueStreamsMatchReference drives the queue itself, as the kernel
// does, beside refHeap: pushes on a handful of instants (so most keys tie
// on time and order by seq alone), cancels that release the record to a
// pool the next push reuses under a later generation, pops that release
// it likewise, and after half the pops a peek through next while the
// pop's hole is open. After every op the live counts, and on a pop or a
// peek the keys, must agree; after every cancel the heap must hold at
// most 2·live + deadSlack entries.
func TestQueueStreamsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q queue
		var ref refHeap
		var pool []*event
		type out struct {
			h  Handle
			it *refItem
		}
		var outs []out // outstanding pushes, live or not
		seq := uint64(0)
		for op := 0; op < 20_000; op++ {
			switch r := rng.Intn(10); {
			case r < 5:
				var ev *event
				if n := len(pool); n > 0 {
					ev, pool = pool[n-1], pool[:n-1]
				} else {
					ev = &event{}
				}
				ev.at, ev.seq = Time(rng.Intn(8)), seq
				seq++
				h := Handle{ev: ev, gen: ev.gen}
				q.push(entry{at: ev.at, seq: ev.seq, h: h})
				it := &refItem{at: ev.at, seq: ev.seq}
				heap.Push(&ref, it)
				outs = append(outs, out{h, it})
			case r < 8:
				if len(outs) == 0 {
					break
				}
				j := rng.Intn(len(outs))
				o := outs[j]
				outs[j], outs = outs[len(outs)-1], outs[:len(outs)-1]
				if live := o.h.live(); live != (o.it.index >= 0) {
					t.Fatalf("seed %d op %d: handle live %v, reference queued %v", seed, op, live, o.it.index >= 0)
				}
				if !o.h.live() {
					break
				}
				o.h.ev.gen++
				pool = append(pool, o.h.ev)
				q.cancelled()
				heap.Remove(&ref, o.it.index)
				if len(q.es) > 2*q.live()+deadSlack {
					t.Fatalf("seed %d op %d: %d entries for %d live after a cancel", seed, op, len(q.es), q.live())
				}
			default:
				e := q.min()
				if (e == nil) != (ref.Len() == 0) {
					t.Fatalf("seed %d op %d: queue empty %v, reference %d queued", seed, op, e == nil, ref.Len())
				}
				if e == nil {
					break
				}
				want := heap.Pop(&ref).(*refItem)
				got := q.pop()
				if got.at != want.at || got.seq != want.seq {
					t.Fatalf("seed %d op %d: popped (%v, %d), reference (%v, %d)", seed, op, got.at, got.seq, want.at, want.seq)
				}
				got.h.ev.gen++
				pool = append(pool, got.h.ev)
				if rng.Intn(2) == 0 { // drain's peek, with the pop's hole open
					e := q.next()
					if (e == nil) != (ref.Len() == 0) || e != nil && (e.at != ref[0].at || e.seq != ref[0].seq) {
						t.Fatalf("seed %d op %d: next after a pop disagrees with the reference", seed, op)
					}
				}
			}
			if q.live() != ref.Len() {
				t.Fatalf("seed %d op %d: %d live entries, reference %d", seed, op, q.live(), ref.Len())
			}
		}
	}
}

// TestQueueCompactsAtSlack: stale entries are swept exactly when they
// first outnumber live ones by more than deadSlack — not one cancel sooner
// — and the sweep leaves a heap that pops the survivors in order.
func TestQueueCompactsAtSlack(t *testing.T) {
	const n = 200
	var q queue
	hs := make([]Handle, n)
	for i := range hs {
		ev := &event{at: Time(n - i), seq: uint64(i)}
		hs[i] = Handle{ev: ev, gen: ev.gen}
		q.push(entry{at: ev.at, seq: ev.seq, h: hs[i]})
	}
	// Cancel every third entry first, then the rest in order, so the
	// survivors are scattered through the heap.
	var order []int
	for i := 0; i < n; i += 3 {
		order = append(order, i)
	}
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			order = append(order, i)
		}
	}
	for c, i := range order {
		hs[i].ev.gen++
		q.cancelled()
		stale, live := c+1, n-c-1
		if stale > live+deadSlack {
			if len(q.es) != live || q.stale != 0 {
				t.Fatalf("cancel %d: %d entries, %d stale, want %d and 0 after the sweep", stale, len(q.es), q.stale, live)
			}
			break
		}
		if len(q.es) != n || q.stale != stale {
			t.Fatalf("cancel %d: %d entries, %d stale, want %d and %d: swept early", stale, len(q.es), q.stale, n, stale)
		}
	}
	last, popped := Time(-1), 0
	for e := q.min(); e != nil; e = q.min() {
		if !e.h.live() || e.at <= last {
			t.Fatalf("popped at=%v (live %v) after %v", e.at, e.h.live(), last)
		}
		last = q.pop().at
		popped++
	}
	if want := n - ((n+deadSlack)/2 + 1); popped != want {
		t.Fatalf("popped %d survivors, want %d", popped, want)
	}
}
