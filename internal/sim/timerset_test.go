package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// timers is a timer set as its caller sees it. TimerSet implements it;
// eachTimers is the reference it must be indistinguishable from.
type timers interface {
	Reset(i int32)
	Stop(i int32) bool
	StopAll()
	Active(i int32) bool
}

// eachTimers keeps one Timer per item, each reset to the same hold — what
// the code a set replaces did.
type eachTimers struct {
	k    *Kernel
	hold Time
	fn   func(int32)
	ts   []*Timer
}

func (e *eachTimers) Reset(i int32) {
	for int(i) >= len(e.ts) {
		e.ts = append(e.ts, nil)
	}
	if e.ts[i] == nil {
		e.ts[i] = NewTimer(e.k, func() { e.fn(i) })
	}
	e.ts[i].Reset(e.hold)
}

func (e *eachTimers) Stop(i int32) bool { return e.Active(i) && e.ts[i].Stop() }

func (e *eachTimers) StopAll() {
	for _, t := range e.ts {
		if t != nil {
			t.Stop()
		}
	}
}

func (e *eachTimers) Active(i int32) bool {
	return int(i) < len(e.ts) && e.ts[i] != nil && e.ts[i].Active()
}

// newTimers returns a real set with the given hold, or its per-item
// reference.
func newTimers(k *Kernel, set bool, hold Time, fn func(int32)) timers {
	if set {
		return k.NewTimerSet(hold, fn)
	}
	return &eachTimers{k: k, hold: hold, fn: fn}
}

// timerStep is one observation of a differential run: a plain event or
// batch member firing (id >= 0), an item firing, or a driver marker, with
// the kernel's clock, counters and sequence counter at that point.
type timerStep struct {
	id        int
	item      int32 // set index * 100 + item, for stepItem
	flag      bool  // Stop's or Active's answer, for stepStop / stepActive
	now       Time
	processed uint64
	pending   int
	seq       uint64
}

const (
	stepItem   = -10
	stepStop   = -11
	stepActive = -12
)

// timerWorkload drives one kernel through a deterministic pseudo-random
// mix of item Resets, Stops, StopAlls and Active queries on two timer sets
// (one hold each: the first cycles by seed through zero, the same-instant
// grid, a millisecond and 15 s, the second is drawn), plain
// events, cancels, fan-out batches, bounded runs, single steps and Stop()
// calls, issuing the same kinds of work from inside every callback, and
// returns everything it observed. Items go through real TimerSets or
// through eachTimers; nothing else depends on which, so the logs of the
// two must be equal entry for entry.
func timerWorkload(k *Kernel, set bool, seed int64, ops int) []timerStep {
	rng := rand.New(rand.NewSource(seed))
	var log []timerStep
	observe := func(id int, item int32, flag bool) {
		log = append(log, timerStep{id: id, item: item, flag: flag, now: k.Now(),
			processed: k.Processed(), pending: k.Pending(), seq: k.seq})
	}
	nextID := 0
	// Delays cluster on zero and a 3-value microsecond grid, so same-instant
	// ties (ordered by seq alone) are common, spread over a few RunUntil
	// horizons, so resets move deadlines both ways, and a tenth land
	// 10–30 s out, far behind the near churn.
	delay := func() Time {
		switch rng.Intn(10) {
		case 0, 1:
			return 0
		case 2, 3:
			return Time(rng.Intn(3)) * Microsecond
		case 4:
			return Time(rng.Intn(20)+10) * Second
		}
		return Time(rng.Int63n(int64(2 * Millisecond)))
	}
	sizes := [...]int32{40, 5} // the first set's items fill three pages
	firstHolds := [...]Time{0, Microsecond, 2 * Microsecond, 700 * Microsecond, 15 * Second}
	holds := [len(sizes)]Time{firstHolds[seed%int64(len(firstHolds))], delay()}
	var sets [len(sizes)]timers
	var handles []Handle
	var plainFire func(any)
	var act func()
	plain := func(d Time) {
		handles = append(handles, k.ScheduleArg(k.Now()+d, plainFire, nextID))
		nextID++
	}
	setOp := func() {
		g := rng.Intn(len(sets))
		i := int32(rng.Intn(int(sizes[g])))
		switch r := rng.Intn(20); {
		case r < 13:
			sets[g].Reset(i)
		case r < 17:
			observe(stepStop, int32(g)*100+i, sets[g].Stop(i))
		case r < 18:
			sets[g].StopAll()
		default:
			observe(stepActive, int32(g)*100+i, sets[g].Active(i))
		}
	}
	act = func() {
		switch rng.Intn(12) {
		case 0, 1, 2, 3:
			setOp()
		case 4:
			plain(delay())
		case 5:
			if len(handles) > 0 {
				j := rng.Intn(len(handles))
				k.Cancel(handles[j])
				handles[j], handles = handles[len(handles)-1], handles[:len(handles)-1]
			}
		case 6:
			b := k.NewBatch(plainFire)
			for m := rng.Intn(5); m > 0; m-- {
				b.Add(k.Now()+delay(), nextID)
				nextID++
			}
			b.Commit()
		case 7:
			if rng.Intn(3) == 0 {
				k.Stop()
			}
		}
	}
	plainFire = func(a any) {
		observe(a.(int), 0, false)
		act()
	}
	for g := range sets {
		sets[g] = newTimers(k, set, holds[g], func(i int32) {
			observe(stepItem, int32(g)*100+i, false)
			if rng.Intn(3) == 0 {
				sets[g].Reset(i) // re-armed from its own expiry
			}
			act()
		})
	}
	for n := 0; n < ops; n++ {
		switch r := rng.Intn(20); {
		case r < 10:
			setOp()
		case r < 14:
			act()
		case r < 17:
			k.RunUntil(k.Now() + Time(rng.Int63n(int64(Millisecond))))
		default:
			for s := rng.Intn(5); s > 0 && k.Step(); s-- {
			}
		}
		observe(stepOp, 0, false)
	}
	for k.Pending() > 0 { // callbacks calling Stop() end a Run early
		k.Run()
		observe(stepOp, 0, false)
	}
	// Stopped items may leave the set's entry queued, which counts
	// nothing: a last Run pops it, and must not move the clock.
	k.Run()
	observe(stepOp, 0, false)
	return log
}

// TestTimerSetMatchesTimers is the gate on the clauses at Kernel.popDue:
// items of a TimerSet and one Timer per item must be indistinguishable —
// identical (time, item) firing sequences, Stop and Active answers, Now(),
// Processed(), Pending() and k.seq at every firing and after every driver
// op.
func TestTimerSetMatchesTimers(t *testing.T) {
	var items, stops, plains int
	for seed := int64(1); seed <= 24; seed++ {
		ref := timerWorkload(NewKernel(), false, seed, 2000)
		got := timerWorkload(NewKernel(), true, seed, 2000)
		for i := range got {
			if i >= len(ref) || got[i] != ref[i] {
				var want timerStep
				if i < len(ref) {
					want = ref[i]
				}
				t.Fatalf("seed %d: set diverged from each at observation %d:\n got %+v\nwant %+v",
					seed, i, got[i], want)
			}
		}
		if len(got) != len(ref) {
			t.Fatalf("seed %d: set made %d observations, each %d", seed, len(got), len(ref))
		}
		for _, s := range ref {
			switch {
			case s.id == stepItem:
				items++
			case s.id == stepStop && s.flag:
				stops++
			case s.id >= 0:
				plains++
			}
		}
	}
	// The workload must actually exercise what it claims to.
	if items < 10_000 || stops < 800 || plains < 5000 {
		t.Fatalf("thin workload: %d items fired, %d armed items stopped, %d plain events fired", items, stops, plains)
	}
}

// TestTimerSetOneQueueEntry: 10 000 items reset 50 times each — the
// HELLO-refresh shape — leave exactly one record in the queue and no
// cancelled ones, while Pending() still counts every armed item and the
// list holds each once, in last-Reset order.
func TestTimerSetOneQueueEntry(t *testing.T) {
	const items, rounds = 10_000, 50
	k := NewKernel()
	s := k.NewTimerSet(3*Second, func(int32) { t.Fatal("no deadline is due") })
	for r := 0; r < rounds; r++ {
		for i := int32(0); i < items; i++ {
			s.Reset((i + int32(r)) % items)
		}
		k.RunUntil(k.Now() + Millisecond)
	}
	if live, stale := k.q.live(), k.q.stale; live != 1 || stale != 0 {
		t.Fatalf("queue holds %d live and %d stale entries, want 1 and 0", live, stale)
	}
	if k.Pending() != items {
		t.Fatalf("Pending = %d, want %d armed items", k.Pending(), items)
	}
	n, prev := int32(0), int32(noItem)
	for i := s.head; i != noItem; prev, i = i, s.items.At(i).next {
		if want := (n + rounds - 1) % items; i != want || s.items.At(i).prev != prev {
			t.Fatalf("list position %d holds item %d (prev %d), want %d (prev %d)", n, i, s.items.At(i).prev, want, prev)
		}
		n++
	}
	if n != items || s.tail != prev {
		t.Fatalf("list holds %d items ending at %d, want %d ending at %d", n, prev, items, s.tail)
	}
}

// TestTimerSetFiresInGlobalOrder is the contract in miniature: items fire
// in (deadline, reset order), a plain event whose key falls between two
// same-instant items fires between them, a Reset moves an item behind
// every other (the head's included, whose stale entry then fires
// nothing), Stop and StopAll silence items, and counters count items — on
// a new kernel and on a used one.
func TestTimerSetFiresInGlobalOrder(t *testing.T) {
	forBothKernels(t, testTimerSetFiresInGlobalOrder)
}

func testTimerSetFiresInGlobalOrder(t *testing.T, k *Kernel) {
	var order []int32
	s := k.NewTimerSet(2*Second, func(i int32) { order = append(order, i) })
	s.Reset(7) // the head; reset at 1 s, so the entry keyed here is stale
	s.Reset(3)
	k.Schedule(2*Second, func() { order = append(order, 100) })
	s.Reset(1) // same instant, drawn after the plain event: fires after it
	s.Reset(6)
	s.Reset(5)
	s.Stop(5)
	if k.Pending() != 5 || !s.Active(6) || s.Active(5) || s.Active(99) {
		t.Fatalf("Pending %d, Active(6, 5, 99) = %v %v %v; want 5, true false false",
			k.Pending(), s.Active(6), s.Active(5), s.Active(99))
	}
	k.RunUntil(Second / 2)
	s.Reset(2)
	s.Reset(4)
	k.RunUntil(Second)
	s.Reset(7)
	s.Reset(6)
	s.Reset(4)
	k.Run()
	want := []int32{3, 100, 1, 2, 7, 6, 4}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if k.Now() != 3*Second || k.Processed() != 7 || k.Pending() != 0 {
		t.Fatalf("Now %v Processed %d Pending %d, want 3s, 7, 0", k.Now(), k.Processed(), k.Pending())
	}
	s.Reset(0)
	s.Reset(1)
	s.StopAll()
	if k.Pending() != 0 || s.Stop(0) {
		t.Fatalf("after StopAll: Pending %d, Stop(0) reported an armed item", k.Pending())
	}
	k.Run()
	if len(order) != len(want) || k.Now() != 3*Second {
		t.Fatalf("stopped items fired: %v, Now %v", order, k.Now())
	}
}

func TestTimerSetMisusePanics(t *testing.T) {
	k := NewKernel()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("nil callback", func() { k.NewTimerSet(Second, nil) })
	mustPanic("negative hold", func() { k.NewTimerSet(-1, func(int32) {}) })
}

// TestTimerSetSteadyStateAllocFree: once its items exist, a set refreshed,
// fired and re-armed allocates nothing — the items and the queue entry are
// reused.
func TestTimerSetSteadyStateAllocFree(t *testing.T) {
	forBothKernels(t, testTimerSetSteadyStateAllocFree)
}

func testTimerSetSteadyStateAllocFree(t *testing.T, k *Kernel) {
	s := k.NewTimerSet(3*Millisecond, func(i int32) {})
	cycle := func() {
		for i := int32(0); i < 32; i++ {
			s.Reset(i)
		}
		k.RunUntil(k.Now() + Millisecond)
		for i := int32(0); i < 32; i += 2 {
			s.Reset(i)
		}
		s.Stop(3)
		k.Run()
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady-state set cycle allocated %v times per op", allocs)
	}
}

// TestEventRecordSize: the record is its key, its callback, its batch or
// set and its generation, 72 B in the 80-byte size class (48 B with 4-byte
// words); its queue position lives in the heap entry, not here.
func TestEventRecordSize(t *testing.T) {
	want := uintptr(72)
	if unsafe.Sizeof(uintptr(0)) == 4 {
		want = 48
	}
	if n := unsafe.Sizeof(event{}); n != want {
		t.Fatalf("event record is %d B, want %d", n, want)
	}
}

// TestTimerSetItemSize: a neighbour's liveness item is its key and two
// list links, 24 B on every word size.
func TestTimerSetItemSize(t *testing.T) {
	if n := unsafe.Sizeof(setItem{}); n != 24 {
		t.Fatalf("timer set item is %d B, want 24", n)
	}
}

// TestTimerSetPageSize: a page of 16 items is 384 B, an exact size class,
// on every word size: growing a set by a page wastes no byte.
func TestTimerSetPageSize(t *testing.T) {
	if n := unsafe.Sizeof([pageLen]setItem{}); n != 384 {
		t.Fatalf("a page of timer set items is %d B, want 384", n)
	}
}

// BenchmarkTimerSetHello is the HELLO-liveness shape the set exists for:
// 2 000 routers with 68 neighbours each, every neighbour's deadline
// refreshed to 3 s once per second in HELLO order (one sender heard by 68
// routers at a time). An op is one refresh. "set" keeps one TimerSet per
// router, "timers" one Timer per (router, neighbour) — what AODV and DYMO
// held before. Reported beside ns/op: queued records (live and cancelled)
// and retained heap bytes per neighbour after a full round.
func BenchmarkTimerSetHello(b *testing.B) {
	const routers, neighbours = 2000, 68
	for _, mode := range []struct {
		name string
		set  bool
	}{{"set", true}, {"timers", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			k := NewKernel()
			groups := make([]timers, routers)
			for j := range groups {
				groups[j] = newTimers(k, mode.set, 3*Second, func(int32) { b.Fatal("a neighbour was lost") })
			}
			// Sender h is heard by routers h+1 … h+68, as their neighbour
			// index d-1.
			hello := func(n int) {
				h, d := (n/neighbours)%routers, n%neighbours+1
				if d == 1 {
					k.RunUntil(k.Now() + Second/routers)
				}
				groups[(h+d)%routers].Reset(int32(d - 1))
			}
			warm := 2 * routers * neighbours
			for n := 0; n < warm; n++ {
				hello(n)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			queued := len(k.q.es)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				hello(warm + n)
			}
			b.StopTimer()
			b.ReportMetric(float64(queued), "queued")
			b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/(routers*neighbours), "heapB/neighbour")
			runtime.KeepAlive(groups)
		})
	}
}
