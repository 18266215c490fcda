package sim

import (
	"math/rand"
	"testing"
)

// fanout is a batch as its caller sees it. Batch implements it; eachFanout
// is the reference it must be indistinguishable from.
type fanout interface {
	Add(at Time, arg any)
	Commit()
	Append(at Time, arg any) bool
}

// eachFanout schedules every member as its own ScheduleArg event at the
// program point of its Add/Append — what the code a batch replaces did —
// and refuses an Append exactly when the Batch contract says a batch does:
// not committed, every member already fired, or out of order.
type eachFanout struct {
	k         *Kernel
	fn        func(any)
	committed bool
	unfired   int
	lastAt    Time
}

type eachMember struct {
	f   *eachFanout
	arg any
}

func eachFire(a any) {
	m := a.(*eachMember)
	m.f.fn(m.arg)
	m.f.unfired-- // after the callback: a batch outlives its last member's callback
}

func (f *eachFanout) Add(at Time, arg any) {
	f.unfired++
	if at > f.lastAt {
		f.lastAt = at
	}
	f.k.ScheduleArg(at, eachFire, &eachMember{f: f, arg: arg})
}

func (f *eachFanout) Commit() { f.committed = true }

func (f *eachFanout) Append(at Time, arg any) bool {
	if !f.committed || f.unfired == 0 || at < f.lastAt {
		return false
	}
	f.Add(at, arg)
	return true
}

// newFanout returns a real batch, or its per-member reference.
func newFanout(k *Kernel, batched bool, fn func(any)) fanout {
	if batched {
		return k.NewBatch(fn)
	}
	return &eachFanout{k: k, fn: fn}
}

// batchStep is one observation of a differential run: a firing (id >= 0)
// or a marker (id < 0), with the kernel's clock and counters at that point.
type batchStep struct {
	id        int
	now       Time
	processed uint64
	pending   int
}

const (
	stepOp       = -1 // after a driver op
	stepTimer    = -2
	stepTicker   = -3
	stepAccepted = -4 // an Append was accepted
	stepRefused  = -5 // an Append was refused and fell back to ScheduleArg
)

// batchWorkload drives one kernel through a deterministic pseudo-random
// mix of fan-outs, plain events, timers, a ticker, cancels, bounded runs,
// single steps and Stop() calls, issuing follow-up work from inside the
// callbacks too, and returns everything it observed. Fan-outs go through
// real batches or through eachFanout; nothing else depends on which, so
// the logs of the two must be equal entry for entry.
func batchWorkload(k *Kernel, batched bool, seed int64, ops int) []batchStep {
	rng := rand.New(rand.NewSource(seed))
	var log []batchStep
	observe := func(id int) {
		log = append(log, batchStep{id: id, now: k.Now(), processed: k.Processed(), pending: k.Pending()})
	}
	nextID := 0
	newID := func() int { nextID++; return nextID - 1 }
	// Delays cluster on zero and on a 3-value microsecond grid so that
	// same-timestamp ties (ordered by seq alone) are the common case, with
	// a tail long enough for RunUntil deadlines to cut batches in the middle.
	delay := func() Time {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return Time(rng.Intn(3)) * Microsecond
		}
		return Time(rng.Int63n(int64(2 * Millisecond)))
	}

	var fire func(any)
	var handles []Handle
	var open []fanout
	plain := func(d Time) {
		handles = append(handles, k.ScheduleArg(k.Now()+d, fire, newID()))
	}
	cancel := func() {
		if len(handles) > 0 {
			j := rng.Intn(len(handles))
			k.Cancel(handles[j])
			handles[j], handles = handles[len(handles)-1], handles[:len(handles)-1]
		}
	}
	appendTo := func() {
		if len(open) == 0 {
			return
		}
		f, at, id := open[rng.Intn(len(open))], k.Now()+delay(), newID()
		if f.Append(at, id) {
			observe(stepAccepted)
		} else {
			observe(stepRefused)
			k.ScheduleArg(at, fire, id) // the other way, at the same program point
		}
	}
	fanOut := func(n int) {
		f := newFanout(k, batched, fire)
		for i := 0; i < n; i++ {
			f.Add(k.Now()+delay(), newID())
			if rng.Intn(4) == 0 {
				plain(delay()) // a foreign sequence number between two members
			}
		}
		f.Commit()
		if open = append(open, f); len(open) > 8 {
			open = open[1:]
		}
	}
	fire = func(a any) {
		observe(a.(int))
		switch rng.Intn(14) {
		case 0:
			plain(delay())
		case 1:
			plain(0) // sorts before every later member of the firing batch
		case 2, 3:
			appendTo() // often to the batch that is draining
		case 4:
			fanOut(rng.Intn(4))
		case 5:
			cancel()
		case 6:
			if rng.Intn(3) == 0 {
				k.Stop()
			}
		}
	}

	timer := NewTimer(k, func() {
		observe(stepTimer)
		plain(0)
	})
	ticker := NewTicker(k, 300*Microsecond, nil, func() { observe(stepTicker) })
	ticker.Start()
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(20); {
		case r < 4:
			plain(delay())
		case r < 9:
			fanOut(rng.Intn(14))
		case r < 11:
			appendTo()
		case r < 12:
			cancel()
		case r < 13:
			timer.Reset(delay())
		case r < 17:
			k.RunUntil(k.Now() + Time(rng.Int63n(int64(Millisecond))))
		default:
			for s := rng.Intn(5); s > 0 && k.Step(); s-- {
			}
		}
		observe(stepOp)
	}
	ticker.Stop()
	for k.Pending() > 0 { // members calling Stop() end a Run early
		k.Run()
		observe(stepOp)
	}
	return log
}

// TestBatchMatchesScheduleArg is the gate on lemmas L1 and L2 (see
// Kernel.drain): submitting members as batches and submitting them as
// individual ScheduleArg events at the same program points must be
// indistinguishable — identical (time, id) firing sequences, identical
// Append decisions, identical Processed()/Pending() at every firing and
// after every driver op — on the calendar queue and on the heap oracle.
func TestBatchMatchesScheduleArg(t *testing.T) {
	var accepted, refused, fired int
	for seed := int64(1); seed <= 24; seed++ {
		ref := batchWorkload(NewKernel(), false, seed, 1500)
		for _, c := range []struct {
			name    string
			oracle  bool
			batched bool
		}{
			{"calendar/batched", false, true},
			{"oracle/batched", true, true},
			{"oracle/each", true, false},
		} {
			k := &Kernel{oracle: c.oracle}
			got := batchWorkload(k, c.batched, seed, 1500)
			for i := range got {
				if i >= len(ref) || got[i] != ref[i] {
					t.Fatalf("seed %d: %s diverged from calendar/each at observation %d: %+v",
						seed, c.name, i, got[i])
				}
			}
			if len(got) != len(ref) {
				t.Fatalf("seed %d: %s made %d observations, calendar/each %d", seed, c.name, len(got), len(ref))
			}
		}
		for _, s := range ref {
			switch {
			case s.id == stepAccepted:
				accepted++
			case s.id == stepRefused:
				refused++
			case s.id >= 0:
				fired++
			}
		}
	}
	// The workload must actually exercise what it claims to.
	if accepted < 1000 || refused < 1000 || fired < 100_000 {
		t.Fatalf("thin workload: %d appends accepted, %d refused, %d events fired", accepted, refused, fired)
	}
}

// TestBatchFiresInGlobalOrder is the contract in miniature: members added
// in any order fire sorted, a foreign event whose key falls between two
// members fires between them, counters count members, and a finished (or
// zero) batch refuses Appends.
func TestBatchFiresInGlobalOrder(t *testing.T) {
	forBothKernels(t, func(t *testing.T, k *Kernel) {
		var order []int
		fn := func(a any) { order = append(order, a.(int)) }
		b := k.NewBatch(fn)
		for i := 0; i < 6; i++ {
			b.Add(Time(6-i)*Microsecond, 6-i) // reverse order: Commit sorts
		}
		b.Commit()
		k.ScheduleArg(3*Microsecond+500, fn, 100) // between members 3 and 4
		if k.Pending() != 7 {
			t.Fatalf("Pending = %d, want 7 (6 members + 1 event)", k.Pending())
		}
		k.Run()
		want := []int{1, 2, 3, 100, 4, 5, 6}
		if len(order) != len(want) {
			t.Fatalf("fired %v, want %v", order, want)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("fired %v, want %v", order, want)
			}
		}
		if k.Processed() != 7 || k.Pending() != 0 {
			t.Fatalf("Processed %d Pending %d, want 7 and 0", k.Processed(), k.Pending())
		}
		if b.Append(k.Now(), 7) {
			t.Fatal("Append accepted by a finished batch")
		}
		if (Batch{}).Append(k.Now(), 7) {
			t.Fatal("Append accepted by the zero Batch")
		}
	})
}

func TestBatchMisusePanics(t *testing.T) {
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
	mustPanic("nil callback", func() { k.NewBatch(nil) })
	b := k.NewBatch(noopArg)
	b.Add(Second, nil)
	b.Commit()
	mustPanic("Add after Commit", func() { b.Add(Second, nil) })
	mustPanic("second Commit", func() { b.Commit() })
	k.RunUntil(2 * Second)
	mustPanic("Add in the past", func() { k.NewBatch(noopArg).Add(Second, nil) })
}

// TestBatchSteadyStateAllocFree is the batch variant of
// TestKernelScheduleSteadyStateAllocFree: batch storage, member slices and
// the queue entry are all pooled by the kernel.
func TestBatchSteadyStateAllocFree(t *testing.T) {
	forBothKernels(t, func(t *testing.T, k *Kernel) {
		cycle := func() {
			b := k.NewBatch(noopArg)
			for i := 0; i < 12; i++ {
				b.Add(k.Now()+Time(12-i)*Microsecond, k)
			}
			b.Commit()
			k.AfterArg(5*Microsecond, noopArg, k)
			b.Append(k.Now()+20*Microsecond, k)
			k.Run()
		}
		for i := 0; i < 8; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
			t.Fatalf("steady-state batch cycle allocated %v times per op", allocs)
		}
	})
}
