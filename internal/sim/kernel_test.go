package sim

import (
	"testing"
)

// newHeapKernel is the one way to a kernel on the binary-heap reference
// queue (Kernel.oracle): in-package tests only, no exported switch.
func newHeapKernel() *Kernel { return &Kernel{oracle: true} }

// forBothKernels runs a test against the calendar queue and the retained
// heap oracle; both must satisfy the same observable contract.
func forBothKernels(t *testing.T, fn func(t *testing.T, k *Kernel)) {
	t.Helper()
	t.Run("calendar", func(t *testing.T) { fn(t, NewKernel()) })
	t.Run("oracle", func(t *testing.T) { fn(t, newHeapKernel()) })
}

func TestTimeConversions(t *testing.T) {
	if got := Seconds(1.5); got != 1500*Millisecond {
		t.Fatalf("Seconds(1.5) = %v, want %v", got, 1500*Millisecond)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Fatalf("(2s).Seconds() = %v, want 2", got)
	}
	if got := Micros(50); got != 50*Microsecond {
		t.Fatalf("Micros(50) = %v, want %v", got, 50*Microsecond)
	}
	if got := (1500 * Millisecond).String(); got != "1.500000s" {
		t.Fatalf("String() = %q", got)
	}
}

func TestKernelOrdersByTime(t *testing.T) {
	forBothKernels(t, testKernelOrdersByTime)
}

func testKernelOrdersByTime(t *testing.T, k *Kernel) {
	var order []int
	k.Schedule(3*Second, func() { order = append(order, 3) })
	k.Schedule(1*Second, func() { order = append(order, 1) })
	k.Schedule(2*Second, func() { order = append(order, 2) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order = %v, want [1 2 3]", order)
	}
	if k.Now() != 3*Second {
		t.Fatalf("Now() = %v, want 3s", k.Now())
	}
}

func TestKernelFIFOTieBreak(t *testing.T) {
	forBothKernels(t, testKernelFIFOTieBreak)
}

func testKernelFIFOTieBreak(t *testing.T, k *Kernel) {
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(Second, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of insertion order: %v", order)
		}
	}
}

func TestKernelCancel(t *testing.T) {
	forBothKernels(t, testKernelCancel)
}

func testKernelCancel(t *testing.T, k *Kernel) {
	fired := false
	ev := k.Schedule(Second, func() { fired = true })
	if !k.Cancel(ev) {
		t.Fatal("Cancel returned false for pending event")
	}
	if k.Cancel(ev) {
		t.Fatal("second Cancel should be a no-op returning false")
	}
	k.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestKernelCancelZeroHandle(t *testing.T) {
	k := NewKernel()
	if k.Cancel(Handle{}) {
		t.Fatal("Cancel of the zero Handle should return false")
	}
	if (Handle{}).Scheduled() {
		t.Fatal("zero Handle should not report Scheduled")
	}
}

func TestKernelRunUntil(t *testing.T) {
	forBothKernels(t, testKernelRunUntil)
}

func testKernelRunUntil(t *testing.T, k *Kernel) {
	var fired []int
	k.Schedule(1*Second, func() { fired = append(fired, 1) })
	k.Schedule(5*Second, func() { fired = append(fired, 5) })
	k.RunUntil(2 * Second)
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired = %v, want [1]", fired)
	}
	if k.Now() != 2*Second {
		t.Fatalf("Now() = %v, want 2s (clock advances to horizon)", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", k.Pending())
	}
	k.RunUntil(10 * Second)
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want both", fired)
	}
}

func TestKernelSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(Second, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past must panic")
		}
	}()
	k.Schedule(0, func() {})
}

func TestKernelNilCallbackPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback must panic")
		}
	}()
	k.Schedule(Second, nil)
}

func TestKernelReentrantScheduling(t *testing.T) {
	k := NewKernel()
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			k.After(Second, chain)
		}
	}
	k.Schedule(0, chain)
	k.Run()
	if count != 5 {
		t.Fatalf("chained executions = %d, want 5", count)
	}
	if k.Now() != 4*Second {
		t.Fatalf("Now() = %v, want 4s", k.Now())
	}
}

func TestKernelStop(t *testing.T) {
	k := NewKernel()
	ran := 0
	k.Schedule(1*Second, func() { ran++; k.Stop() })
	k.Schedule(2*Second, func() { ran++ })
	k.Run()
	if ran != 1 {
		t.Fatalf("ran = %d, want 1 (Stop halts the loop)", ran)
	}
	k.Run()
	if ran != 2 {
		t.Fatalf("ran = %d after second Run, want 2", ran)
	}
}

func TestKernelProcessedCount(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 7; i++ {
		k.Schedule(Time(i)*Second, func() {})
	}
	k.Run()
	if k.Processed() != 7 {
		t.Fatalf("Processed() = %d, want 7", k.Processed())
	}
}

func TestEventScheduledAccessors(t *testing.T) {
	k := NewKernel()
	ev := k.Schedule(3*Second, func() {})
	if !ev.Scheduled() {
		t.Fatal("event should report Scheduled before firing")
	}
	if ev.At() != 3*Second {
		t.Fatalf("At() = %v, want 3s", ev.At())
	}
	k.Run()
	if ev.Scheduled() {
		t.Fatal("event should not report Scheduled after firing")
	}
}

func TestKernelManyEventsHeapStress(t *testing.T) {
	forBothKernels(t, testKernelManyEventsStress)
}

func testKernelManyEventsStress(t *testing.T, k *Kernel) {
	// Interleave schedules and cancels to exercise queue bookkeeping.
	var events []Handle
	for i := 0; i < 1000; i++ {
		at := Time((i*7919)%997) * Millisecond
		events = append(events, k.Schedule(at, func() {}))
	}
	for i := 0; i < len(events); i += 3 {
		k.Cancel(events[i])
	}
	var last Time
	count := 0
	for k.Pending() > 0 {
		if !k.Step() {
			t.Fatal("Step reported empty while Pending > 0")
		}
		if k.Now() < last {
			t.Fatalf("pop order violated: %v after %v", k.Now(), last)
		}
		last = k.Now()
		count++
	}
	want := 1000 - (1000+2)/3
	if count != want {
		t.Fatalf("executed %d events, want %d", count, want)
	}
}

// --- event-pool recycling ---

func TestKernelCancelAfterFireIsNoOp(t *testing.T) {
	k := NewKernel()
	fired := 0
	ev := k.Schedule(Second, func() { fired++ })
	k.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if k.Cancel(ev) {
		t.Fatal("Cancel of an already-fired event must return false")
	}
	if ev.Scheduled() {
		t.Fatal("fired event still reports Scheduled")
	}
}

func TestKernelStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	k := NewKernel()
	stale := k.Schedule(Second, func() {})
	k.Run() // fires; the record returns to the free list

	// The next Schedule reuses the freed record under a new generation.
	fired := false
	fresh := k.Schedule(2*Second, func() { fired = true })
	if stale.Scheduled() {
		t.Fatal("stale handle reports Scheduled after its record was recycled")
	}
	if stale.At() != 0 {
		t.Fatalf("stale handle At() = %v, want 0", stale.At())
	}
	if k.Cancel(stale) {
		t.Fatal("stale handle cancelled the recycled record's new event")
	}
	if !fresh.Scheduled() {
		t.Fatal("fresh event lost its scheduling to a stale cancel")
	}
	k.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

func TestKernelCancelThenRescheduleReusesRecord(t *testing.T) {
	k := NewKernel()
	a := k.Schedule(Second, noop)
	k.Cancel(a)
	fired := false
	b := k.Schedule(Second, func() { fired = true })
	if a.Scheduled() {
		t.Fatal("cancelled handle reports Scheduled after reuse")
	}
	if !b.Scheduled() || b.At() != Second {
		t.Fatalf("reused event not scheduled correctly: %v %v", b.Scheduled(), b.At())
	}
	k.Run()
	if !fired {
		t.Fatal("rescheduled event did not fire")
	}
}

func TestKernelScheduleArg(t *testing.T) {
	k := NewKernel()
	got := 0
	fn := func(a any) { got = a.(int) }
	k.ScheduleArg(Second, fn, 41)
	k.AfterArg(2*Second, func(a any) { got += a.(int) }, 1)
	k.Run()
	if got != 42 {
		t.Fatalf("arg callbacks computed %d, want 42", got)
	}
}

func TestKernelScheduleSteadyStateAllocFree(t *testing.T) {
	forBothKernels(t, func(t *testing.T, k *Kernel) {
		var sink *Kernel = k
		// Warm the pool, then check a schedule+run cycle allocates nothing.
		for i := 0; i < 64; i++ {
			sink.After(Time(i), noop)
		}
		k.Run()
		allocs := testing.AllocsPerRun(200, func() {
			sink.AfterArg(Microsecond, noopArg, sink)
			sink.Run()
		})
		if allocs != 0 {
			t.Fatalf("steady-state ScheduleArg+Run allocated %v times per op", allocs)
		}
	})
}

func TestKernelCancelChurnAllocFree(t *testing.T) {
	// Lazy cancellation must not leak records: a schedule-heavy loop where
	// most events are cancelled before firing has to settle into a state
	// where compaction feeds every record back to the free list.
	k := NewKernel()
	for i := 0; i < 256; i++ {
		k.Cancel(k.After(Time(i)+Second, noop))
	}
	k.Run()
	allocs := testing.AllocsPerRun(500, func() {
		h := k.AfterArg(Second, noopArg, nil)
		k.Cancel(h)
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+cancel allocated %v times per op", allocs)
	}
}

func TestHandleWhen(t *testing.T) {
	forBothKernels(t, func(t *testing.T, k *Kernel) {
		// A pending time-zero event is ambiguous through At but not When.
		h := k.Schedule(0, noop)
		if at, ok := h.When(); !ok || at != 0 {
			t.Fatalf("When() = (%v, %v), want (0, true) while pending", at, ok)
		}
		h2 := k.Schedule(3*Second, noop)
		if at, ok := h2.When(); !ok || at != 3*Second {
			t.Fatalf("When() = (%v, %v), want (3s, true)", at, ok)
		}
		k.Run()
		if at, ok := h2.When(); ok || at != 0 {
			t.Fatalf("When() = (%v, %v) after firing, want (0, false)", at, ok)
		}
		h3 := k.Schedule(5*Second, noop)
		k.Cancel(h3)
		if _, ok := h3.When(); ok {
			t.Fatal("When() reports pending after Cancel")
		}
	})
}

func noop()       {}
func noopArg(any) {}
