package sim

import (
	"fmt"
	"strings"
	"testing"
)

// Run executes events until the queue drains or Stop is called.
func (k *Kernel) Run() { k.run(MaxTime) }

// forBothKernels runs a contract test on a new kernel ("calendar") and on
// a used one ("oracle"); both must satisfy it. The subtest names are those
// of the two queues the kernel had before it had one, kept so that each
// case keeps its name.
func forBothKernels(t *testing.T, fn func(t *testing.T, k *Kernel)) {
	t.Helper()
	t.Run("calendar", func(t *testing.T) { fn(t, NewKernel()) })
	t.Run("oracle", func(t *testing.T) { fn(t, usedKernel()) })
}

// usedKernel returns a kernel that has scheduled and cancelled events over
// its first five seconds: its free list holds the recycled records under
// later generations, and its heap holds their stale entries, which the
// live events a test schedules must pass over without firing them or
// moving the clock. There are fewer of them than deadSlack, so no
// compaction sweeps them out first.
func usedKernel() *Kernel {
	k := NewKernel()
	hs := make([]Handle, deadSlack*3/4)
	for i := range hs {
		hs[i] = k.Schedule(Time(i)*100*Millisecond, noop)
	}
	for _, h := range hs {
		k.Cancel(h)
	}
	return k
}

func TestTimeConversions(t *testing.T) {
	if got := Seconds(1.5); got != 1500*Millisecond {
		t.Fatalf("Seconds(1.5) = %v, want %v", got, 1500*Millisecond)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Fatalf("(2s).Seconds() = %v, want 2", got)
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

// TestSchedulePastPanicCarriesClock pins the kernel's diagnostic contract:
// scheduling behind the clock reports where the clock was, where the
// request landed, and how far in the past it was.
func TestSchedulePastPanicCarriesClock(t *testing.T) {
	k := NewKernel()
	k.Schedule(5*Second, func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("scheduling in the past did not panic")
			}
			msg := fmt.Sprint(r)
			for _, want := range []string{"t=5", "2.000000s", "in the past"} {
				if !strings.Contains(msg, want) {
					t.Fatalf("panic %q lacks %q", msg, want)
				}
			}
		}()
		k.Schedule(3*Second, func() {})
	})
	k.Run()
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
	forBothKernels(t, testKernelManyEventsHeapStress)
}

func testKernelManyEventsHeapStress(t *testing.T, k *Kernel) {
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
	forBothKernels(t, testKernelScheduleSteadyStateAllocFree)
}

func testKernelScheduleSteadyStateAllocFree(t *testing.T, k *Kernel) {
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
	forBothKernels(t, testHandleWhen)
}

func testHandleWhen(t *testing.T, k *Kernel) {
	// A pending time-zero event is ambiguous through At alone, not
	// together with Scheduled.
	h := k.Schedule(0, noop)
	if at, ok := h.At(), h.Scheduled(); !ok || at != 0 {
		t.Fatalf("At, Scheduled = (%v, %v), want (0, true) while pending", at, ok)
	}
	h2 := k.Schedule(3*Second, noop)
	if at, ok := h2.At(), h2.Scheduled(); !ok || at != 3*Second {
		t.Fatalf("At, Scheduled = (%v, %v), want (3s, true)", at, ok)
	}
	k.Run()
	if at, ok := h2.At(), h2.Scheduled(); ok || at != 0 {
		t.Fatalf("At, Scheduled = (%v, %v) after firing, want (0, false)", at, ok)
	}
	h3 := k.Schedule(5*Second, noop)
	k.Cancel(h3)
	if h3.Scheduled() {
		t.Fatal("Scheduled() reports pending after Cancel")
	}
}

func noop()       {}
func noopArg(any) {}
