package sim

import (
	"runtime"
	"testing"
)

// Memory-stability pin for the queue's lazy cancellation: stale entries
// are dropped as they surface and swept by compaction, so a cancel-heavy
// workload must settle into a bounded steady state — the free list and
// the heap stop growing no matter how long the churn runs.

// TestKernelCancelChurnMemoryStable runs 1M schedule/cancel cycles against
// a small live working set and pins the retained structures.
func TestKernelCancelChurnMemoryStable(t *testing.T) {
	k := NewKernel()

	// A live backdrop of periodic tickers keeps the queue non-trivial.
	const liveSet = 256
	for i := 0; i < liveSet; i++ {
		i := i
		var tick func()
		tick = func() { k.After(Time(i%17+1)*Millisecond, tick) }
		k.After(Time(i%17+1)*Millisecond, tick)
	}

	const cycles = 1_000_000
	warm := cycles / 10
	var freeHigh int
	var before, after runtime.MemStats
	for i := 0; i < cycles; i++ {
		// Mix near and far deadlines so stale entries sit both near the
		// top of the heap and deep in it.
		d := Time(i%43+1) * Millisecond
		if i%11 == 0 {
			d = Time(i%7+1) * 100 * Second
		}
		k.Cancel(k.After(d, noop))
		if i%1024 == 0 {
			k.RunUntil(k.Now() + Millisecond)
		}
		if i == warm {
			runtime.GC()
			runtime.ReadMemStats(&before)
		}
		if i >= warm {
			freeHigh = max(freeHigh, len(k.free))
			if n, live := len(k.q.es), k.q.live(); n > 2*live+deadSlack {
				t.Fatalf("cycle %d: heap holds %d entries for %d live, want ≤ 2·live + %d", i, n, live, deadSlack)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	// Structural pins: the high-water marks after warm-up must stay within
	// the compaction bound — O(live set + slack), not O(cycles).
	if limit := 4 * (liveSet + deadSlack); freeHigh > limit {
		t.Fatalf("free list grew to %d records under cancel churn (limit %d)", freeHigh, limit)
	}

	// Heap pin: the post-warm-up retained bytes must not drift with cycle
	// count. 1 MiB of headroom absorbs GC noise; a leak of even one pooled
	// record per cycle would be ~50 MiB.
	if after.HeapAlloc > before.HeapAlloc && after.HeapAlloc-before.HeapAlloc > 1<<20 {
		t.Fatalf("retained heap grew %d bytes across %d cancel cycles",
			after.HeapAlloc-before.HeapAlloc, cycles-warm)
	}
}
