package sim

import (
	"math/rand"
	"testing"
)

// popRecord is one executed event as observed by a differential run:
// the fire time, the event's insertion sequence (via the payload), and
// the kernel clock at execution.
type popRecord struct {
	id  int
	at  Time
	now Time
}

// diffWorkload drives one kernel through a deterministic pseudo-random
// schedule/cancel/run workload and returns the full pop log. The rng
// stream and the decision points depend only on (seed, cfg params), so
// the calendar and oracle runs see bit-identical operation sequences.
func diffWorkload(k *Kernel, seed int64, ops int, cancelFrac float64, farFrac float64, burst int) []popRecord {
	rng := rand.New(rand.NewSource(seed))
	var log []popRecord
	var handles []Handle
	var ids []int
	nextID := 0
	schedule := func(at Time) {
		id := nextID
		nextID++
		h := k.ScheduleArg(at, func(a any) {
			log = append(log, popRecord{id: a.(int), at: at, now: k.Now()})
		}, id)
		handles = append(handles, h)
		ids = append(ids, id)
	}
	for i := 0; i < ops; i++ {
		switch r := rng.Float64(); {
		case r < 0.55:
			at := k.Now() + Time(rng.Int63n(int64(50*Millisecond)))
			if rng.Float64() < farFrac {
				at = k.Now() + Time(rng.Int63n(int64(1000*Second)))
			}
			schedule(at)
			// Same-time bursts stress the shared-bucket and seq tie-break
			// paths.
			for b := 0; b < burst && rng.Float64() < 0.3; b++ {
				schedule(at)
			}
		case r < 0.55+cancelFrac:
			if len(handles) > 0 {
				j := rng.Intn(len(handles))
				k.Cancel(handles[j])
				handles[j] = handles[len(handles)-1]
				handles = handles[:len(handles)-1]
				ids[j] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
			}
		case r < 0.9:
			k.RunUntil(k.Now() + Time(rng.Int63n(int64(20*Millisecond))))
		default:
			for s := rng.Intn(5); s > 0 && k.Step(); s-- {
			}
		}
	}
	k.Run()
	return log
}

// TestCalendarMatchesHeapOracle is the tentpole differential gate: over
// randomized schedule/cancel/run sequences — cancel-heavy, far-future
// overflow, same-time bursts — the calendar queue must pop the identical
// (time, seq, payload) sequence as the retained binary-heap oracle.
func TestCalendarMatchesHeapOracle(t *testing.T) {
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
				cal := diffWorkload(NewKernel(), seed, tc.ops, tc.cancelFrac, tc.farFrac, tc.burst)
				ora := diffWorkload(newHeapKernel(),
					seed, tc.ops, tc.cancelFrac, tc.farFrac, tc.burst)
				if len(cal) != len(ora) {
					t.Fatalf("seed %d: calendar popped %d events, oracle %d", seed, len(cal), len(ora))
				}
				for i := range cal {
					if cal[i] != ora[i] {
						t.Fatalf("seed %d: pop %d diverged: calendar %+v, oracle %+v",
							seed, i, cal[i], ora[i])
					}
				}
			}
		})
	}
}

// TestCalendarPendingMatchesOracle cross-checks the live-event count under
// lazy cancellation: Pending must never include dead records.
func TestCalendarPendingMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cal := NewKernel()
		ora := newHeapKernel()
		var hc, ho []Handle
		for i := 0; i < 2000; i++ {
			switch r := rng.Float64(); {
			case r < 0.5:
				at := cal.Now() + Time(rng.Int63n(int64(Second)))
				hc = append(hc, cal.Schedule(at, noop))
				ho = append(ho, ora.Schedule(at, noop))
			case r < 0.85:
				if len(hc) > 0 {
					j := rng.Intn(len(hc))
					gc := cal.Cancel(hc[j])
					go2 := ora.Cancel(ho[j])
					if gc != go2 {
						t.Fatalf("seed %d: Cancel disagreed: calendar %v, oracle %v", seed, gc, go2)
					}
					hc[j], hc = hc[len(hc)-1], hc[:len(hc)-1]
					ho[j], ho = ho[len(ho)-1], ho[:len(ho)-1]
				}
			default:
				end := cal.Now() + Time(rng.Int63n(int64(200*Millisecond)))
				cal.RunUntil(end)
				ora.RunUntil(end)
			}
			if cal.Pending() != ora.Pending() {
				t.Fatalf("seed %d op %d: Pending: calendar %d, oracle %d",
					seed, i, cal.Pending(), ora.Pending())
			}
			if cal.Now() != ora.Now() {
				t.Fatalf("seed %d op %d: Now: calendar %v, oracle %v",
					seed, i, cal.Now(), ora.Now())
			}
		}
	}
}

// TestCalendarOverflowPromotion pins the two-tier boundary: events far
// beyond the bucket window must still fire in exact (time, seq) order as
// the clock reaches them, including ties between bucket and overflow
// residents scheduled at the same instant.
func TestCalendarOverflowPromotion(t *testing.T) {
	k := NewKernel()
	var order []int
	// Near events fill buckets; far events (hours out) start in overflow.
	k.Schedule(2*Second, func() { order = append(order, 0) })
	far := 3600 * Second
	k.Schedule(far, func() { order = append(order, 1) }) // overflow, tie at `far`
	k.Schedule(far, func() { order = append(order, 2) }) // overflow, same time, later seq
	k.Schedule(Second, func() {
		order = append(order, 3)
		// Scheduled mid-run at the same far instant: higher seq, must fire
		// after the two overflow residents.
		k.Schedule(far, func() { order = append(order, 4) })
	})
	k.Run()
	want := []int{3, 0, 1, 2, 4}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	if k.Now() != far {
		t.Fatalf("Now() = %v, want %v", k.Now(), far)
	}
}

// TestCalendarResizeCrossings forces grow and shrink rebuilds in one run
// and checks ordering survives them.
func TestCalendarResizeCrossings(t *testing.T) {
	k := NewKernel()
	var pops []Time
	record := func() { pops = append(pops, k.Now()) }
	// Grow: push well past 2x calMinBuckets.
	for i := 0; i < 2000; i++ {
		k.Schedule(Time(i%977)*Millisecond, record)
	}
	// Drain most of it (shrink rebuilds fire on the way down).
	k.Run()
	for i := 1; i < len(pops); i++ {
		if pops[i] < pops[i-1] {
			t.Fatalf("pop order regressed across resize: %v after %v", pops[i], pops[i-1])
		}
	}
	if len(pops) != 2000 {
		t.Fatalf("popped %d, want 2000", len(pops))
	}
}
