package sim

import (
	"math/rand"
	"testing"
)

// benchBoth runs a kernel benchmark against the production calendar queue
// and the retained heap oracle, so `make bench-kernel` reports the pair
// side by side.
func benchBoth(b *testing.B, fn func(b *testing.B, mk func() *Kernel)) {
	b.Run("calendar", func(b *testing.B) {
		fn(b, NewKernel)
	})
	b.Run("oracle", func(b *testing.B) {
		fn(b, func() *Kernel { return newHeapKernel() })
	})
}

func BenchmarkScheduleAndRun(b *testing.B) {
	benchBoth(b, func(b *testing.B, mk func() *Kernel) {
		k := mk()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.Schedule(k.Now()+Time(i%1000)*Microsecond, func() {})
			if i%1024 == 1023 {
				k.Run()
			}
		}
		k.Run()
	})
}

func BenchmarkTimerResetStorm(b *testing.B) {
	benchBoth(b, func(b *testing.B, mk func() *Kernel) {
		k := mk()
		t := NewTimer(k, func() {})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Reset(Second)
		}
		t.Stop()
		k.Run()
	})
}

func BenchmarkEventChurnWithCancels(b *testing.B) {
	benchBoth(b, func(b *testing.B, mk func() *Kernel) {
		k := mk()
		events := make([]Handle, 0, 128)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			events = append(events, k.Schedule(k.Now()+Time(i%977)*Microsecond, func() {}))
			if len(events) == 128 {
				for j := 0; j < 64; j++ {
					k.Cancel(events[j])
				}
				k.Run()
				events = events[:0]
			}
		}
		k.Run()
	})
}

// BenchmarkPeriodicTickers10k is the protocol-timer shape: 10k interleaved
// fixed-period tickers (HELLO/TC/mobility tick analogues) with staggered
// phases, measured per fired event at a steady 10k pending.
func BenchmarkPeriodicTickers10k(b *testing.B) {
	benchBoth(b, func(b *testing.B, mk func() *Kernel) {
		k := mk()
		const n = 10_000
		periods := [...]Time{100 * Millisecond, 250 * Millisecond, Second}
		for i := 0; i < n; i++ {
			p := periods[i%len(periods)]
			var tick func()
			phase := Time(i) * Microsecond
			tick = func() { k.After(p, tick) }
			k.After(p+phase, tick)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.Step()
		}
	})
}

// BenchmarkCancelHeavy cancels well over half of what it schedules before
// the deadline arrives — the retransmission-timer pattern that lazy
// cancellation is built for.
func BenchmarkCancelHeavy(b *testing.B) {
	benchBoth(b, func(b *testing.B, mk func() *Kernel) {
		k := mk()
		var pend []Handle
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pend = append(pend, k.After(Time(i%311+1)*Microsecond, noop))
			if len(pend) == 64 {
				for _, h := range pend[:48] { // 75% cancelled
					k.Cancel(h)
				}
				k.RunUntil(k.Now() + 100*Microsecond)
				pend = pend[:0]
			}
		}
		k.Run()
	})
}

// BenchmarkFarFutureOverflow keeps a deep overflow tier (route lifetimes,
// long timeouts) behind the near-future churn, forcing the promotion path.
func BenchmarkFarFutureOverflow(b *testing.B) {
	benchBoth(b, func(b *testing.B, mk func() *Kernel) {
		k := mk()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%8 == 0 {
				k.After(Time(i%97+1)*10*Second, noop) // far tail
			}
			k.After(Time(i%211+1)*Microsecond, noop)
			if i%512 == 511 {
				k.RunUntil(k.Now() + 300*Microsecond)
			}
		}
		k.Run()
	})
}

// BenchmarkMetroArrivals replays the metro workload's arrival shape in
// miniature: synchronized 100 ms tick bursts over the whole fleet, DCF-like
// microsecond-scale follow-ups after each burst event, and a sprinkle of
// cancelled timeouts.
func BenchmarkMetroArrivals(b *testing.B) {
	benchBoth(b, func(b *testing.B, mk func() *Kernel) {
		k := mk()
		const fleet = 2000
		rng := rand.New(rand.NewSource(1))
		var burst func()
		pending := 0
		burst = func() {
			pending--
			// Each tick spawns a couple of near-future MAC-ish events.
			k.After(Time(rng.Intn(500)+20)*Microsecond, noop)
			h := k.After(Time(rng.Intn(2000)+100)*Microsecond, noop)
			if rng.Intn(2) == 0 {
				k.Cancel(h)
			}
			if pending == 0 {
				// Re-arm the whole fleet at the next tick instant.
				at := k.Now() + 100*Millisecond
				for i := 0; i < fleet; i++ {
					k.Schedule(at, burst)
				}
				pending = fleet
			}
		}
		at := k.Now() + 100*Millisecond
		for i := 0; i < fleet; i++ {
			k.Schedule(at, burst)
		}
		pending = fleet
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.Step()
		}
	})
}

// benchSchedulePop measures one schedule+pop pair while n unrelated events
// stay pending — the depth scaling the calendar flattens from the heap's
// O(log n).
func benchSchedulePop(b *testing.B, n int) {
	benchBoth(b, func(b *testing.B, mk func() *Kernel) {
		k := mk()
		for i := 0; i < n; i++ {
			// Background set spread over ~1 s, far enough out to stay put.
			k.Schedule(Second+Time(i)*Microsecond, noop)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.AfterArg(Microsecond, noopArg, nil)
			k.Step()
		}
	})
}

func BenchmarkSchedulePopPending1k(b *testing.B)   { benchSchedulePop(b, 1_000) }
func BenchmarkSchedulePopPending10k(b *testing.B)  { benchSchedulePop(b, 10_000) }
func BenchmarkSchedulePopPending100k(b *testing.B) { benchSchedulePop(b, 100_000) }

// BenchmarkFanOutBatch is the broadcast-medium shape batches exist for: 12
// overlapping transmissions, each fanning out to 150 receivers whose
// arrival times spread over ~2 µs of propagation delay, with foreign
// timers (DCF slots, ACK timeouts) landing in between. One iteration
// schedules and runs all 1800 members plus the timers; "batch" submits each
// fan-out as one sim.Batch, "each" as one ScheduleArg per member — the two
// fire the identical sequence (TestBatchMatchesScheduleArg), so the gap is
// the per-receiver trip through the queue. If "batch" is not well ahead of
// "each", batching has degraded to a requeue per member.
func BenchmarkFanOutBatch(b *testing.B) {
	const transmissions, receivers, timers = 12, 150, 60
	rng := rand.New(rand.NewSource(1))
	delays := make([]Time, receivers)
	for i := range delays {
		delays[i] = Time(rng.Intn(1835)) // ≤ 550 m at light speed, in ns
	}
	for _, mode := range []struct {
		name    string
		batched bool
	}{{"batch", true}, {"each", false}} {
		b.Run(mode.name, func(b *testing.B) {
			benchBoth(b, func(b *testing.B, mk func() *Kernel) {
				k := mk()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for tx := 0; tx < transmissions; tx++ {
						start := k.Now() + Time(tx)*20*Microsecond
						if mode.batched {
							f := k.NewBatch(noopArg)
							for _, d := range delays {
								f.Add(start+d, nil)
							}
							f.Commit()
						} else {
							for _, d := range delays {
								k.ScheduleArg(start+d, noopArg, nil)
							}
						}
						for j := 0; j < timers/transmissions; j++ {
							k.AfterArg(Time(tx)*20*Microsecond+Time(j)*400, noopArg, nil)
						}
					}
					k.Run()
				}
			})
		})
	}
}
