package sim

import (
	"testing"
)

// FuzzKernelDifferential feeds a byte stream as a schedule/cancel/fan-out/
// phy-fan-out/append/timer-set/step/run-until op sequence to three kernels
// in lockstep — the calendar queue and the heap oracle, both submitting
// fan-outs as batches and per-peer deadlines as one TimerSet, and a
// calendar kernel submitting the same members one ScheduleArg each
// (eachFanout) and the same deadlines one Timer each (eachTimers) —
// checking on every op that:
//
//   - pop sequences are bit-identical: same (time, payload id) in the same
//     order, clocks in lockstep — the determinism contract every golden
//     depends on, across queue implementations and across batching;
//   - pop times are monotone non-decreasing and same-time events fire in
//     seq (insertion) order;
//   - no cancelled event ever fires, and Cancel/Append/Stop/Pending/
//     Processed and the sequence counter agree between the three — a
//     free-list record reused after cancellation must never resurrect the
//     old handle.
//
// Wired into `make fuzz-smoke`; hunt with:
//
//	go test ./internal/sim -fuzz FuzzKernelDifferential
func FuzzKernelDifferential(f *testing.F) {
	f.Add([]byte{0x10, 0x22, 0x80, 0x41, 0xc0, 0x05, 0x33, 0x90})
	f.Add([]byte{0x00, 0x00, 0x00, 0xff, 0xff, 0x7f, 0x01, 0x02, 0x03})
	f.Add([]byte("schedule/cancel soup with a long tail of bytes to chew"))
	f.Add([]byte{4, 7, 3, 5, 1, 0, 3, 2, 1, 5, 9, 0, 4, 200, 0, 3, 1, 0, 3, 0, 2, 5, 0, 0})
	f.Add([]byte{6, 1, 30, 6, 2, 30, 6, 1, 10, 0, 0, 20, 14, 2, 1, 6, 3, 0, 3, 1, 0, 6, 17, 1,
		3, 0, 40, 7, 1, 1, 3, 1, 0, 6, 4, 5, 15, 4, 8, 3, 0, 90, 3, 1, 0})
	f.Add([]byte{0x84, 63, 3, 3, 1, 0, 0, 0, 0, 0x84, 200, 130, 3, 0, 1, 5, 3, 0, 0x84, 0, 7, 3, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		type fired struct {
			id int
			at Time
		}
		type side struct {
			name    string
			k       *Kernel
			batched bool
			log     []fired
			fire    func(any)
			handles []Handle
			open    fanout // the latest fan-out; Appends go to it
			timers  timers // item i fires as id -1-i
		}
		sides := []*side{
			{name: "calendar", k: NewKernel(), batched: true},
			{name: "oracle", k: newHeapKernel(), batched: true},
			{name: "calendar/each", k: NewKernel()},
		}
		// The set's one hold comes from the last byte: zero, a 100 µs grid
		// (ties with op 0's and op 4's times), or the overflow tier.
		var hold Time
		if n := len(data); n > 0 {
			switch b := Time(data[n-1]); {
			case b < 64:
				hold = 0
			case b < 192:
				hold = (b - 64) * 100 * Time(Microsecond)
			default:
				hold = (b - 191) * 10 * Time(Second)
			}
		}
		for _, s := range sides {
			s := s
			s.fire = func(a any) { s.log = append(s.log, fired{id: a.(int), at: s.k.Now()}) }
			s.timers = newTimers(s.k, s.batched, hold, func(i int32) { s.fire(-1 - int(i)) })
		}
		ref := sides[0]
		cancelled := map[int]bool{}
		nextID := 0
		var ids []int // payload id per outstanding handle

		schedule := func(at Time) {
			for _, s := range sides {
				s.handles = append(s.handles, s.k.ScheduleArg(at, s.fire, nextID))
			}
			ids = append(ids, nextID)
			nextID++
		}

		for i := 0; i+2 < len(data); i += 3 {
			op, a, b := data[i], Time(data[i+1]), Time(data[i+2])
			now := ref.k.Now()
			kind := op % 8
			if kind == 4 && op >= 128 {
				kind = 8 // the high bit makes a fan-out phy-sized; ops below 128 keep their meaning
			}
			switch kind {
			case 0: // schedule a near event; b==0 makes same-time ties likely
				schedule(now + a*Time(Millisecond) + b*Time(Microsecond))
			case 1: // schedule far out: exercises the overflow tier
				schedule(now + a*Time(10*Second) + b*Time(Millisecond))
			case 2: // cancel a pseudo-random outstanding handle
				if len(ids) > 0 {
					j := int(a+b*7) % len(ids)
					want := ref.k.Cancel(ref.handles[j])
					for _, s := range sides[1:] {
						if got := s.k.Cancel(s.handles[j]); got != want {
							t.Fatalf("Cancel disagreed: %s %v, %s %v", ref.name, want, s.name, got)
						}
					}
					if want {
						cancelled[ids[j]] = true
					}
					for _, s := range sides {
						s.handles[j], s.handles = s.handles[len(s.handles)-1], s.handles[:len(s.handles)-1]
					}
					ids[j], ids = ids[len(ids)-1], ids[:len(ids)-1]
				}
			case 3: // advance: bounded RunUntil or single steps
				for _, s := range sides {
					if a%2 == 0 {
						s.k.RunUntil(now + b*Time(Millisecond))
					} else {
						s.k.Step()
					}
				}
			case 4: // fan out a%9 members over a b-strided, wrapping (unsorted) time grid
				for _, s := range sides {
					s.open = newFanout(s.k, s.batched, s.fire)
					for m := Time(0); m < a%9; m++ {
						s.open.Add(now+(m*b%5)*100*Time(Microsecond), nextID+int(m))
					}
					s.open.Commit()
				}
				nextID += int(a % 9)
			case 5: // append to the latest fan-out; refused ones go the other way
				if ref.open != nil {
					at := now + a*100*Time(Microsecond)
					want := ref.open.Append(at, nextID)
					for _, s := range sides[1:] {
						if got := s.open.Append(at, nextID); got != want {
							t.Fatalf("Append disagreed: %s %v, %s %v", ref.name, want, s.name, got)
						}
					}
					if want {
						nextID++
					} else {
						schedule(at)
					}
				}
			case 6: // (re)arm item a%16 to the hold from now
				for _, s := range sides {
					s.timers.Reset(int32(a % 16))
				}
			case 7: // stop item a%16, or every item when b is 0
				if b == 0 {
					for _, s := range sides {
						s.timers.StopAll()
					}
					break
				}
				want := ref.timers.Stop(int32(a % 16))
				for _, s := range sides[1:] {
					if got := s.timers.Stop(int32(a % 16)); got != want {
						t.Fatalf("Stop disagreed: %s %v, %s %v", ref.name, want, s.name, got)
					}
				}
			case 8: // op 4 with the high bit: a phy fan-out of 17–527 members on
				// the 0–1 835 ns propagation grid, every (b%8+2)th member tying
				// with the one before it to the nanosecond, and for b >= 128 a
				// 2 ms tail every 16th
				n := 17 + 2*int(a)
				for _, s := range sides {
					s.open = newFanout(s.k, s.batched, s.fire)
					var d Time
					for m := 0; m < n; m++ {
						switch {
						case b >= 128 && m%16 == 15:
							d = 2*Time(Millisecond) - Time(m)
						case m%(int(b%8)+2) != 0:
							d = Time((m*7919 + int(b)*104729) % 1836)
						}
						s.open.Add(now+d, nextID+m)
					}
					s.open.Commit()
				}
				nextID += n
			}
			for _, s := range sides[1:] {
				if s.k.Pending() != ref.k.Pending() || s.k.Processed() != ref.k.Processed() {
					t.Fatalf("op %d: Pending/Processed: %s %d/%d, %s %d/%d", i,
						ref.name, ref.k.Pending(), ref.k.Processed(), s.name, s.k.Pending(), s.k.Processed())
				}
				if s.k.Now() != ref.k.Now() || s.k.seq != ref.k.seq {
					t.Fatalf("op %d: Now/seq: %s %v/%d, %s %v/%d", i, ref.name, ref.k.Now(), ref.k.seq,
						s.name, s.k.Now(), s.k.seq)
				}
			}
		}
		for _, s := range sides {
			s.k.Run()
		}
		for _, s := range sides[1:] {
			if s.k.Now() != ref.k.Now() {
				t.Fatalf("after the last Run: Now: %s %v, %s %v", ref.name, ref.k.Now(), s.name, s.k.Now())
			}
		}

		for _, s := range sides[1:] {
			if len(s.log) != len(ref.log) {
				t.Fatalf("%s fired %d events, %s %d", ref.name, len(ref.log), s.name, len(s.log))
			}
			for i := range ref.log {
				if s.log[i] != ref.log[i] {
					t.Fatalf("pop %d diverged: %s %+v, %s %+v", i, ref.name, ref.log[i], s.name, s.log[i])
				}
			}
		}
		var last, lastPlain fired
		for i, ev := range ref.log {
			if ev.at < last.at {
				t.Fatalf("pop %d: time regressed: %v after %v", i, ev.at, last.at)
			}
			last = ev
			if ev.id < 0 {
				continue // a timer item: its id says nothing of its seq
			}
			if ev.at == lastPlain.at && i > 0 && ev.id < lastPlain.id {
				// IDs are assigned in scheduling (seq) order, so equal-time
				// events must fire in increasing id order.
				t.Fatalf("pop %d: seq tie-break violated: id %d after %d at %v", i, ev.id, lastPlain.id, ev.at)
			}
			if cancelled[ev.id] {
				t.Fatalf("cancelled event %d fired at %v", ev.id, ev.at)
			}
			lastPlain = ev
		}
	})
}
