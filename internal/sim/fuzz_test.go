package sim

import (
	"testing"
)

// FuzzKernelDifferential feeds a byte stream as a schedule/cancel/fan-out/
// append/step/run-until op sequence to three kernels in lockstep — the
// calendar queue and the heap oracle, both submitting fan-outs as batches,
// and a calendar kernel submitting the same members one ScheduleArg each
// (eachFanout) — checking on every op that:
//
//   - pop sequences are bit-identical: same (time, payload id) in the same
//     order, clocks in lockstep — the determinism contract every golden
//     depends on, across queue implementations and across batching;
//   - pop times are monotone non-decreasing and same-time events fire in
//     seq (insertion) order;
//   - no cancelled event ever fires, and Cancel/Append/Pending/Processed
//     agree between the three — a free-list record reused after
//     cancellation must never resurrect the old handle.
//
// Wired into `make fuzz-smoke`; hunt with:
//
//	go test ./internal/sim -fuzz FuzzKernelDifferential
func FuzzKernelDifferential(f *testing.F) {
	f.Add([]byte{0x10, 0x22, 0x80, 0x41, 0xc0, 0x05, 0x33, 0x90})
	f.Add([]byte{0x00, 0x00, 0x00, 0xff, 0xff, 0x7f, 0x01, 0x02, 0x03})
	f.Add([]byte("schedule/cancel soup with a long tail of bytes to chew"))
	f.Add([]byte{4, 7, 3, 5, 1, 0, 3, 2, 1, 5, 9, 0, 4, 200, 0, 3, 1, 0, 3, 0, 2, 5, 0, 0})
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
		}
		sides := []*side{
			{name: "calendar", k: NewKernel(), batched: true},
			{name: "oracle", k: newHeapKernel(), batched: true},
			{name: "calendar/each", k: NewKernel()},
		}
		for _, s := range sides {
			s := s
			s.fire = func(a any) { s.log = append(s.log, fired{id: a.(int), at: s.k.Now()}) }
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
			switch op % 6 {
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
			}
			for _, s := range sides[1:] {
				if s.k.Pending() != ref.k.Pending() || s.k.Processed() != ref.k.Processed() {
					t.Fatalf("op %d: Pending/Processed: %s %d/%d, %s %d/%d", i,
						ref.name, ref.k.Pending(), ref.k.Processed(), s.name, s.k.Pending(), s.k.Processed())
				}
				if s.k.Now() != ref.k.Now() {
					t.Fatalf("op %d: Now: %s %v, %s %v", i, ref.name, ref.k.Now(), s.name, s.k.Now())
				}
			}
		}
		for _, s := range sides {
			s.k.Run()
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
		var last fired
		for i, ev := range ref.log {
			if ev.at < last.at {
				t.Fatalf("pop %d: time regressed: %v after %v", i, ev.at, last.at)
			}
			if ev.at == last.at && i > 0 && ev.id < last.id {
				// IDs are assigned in scheduling (seq) order, so equal-time
				// events must fire in increasing id order.
				t.Fatalf("pop %d: seq tie-break violated: id %d after %d at %v", i, ev.id, last.id, ev.at)
			}
			if cancelled[ev.id] {
				t.Fatalf("cancelled event %d fired at %v", ev.id, ev.at)
			}
			last = ev
		}
	})
}
