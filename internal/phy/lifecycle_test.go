package phy

import (
	"math/rand"
	"testing"

	"cavenet/internal/geometry"
	"cavenet/internal/sim"
)

// deathWatch is a transmitter's recorder that checks, at each
// RadioFrameDead, that nothing can still hear the frame: no radio is
// transmitting it and no radio's active list holds a signal of it.
type deathWatch struct {
	*recorder
	t  *testing.T
	k  *sim.Kernel
	c  *Channel
	at []sim.Time // when each frame died
}

func (w *deathWatch) RadioFrameDead(f *Frame) {
	if f.live != 0 {
		w.t.Errorf("frame %d died with live count %d", f.ID, f.live)
	}
	for _, r := range w.c.radios {
		if r.txFrame == f {
			w.t.Errorf("frame %d died while %v still transmits it", f.ID, r)
		}
		for _, sig := range r.active {
			if sig.frame == f {
				w.t.Errorf("frame %d died while %v still hears it", f.ID, r)
			}
		}
	}
	w.at = append(w.at, w.k.Now())
	w.recorder.RadioFrameDead(f)
}

// watch attaches a radio at (x, 0) whose frame deaths are checked.
func watch(t *testing.T, k *sim.Kernel, c *Channel, x float64) (*Radio, *deathWatch) {
	r := c.Attach(geometry.Vec2{X: x})
	w := &deathWatch{recorder: &recorder{}, t: t, k: k, c: c}
	r.SetHandler(w)
	return r, w
}

// delay is the propagation delay over m meters, as propagate computes it.
func delay(m float64) sim.Time { return sim.Time(m / lightSpeed * float64(sim.Second)) }

// TestFrameDiesOnceAtLastHearing: every frame goes back to the pool exactly
// once, at the end of its last hearing — its own transmission or the
// farthest receiver's signal — whatever became of the receptions: none at
// all, erased by an impairment, discarded by a detached receiver, lost to
// a capture, or a frame so short its first hearing ends before its last
// begins. The receivers' payloads are checked too: a frame recycled early
// hands a later receiver a zeroed record.
func TestFrameDiesOnceAtLastHearing(t *testing.T) {
	const dur = sim.Millisecond
	for _, tc := range []struct {
		name string
		// run builds the case on a fresh channel and returns the watched
		// transmitters with the instants their frames must die at, and the
		// receivers with the payloads each must decode.
		run func(t *testing.T, k *sim.Kernel, c *Channel) (map[*deathWatch][]sim.Time, map[*recorder][]any)
	}{
		{"zero receivers", func(t *testing.T, k *sim.Kernel, c *Channel) (map[*deathWatch][]sim.Time, map[*recorder][]any) {
			tx, w := watch(t, k, c, 0)
			tx.Transmit("x", 100, dur)
			return map[*deathWatch][]sim.Time{w: {dur}}, nil
		}},
		{"impairment erasure", func(t *testing.T, k *sim.Kernel, c *Channel) (map[*deathWatch][]sim.Time, map[*recorder][]any) {
			tx, w := watch(t, k, c, 0)
			_, rx := attach(c, 100, 0)
			c.SetImpairRand(rand.New(rand.NewSource(1)))
			c.SetImpairment(0, 1, 1, 0) // every reception erased
			tx.Transmit("x", 100, dur)
			return map[*deathWatch][]sim.Time{w: {dur}}, map[*recorder][]any{rx: nil}
		}},
		{"detached receiver", func(t *testing.T, k *sim.Kernel, c *Channel) (map[*deathWatch][]sim.Time, map[*recorder][]any) {
			tx, w := watch(t, k, c, 0)
			far, farRec := attach(c, 200, 0)
			_, near := attach(c, 100, 0)
			tx.Transmit("x", 100, dur)
			far.Detach() // before the signal reaches it
			return map[*deathWatch][]sim.Time{w: {dur + delay(100)}},
				map[*recorder][]any{farRec: nil, near: {"x"}}
		}},
		{"capture", func(t *testing.T, k *sim.Kernel, c *Channel) (map[*deathWatch][]sim.Time, map[*recorder][]any) {
			// TestCaptureStrongerFrameSurvives: the strong frame captures
			// the receiver from the weak one, which dies all the same.
			near, nw := watch(t, k, c, 10)
			far, fw := watch(t, k, c, 240)
			_, rx := attach(c, 0, 0)
			far.Transmit("weak", 100, dur)
			k.Schedule(100*sim.Microsecond, func() { near.Transmit("strong", 100, dur) })
			return map[*deathWatch][]sim.Time{
					fw: {dur + delay(240)},
					nw: {100*sim.Microsecond + dur + delay(230)},
				},
				map[*recorder][]any{rx: {"strong"}}
		}},
		{"short frame ends before later starts", func(t *testing.T, k *sim.Kernel, c *Channel) (map[*deathWatch][]sim.Time, map[*recorder][]any) {
			// TestShortFrameEndsBeforeLaterStarts: the transmission and the
			// near hearing end before the far hearing starts.
			tx, w := watch(t, k, c, 0)
			_, near := attach(c, 30, 0)
			_, far := attach(c, 240, 0)
			tx.Transmit("x", 1, 200*sim.Nanosecond)
			return map[*deathWatch][]sim.Time{w: {delay(240) + 200*sim.Nanosecond}},
				map[*recorder][]any{near: {"x"}, far: {"x"}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, c := testChannel(t, Config{CaptureRatio: 10})
			deaths, decodes := tc.run(t, k, c)
			for k.Step() {
			}
			for w, want := range deaths {
				if len(w.at) != len(want) || len(w.dead) != len(want) {
					t.Fatalf("frames died at %v, want %v", w.at, want)
				}
				for i := range want {
					if w.at[i] != want[i] {
						t.Fatalf("frames died at %v, want %v", w.at, want)
					}
				}
			}
			for rec, want := range decodes {
				if len(rec.received) != len(want) {
					t.Fatalf("decoded %v, want %v", rec.received, want)
				}
				for i := range want {
					if rec.received[i] != want[i] {
						t.Fatalf("decoded %v, want %v", rec.received, want)
					}
				}
			}
			// Exactly once: the pool holds each record once, and as many
			// records as frames were ever on the air together.
			transmitted, _, _ := c.Stats()
			seen := make(map[*Frame]bool)
			for _, f := range c.frameFree {
				if seen[f] {
					t.Fatalf("frame record %p pooled twice", f)
				}
				seen[f] = true
				if *f != (Frame{}) {
					t.Fatalf("pooled frame record not zeroed: %+v", *f)
				}
			}
			if len(seen) == 0 || uint64(len(seen)) > transmitted {
				t.Fatalf("pool holds %d records after %d frames", len(seen), transmitted)
			}
		})
	}
}
