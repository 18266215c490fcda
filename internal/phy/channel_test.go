package phy

import (
	"testing"

	"cavenet/internal/geometry"
	"cavenet/internal/sim"
)

// recorder is a minimal Handler that logs radio events.
type recorder struct {
	received []*Frame
	powers   []float64
	carrier  []bool
	txDone   int
}

func (r *recorder) RadioReceive(f *Frame, p float64) {
	r.received = append(r.received, f)
	r.powers = append(r.powers, p)
}
func (r *recorder) RadioCarrier(busy bool) { r.carrier = append(r.carrier, busy) }
func (r *recorder) RadioTxDone(*Frame)     { r.txDone++ }

func testChannel(t *testing.T, cfg Config) (*sim.Kernel, *Channel) {
	t.Helper()
	k := sim.NewKernel()
	return k, NewChannel(k, TwoRayGround{}, cfg)
}

func attach(c *Channel, x, y float64) (*Radio, *recorder) {
	r := c.Attach(geometry.Vec2{X: x, Y: y})
	rec := &recorder{}
	r.SetHandler(rec)
	return r, rec
}

func TestDeliveryInRange(t *testing.T) {
	k, c := testChannel(t, Config{})
	tx, _ := attach(c, 0, 0)
	_, rxRec := attach(c, 200, 0)
	tx.Transmit("hello", 100, sim.Millisecond)
	k.Run()
	if len(rxRec.received) != 1 {
		t.Fatalf("received %d frames, want 1", len(rxRec.received))
	}
	if rxRec.received[0].Payload != "hello" {
		t.Fatalf("payload = %v", rxRec.received[0].Payload)
	}
	if rxRec.powers[0] < c.RxThreshW() {
		t.Fatal("reported power below receive threshold")
	}
}

func TestNoDeliveryBeyondRange(t *testing.T) {
	k, c := testChannel(t, Config{})
	tx, _ := attach(c, 0, 0)
	_, nearRec := attach(c, 400, 0) // between RX (250) and CS (550) range
	_, farRec := attach(c, 600, 0)  // beyond CS range
	tx.Transmit("x", 100, sim.Millisecond)
	k.Run()
	if len(nearRec.received) != 0 {
		t.Fatal("node inside CS but outside RX range must not decode")
	}
	if len(nearRec.carrier) == 0 {
		t.Fatal("node inside CS range must sense the carrier")
	}
	if len(farRec.received) != 0 || len(farRec.carrier) != 0 {
		t.Fatal("node beyond CS range must hear nothing")
	}
}

func TestCarrierTransitions(t *testing.T) {
	k, c := testChannel(t, Config{})
	tx, _ := attach(c, 0, 0)
	_, rec := attach(c, 100, 0)
	tx.Transmit("x", 100, sim.Millisecond)
	k.Run()
	if len(rec.carrier) != 2 || rec.carrier[0] != true || rec.carrier[1] != false {
		t.Fatalf("carrier transitions = %v, want [true false]", rec.carrier)
	}
}

func TestTxDoneNotification(t *testing.T) {
	k, c := testChannel(t, Config{})
	tx, txRec := attach(c, 0, 0)
	tx.Transmit("x", 10, sim.Millisecond)
	if !tx.Transmitting() {
		t.Fatal("radio should report Transmitting during tx")
	}
	k.Run()
	if tx.Transmitting() {
		t.Fatal("radio still transmitting after completion")
	}
	if txRec.txDone != 1 {
		t.Fatalf("txDone = %d", txRec.txDone)
	}
}

func TestCollisionCorruptsBoth(t *testing.T) {
	k, c := testChannel(t, Config{})
	a, _ := attach(c, 0, 0)
	b, _ := attach(c, 100, 0)
	_, mid := attach(c, 50, 0) // equidistant: comparable powers
	a.Transmit("A", 100, sim.Millisecond)
	b.Transmit("B", 100, sim.Millisecond)
	k.Run()
	if len(mid.received) != 0 {
		t.Fatalf("middle node decoded %d frames from a collision", len(mid.received))
	}
	_, _, collided := c.Stats()
	if collided == 0 {
		t.Fatal("collision counter should be non-zero")
	}
}

func TestCaptureStrongerFrameSurvives(t *testing.T) {
	k, c := testChannel(t, Config{CaptureRatio: 10})
	near, _ := attach(c, 10, 0) // very close to receiver: strong
	far, _ := attach(c, 240, 0) // near edge of range: weak
	_, rx := attach(c, 0, 0)
	// Weak frame starts first, strong frame arrives during reception and
	// captures the receiver.
	far.Transmit("weak", 100, sim.Millisecond)
	k.Schedule(100*sim.Microsecond, func() {
		near.Transmit("strong", 100, sim.Millisecond)
	})
	k.Run()
	if len(rx.received) != 1 || rx.received[0].Payload != "strong" {
		t.Fatalf("capture failed: received %v", payloads(rx.received))
	}
}

func TestCaptureWeakerLateFrameIgnored(t *testing.T) {
	k, c := testChannel(t, Config{CaptureRatio: 10})
	near, _ := attach(c, 10, 0)
	far, _ := attach(c, 240, 0)
	_, rx := attach(c, 0, 0)
	// Strong frame first; weak late arrival must not corrupt it.
	near.Transmit("strong", 100, sim.Millisecond)
	k.Schedule(100*sim.Microsecond, func() {
		far.Transmit("weak", 100, sim.Millisecond)
	})
	k.Run()
	if len(rx.received) != 1 || rx.received[0].Payload != "strong" {
		t.Fatalf("ongoing strong reception lost: received %v", payloads(rx.received))
	}
}

func TestNoCaptureModeBothLost(t *testing.T) {
	k, c := testChannel(t, Config{CaptureRatio: 0})
	near, _ := attach(c, 10, 0)
	far, _ := attach(c, 240, 0)
	_, rx := attach(c, 0, 0)
	near.Transmit("strong", 100, sim.Millisecond)
	k.Schedule(100*sim.Microsecond, func() {
		far.Transmit("weak", 100, sim.Millisecond)
	})
	k.Run()
	if len(rx.received) != 0 {
		t.Fatalf("capture disabled: received %v", payloads(rx.received))
	}
}

func TestHalfDuplexTxDuringRx(t *testing.T) {
	k, c := testChannel(t, Config{})
	a, _ := attach(c, 0, 0)
	b, bRec := attach(c, 100, 0)
	a.Transmit("fromA", 100, sim.Millisecond)
	// b starts transmitting mid-reception: the arriving frame is lost.
	k.Schedule(200*sim.Microsecond, func() {
		b.Transmit("fromB", 100, sim.Millisecond)
	})
	k.Run()
	if len(bRec.received) != 0 {
		t.Fatal("half-duplex radio decoded a frame while transmitting")
	}
}

func TestArrivalDuringOwnTxLost(t *testing.T) {
	k, c := testChannel(t, Config{})
	a, _ := attach(c, 0, 0)
	b, bRec := attach(c, 100, 0)
	b.Transmit("mine", 100, 2*sim.Millisecond)
	k.Schedule(500*sim.Microsecond, func() {
		a.Transmit("late", 10, 100*sim.Microsecond)
	})
	k.Run()
	if len(bRec.received) != 0 {
		t.Fatal("frame arriving during own transmission must be lost")
	}
}

func TestDoubleTransmitPanics(t *testing.T) {
	_, c := testChannel(t, Config{})
	a, _ := attach(c, 0, 0)
	a.Transmit("x", 10, sim.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("transmitting while transmitting must panic")
		}
	}()
	a.Transmit("y", 10, sim.Millisecond)
}

func TestPropagationDelay(t *testing.T) {
	k, c := testChannel(t, Config{})
	tx, _ := attach(c, 0, 0)
	_, rec := attach(c, 250, 0) // ≈834 ns at light speed
	var deliveredAt sim.Time
	wrapped := &hookHandler{inner: rec, onReceive: func() { deliveredAt = k.Now() }}
	c.radios[1].SetHandler(wrapped)
	tx.Transmit("x", 100, sim.Millisecond)
	k.Run()
	wantMin := sim.Millisecond + 800*sim.Nanosecond
	if deliveredAt < wantMin {
		t.Fatalf("delivered at %v, want >= %v (duration + propagation)", deliveredAt, wantMin)
	}
}

func TestNoPropDelayOption(t *testing.T) {
	k, c := testChannel(t, Config{NoPropDelay: true})
	tx, _ := attach(c, 0, 0)
	_, rec := attach(c, 250, 0)
	var deliveredAt sim.Time
	wrapped := &hookHandler{inner: rec, onReceive: func() { deliveredAt = k.Now() }}
	c.radios[1].SetHandler(wrapped)
	tx.Transmit("x", 100, sim.Millisecond)
	k.Run()
	if deliveredAt != sim.Millisecond {
		t.Fatalf("delivered at %v, want exactly the frame duration", deliveredAt)
	}
}

func TestChannelStats(t *testing.T) {
	k, c := testChannel(t, Config{})
	tx, _ := attach(c, 0, 0)
	attach(c, 100, 0)
	attach(c, 150, 0)
	tx.Transmit("x", 100, sim.Millisecond)
	k.Run()
	transmitted, delivered, _ := c.Stats()
	if transmitted != 1 {
		t.Fatalf("transmitted = %d", transmitted)
	}
	if delivered != 2 {
		t.Fatalf("delivered = %d (two receivers in range)", delivered)
	}
}

type hookHandler struct {
	inner     Handler
	onReceive func()
}

func (h *hookHandler) RadioReceive(f *Frame, p float64) {
	h.onReceive()
	h.inner.RadioReceive(f, p)
}
func (h *hookHandler) RadioCarrier(b bool)  { h.inner.RadioCarrier(b) }
func (h *hookHandler) RadioTxDone(f *Frame) { h.inner.RadioTxDone(f) }

func payloads(fs []*Frame) []any {
	var out []any
	for _, f := range fs {
		out = append(out, f.Payload)
	}
	return out
}

// TestTransmitFanOutAllocatesOnlyFrame pins the steady-state cost of one
// broadcast through the PHY: the Frame, and nothing else — signal records,
// the start and end batches, their member storage and their queue entries
// are all pooled.
func TestTransmitFanOutAllocatesOnlyFrame(t *testing.T) {
	for _, c := range []struct {
		prop Propagation
		cfg  Config
	}{
		{TwoRayGround{}, Config{CaptureRatio: 10}},
		{TwoRayGround{}, Config{CaptureRatio: 10, NoPropDelay: true}},
		{unculled{TwoRayGround{}}, Config{CaptureRatio: 10}},
	} {
		k, _, radios := benchStrip(200, c.prop, c.cfg)
		payload := any(&struct{}{})
		i := 0
		cycle := func() {
			radios[i%len(radios)].Transmit(payload, 512, 100*sim.Microsecond)
			i++
			k.Run()
		}
		for j := 0; j < 2*len(radios); j++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(400, cycle); allocs != 1 {
			t.Fatalf("%+v: one broadcast allocated %v times, want 1 (the Frame)", c, allocs)
		}
	}
}

// TestShortFrameEndsBeforeLaterStarts covers the one case where a frame's
// batch of signal ends finishes while the frame is still arriving
// somewhere: a frame shorter than the spread of propagation delays. The
// near receiver's end fires (and its end batch is recycled) before the far
// receiver's start, whose end must then open a fresh batch.
func TestShortFrameEndsBeforeLaterStarts(t *testing.T) {
	k, c := testChannel(t, Config{})
	tx, _ := attach(c, 0, 0)
	_, near := attach(c, 30, 0) // ≈100 ns away
	_, far := attach(c, 240, 0) // ≈800 ns away
	tx.Transmit("x", 1, 200*sim.Nanosecond)
	k.Run()
	for name, rec := range map[string]*recorder{"near": near, "far": far} {
		if len(rec.received) != 1 {
			t.Fatalf("%s receiver decoded %d frames, want 1", name, len(rec.received))
		}
		if len(rec.carrier) != 2 || !rec.carrier[0] || rec.carrier[1] {
			t.Fatalf("%s receiver carrier edges = %v, want [true false]", name, rec.carrier)
		}
	}
	if k.Pending() != 0 {
		t.Fatalf("%d events still pending", k.Pending())
	}
}
