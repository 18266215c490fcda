package mac

import (
	"fmt"
	"math/rand"
	"testing"

	"cavenet/internal/geometry"
	"cavenet/internal/phy"
	"cavenet/internal/sim"
)

// macEvent is one line of a station's observable history: a transmission
// (stamped with the instant it went on the air), a carrier edge, or a
// callback into the upper layer.
type macEvent struct {
	at   sim.Time
	what string
	kind Kind    // tx only
	peer Address // tx: the addressee; upcalls: the other station
	n    int     // tx: the MAC sequence number; upcalls: the payload id
}

// station is a DCF wired to record everything the backoff tests compare.
// It sits between the radio and the MAC (phy.Handler) and above the MAC
// (Upper and every optional observer).
type station struct {
	*DCF
	k     *sim.Kernel
	radio *phy.Radio
	log   []macEvent
}

func (s *station) note(what string, kind Kind, peer Address, n int) {
	s.log = append(s.log, macEvent{at: s.k.Now(), what: what, kind: kind, peer: peer, n: n})
}

func (s *station) RadioTxDone(f *phy.Frame) {
	fr := f.Payload.(*Frame)
	s.log = append(s.log, macEvent{at: s.k.Now() - f.Duration, what: "tx", kind: fr.Kind, peer: fr.To, n: int(fr.Seq)})
	s.DCF.RadioTxDone(f)
}

func (s *station) RadioCarrier(busy bool) {
	if busy {
		s.note("busy", 0, 0, 0)
	} else {
		s.note("idle", 0, 0, 0)
	}
	s.DCF.RadioCarrier(busy)
}

func (s *station) MACReceive(p any, from Address)  { s.note("rx", 0, from, p.(int)) }
func (s *station) MACSendFailed(to Address, p any) { s.note("failed", 0, to, p.(int)) }
func (s *station) MACQueueDrop(to Address, p any)  { s.note("qdrop", 0, to, p.(int)) }
func (s *station) MACSendDone(to Address, p any)   { s.note("done", 0, to, p.(int)) }
func (s *station) MACDownDrop(to Address, p any)   { s.note("ddrop", 0, to, p.(int)) }

// txTimes lists the instants the station put a frame of the given kind on
// the air.
func (s *station) txTimes(kind Kind) []sim.Time {
	var at []sim.Time
	for _, e := range s.log {
		if e.what == "tx" && e.kind == kind {
			at = append(at, e.at)
		}
	}
	return at
}

// newCell puts one station at each x position (meters, on a line) of a
// fresh channel. oracle selects the per-slot reference countdown.
func newCell(oracle bool, pc phy.Config, mc Config, xs ...float64) (*sim.Kernel, []*station) {
	k := sim.NewKernel()
	pc.CaptureRatio = 10
	c := phy.NewChannel(k, phy.TwoRayGround{}, pc)
	mc.SlotOracle = oracle
	var sts []*station
	for i, x := range xs {
		s := &station{k: k, radio: c.Attach(geometry.Vec2{X: x})}
		s.DCF = New(k, s.radio, Address(i), mc, rand.New(rand.NewSource(int64(i+1))), s)
		s.radio.SetHandler(s)
		sts = append(sts, s)
	}
	return k, sts
}

// bothCountdowns runs a test body against the per-backoff timer and against
// the per-slot reference: the countdown's semantics are one contract.
func bothCountdowns(t *testing.T, body func(t *testing.T, oracle bool)) {
	for _, oracle := range []bool{false, true} {
		t.Run(fmt.Sprintf("SlotOracle=%v", oracle), func(t *testing.T) { body(t, oracle) })
	}
}

const (
	slot = 20 * sim.Microsecond
	difs = 50 * sim.Microsecond
	// prop100 is the PHY's propagation delay over the 100 m between the two
	// stations of the timestamp tests (100 m / c, truncated to nanoseconds).
	prop100 = 333 * sim.Nanosecond
)

// contender builds the two-station cell of the timestamp tests: station 0
// has a broadcast queued at t=0 with the given backoff (its DIFS ends at
// 50 µs, its slot boundaries are 70, 90, 110 µs …), and station 1 puts a
// broadcast with a zero backoff on the air at exactly bAir, so its carrier
// edge reaches station 0 at bAir + prop100.
func contender(oracle bool, backoff int, bAir sim.Time) (*sim.Kernel, *station, *station) {
	k, st := newCell(oracle, phy.Config{}, Config{}, 0, 100)
	a, b := st[0], st[1]
	a.Send(Broadcast, 1, 100)
	a.backoff = backoff
	k.Schedule(bAir-difs, func() {
		b.Send(Broadcast, 2, 100)
		b.backoff = 0
	})
	return k, a, b
}

// TestBackoffFreezeKeepsRemainingSlots: a foreign frame lands in the middle
// of a countdown. The slots already counted stay counted; after the medium
// clears and a fresh DIFS the station waits only the remaining ones.
func TestBackoffFreezeKeepsRemainingSlots(t *testing.T) {
	bothCountdowns(t, func(t *testing.T, oracle bool) {
		// Station 0 counts boundaries at 70 and 90 µs; the edge arrives at
		// 95.333 µs with three of five slots left.
		k, a, b := contender(oracle, 5, 95*sim.Microsecond)
		k.RunUntil(200 * sim.Microsecond)
		if a.backoff != 3 {
			t.Fatalf("frozen backoff = %d, want 3", a.backoff)
		}
		k.Run()
		busy := 95*sim.Microsecond + prop100
		idle := busy + b.dataDuration(100)
		if got := b.txTimes(KindData); len(got) != 1 || got[0] != 95*sim.Microsecond {
			t.Fatalf("station 1 transmitted at %v, want [95 µs]", got)
		}
		if got, want := a.txTimes(KindData), idle+difs+3*slot; len(got) != 1 || got[0] != want {
			t.Fatalf("station 0 transmitted at %v, want [%v]: DIFS + the 3 remaining slots after the medium cleared at %v", got, want, idle)
		}
	})
}

// TestBackoffBoundaryTies pins what happens when a busy edge and a slot
// boundary share a nanosecond.
func TestBackoffBoundaryTies(t *testing.T) {
	// A carrier edge exactly on an inner boundary: the boundary's slot was
	// idle and counts (the per-slot event of that boundary was scheduled a
	// slot ago, the signal start a propagation delay ago).
	t.Run("edge on a boundary counts the slot", func(t *testing.T) {
		bothCountdowns(t, func(t *testing.T, oracle bool) {
			k, a, b := contender(oracle, 5, 90*sim.Microsecond-prop100)
			k.RunUntil(200 * sim.Microsecond)
			if a.log[0] != (macEvent{at: 90 * sim.Microsecond, what: "busy"}) {
				t.Fatalf("precondition: first event at station 0 is %+v, want the busy edge at 90 µs", a.log[0])
			}
			if a.backoff != 3 {
				t.Fatalf("frozen backoff = %d, want 3 (boundaries at 70 and 90 µs both count)", a.backoff)
			}
			k.Run()
			want := 90*sim.Microsecond + b.dataDuration(100) + difs + 3*slot
			if got := a.txTimes(KindData); len(got) != 1 || got[0] != want {
				t.Fatalf("station 0 transmitted at %v, want [%v]", got, want)
			}
		})
	})
	// A carrier edge on the expiry's own nanosecond: the station transmits,
	// and the arriving signal finds a radio already on the air.
	t.Run("edge on the expiry loses to the transmit", func(t *testing.T) {
		bothCountdowns(t, func(t *testing.T, oracle bool) {
			k, a, _ := contender(oracle, 2, 90*sim.Microsecond-prop100)
			k.Run()
			if got := a.txTimes(KindData); len(got) != 1 || got[0] != 90*sim.Microsecond {
				t.Fatalf("station 0 transmitted at %v, want [90 µs]", got)
			}
			for _, e := range a.log {
				if e.what == "busy" {
					t.Fatalf("station 0 saw a busy edge at %v; its own transmission should have masked it", e.at)
				}
			}
		})
	})
	// A freezer that the kernel orders before the pending expiry on its
	// nanosecond (it was scheduled before the countdown was armed — no PHY
	// event can be, see the lemma at freeze) stops the countdown with the
	// last slot still owed.
	t.Run("freezer before the pending expiry leaves one slot", func(t *testing.T) {
		bothCountdowns(t, func(t *testing.T, oracle bool) {
			k, st := newCell(oracle, phy.Config{}, Config{}, 0)
			a := st[0]
			k.Schedule(90*sim.Microsecond, func() { a.DCF.RadioCarrier(true) })
			k.Schedule(100*sim.Microsecond, func() { a.DCF.RadioCarrier(false) })
			a.Send(Broadcast, 1, 100)
			a.backoff = 2 // expiry at 90 µs
			k.RunUntil(95 * sim.Microsecond)
			if a.backoff != 1 || a.radio.Transmitting() {
				t.Fatalf("backoff = %d, transmitting = %v; want 1 and false", a.backoff, a.radio.Transmitting())
			}
			k.Run()
			want := 100*sim.Microsecond + difs + slot
			if got := a.txTimes(KindData); len(got) != 1 || got[0] != want {
				t.Fatalf("station 0 transmitted at %v, want [%v]", got, want)
			}
		})
	})
}

// TestBackoffEventsIndependentOfCW pins the work the per-backoff timer
// saves as a count: a saturated pair fires the same number of kernel events
// per delivered frame whether backoffs average 15 slots or 511, because a
// countdown is one event however long it is. (With one event per slot the
// two differ by some 500 events per frame.)
func TestBackoffEventsIndependentOfCW(t *testing.T) {
	eventsPerFrame := func(cw int) float64 {
		k, st := newCell(false, phy.Config{}, Config{CWMin: cw, CWMax: cw}, 0, 100)
		const frames = 50
		for i := 0; i < frames; i++ {
			st[0].Send(1, i, 512)
		}
		k.Run()
		if got := st[1].Stats().DataRx; got != frames {
			t.Fatalf("CW %d: delivered %d/%d", cw, got, frames)
		}
		return float64(k.Processed()) / frames
	}
	narrow, wide := eventsPerFrame(31), eventsPerFrame(1023)
	// A zero draw skips the timer altogether, hence "within one event".
	if d := wide - narrow; d > 1 || d < -1 {
		t.Fatalf("events per delivered frame: %.2f at CW 31, %.2f at CW 1023; want equal within 1", narrow, wide)
	}
}

// A backoff script is a byte string: a header laying out a cell, then
// five-byte ops (what, two bytes of time to let pass first, who, argument).
// diffBackoffScript plays it to a per-backoff-timer world and a per-slot
// world in lockstep and fails on the first difference in any station's
// history (transmit instants, carrier edges, deliveries, failures, drops)
// or Stats.
//
//	header: stations (2 + b%5) · flags (1: carrier sense shrunk to the decode
//	range, so stations 250–550 m apart are hidden from each other; 2:
//	RTS/CTS for payloads ≥ 256 B; 4: no propagation delay) · one byte of x
//	position per station (3 m units)
//	op%8:   0–2 unicast · 3 broadcast · 4 move · 5 down · 6 up · 7 burst of
//	four unicasts;  op>>6 picks the time unit (1 ns, 1 µs, 10 µs, 1 ms)
func diffBackoffScript(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	n, flags := 2+int(data[0])%5, data[1]
	data = data[2:]
	if len(data) < n {
		return
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(data[i]) * 3
	}
	data = data[n:]
	var pc phy.Config
	var mc Config
	if flags&1 != 0 {
		pc.CSRangeM = 250
	}
	if flags&2 != 0 {
		mc.RTSThreshold = 256
	}
	pc.NoPropDelay = flags&4 != 0

	type world struct {
		k  *sim.Kernel
		st []*station
	}
	var fast, ref world
	fast.k, fast.st = newCell(false, pc, mc, xs...)
	ref.k, ref.st = newCell(true, pc, mc, xs...)
	worlds := []*world{&fast, &ref}

	compared := make([]int, n) // per station: log entries already found equal
	compare := func(final bool) {
		t.Helper()
		for i := range fast.st {
			f, r := fast.st[i], ref.st[i]
			for j := compared[i]; j < len(f.log) && j < len(r.log); j++ {
				if f.log[j] != r.log[j] {
					t.Fatalf("t=%v station %d event %d: per-backoff %+v, per-slot %+v", fast.k.Now(), i, j, f.log[j], r.log[j])
				}
			}
			compared[i] = len(f.log)
			if len(f.log) != len(r.log) {
				t.Fatalf("t=%v station %d: per-backoff logged %d events, per-slot %d", fast.k.Now(), i, len(f.log), len(r.log))
			}
			if f.Stats() != r.Stats() || f.QueueLen() != r.QueueLen() {
				t.Fatalf("t=%v station %d: per-backoff %+v (%d queued), per-slot %+v (%d queued)",
					fast.k.Now(), i, f.Stats(), f.QueueLen(), r.Stats(), r.QueueLen())
			}
		}
		if final && fast.k.Now() != ref.k.Now() {
			t.Fatalf("worlds drained at %v (per-backoff) and %v (per-slot)", fast.k.Now(), ref.k.Now())
		}
	}

	units := [4]sim.Time{sim.Nanosecond, sim.Microsecond, 10 * sim.Microsecond, sim.Millisecond}
	payload := 0
	for ; len(data) >= 5; data = data[5:] {
		op, who, arg := data[0], int(data[3])%n, int(data[4])
		at := fast.k.Now() + sim.Time(int(data[1])<<8|int(data[2]))*units[op>>6]
		for _, w := range worlds {
			w.k.RunUntil(at)
		}
		compare(false)
		peer := Address((who + 1 + arg%(n-1)) % n)
		for _, w := range worlds {
			s := w.st[who]
			switch op % 8 {
			case 0, 1, 2:
				s.Send(peer, payload, 40+4*arg)
			case 3:
				s.Send(Broadcast, payload, 40+4*arg)
			case 4:
				s.radio.SetPosition(geometry.Vec2{X: float64(arg) * 3})
			case 5:
				if !s.IsDown() {
					s.Down()
					s.radio.Detach()
				}
			case 6:
				if s.IsDown() {
					s.radio.Reattach()
					s.Up()
				}
			case 7:
				for j := 0; j < 4; j++ {
					s.Send(peer, payload+j, 40+4*arg)
				}
			}
		}
		payload += 4
	}
	for _, w := range worlds {
		w.k.Run()
	}
	compare(true)
}

// TestBackoffMatchesPerSlot plays randomized cells — two to six stations,
// hidden terminals, broadcast and unicast, RTS/CTS, moves, Down/Up — to
// both countdowns and requires identical histories. Ops come mostly tens
// of microseconds apart, so frames land inside each other's countdowns and
// retries pile up at large contention windows.
func TestBackoffMatchesPerSlot(t *testing.T) {
	scripts := 300
	if testing.Short() {
		scripts = 60
	}
	rnd := rand.New(rand.NewSource(16))
	for i := 0; i < scripts; i++ {
		script := []byte{byte(rnd.Intn(5)), byte(rnd.Intn(8))}
		for s := 0; s < 6; s++ {
			script = append(script, byte(rnd.Intn(200)))
		}
		for ops := 20 + rnd.Intn(120); ops > 0; ops-- {
			unit := []byte{0, 1, 1, 2, 2, 2, 3}[rnd.Intn(7)]
			dt := rnd.Intn(256)
			switch {
			case unit == 3: // a few milliseconds at most, or the cell goes quiet
				dt = rnd.Intn(4)
			case rnd.Intn(4) == 0:
				dt += rnd.Intn(4) << 8
			}
			what := byte(rnd.Intn(8))
			if what >= 4 && what <= 6 && rnd.Intn(3) > 0 {
				what = byte(rnd.Intn(4)) // mostly traffic
			}
			script = append(script, unit<<6|what, byte(dt>>8), byte(dt), byte(rnd.Intn(256)), byte(rnd.Intn(256)))
		}
		t.Run(fmt.Sprint(i), func(t *testing.T) { diffBackoffScript(t, script) })
	}
}

// FuzzBackoffDifferential hands the script interpreter to the fuzzer: any
// byte string on which the per-backoff timer and the per-slot reference
// part ways — or on which either trips a MAC or PHY invariant panic — is a
// finding. Wired into `make fuzz-smoke`; hunt with:
//
//	go test ./internal/mac -fuzz FuzzBackoffDifferential
func FuzzBackoffDifferential(f *testing.F) {
	// Three stations in one collision domain, a burst each, 30 µs apart.
	f.Add([]byte{1, 0, 0, 30, 60, 0x47, 0, 0, 0, 100, 0x47, 0, 30, 1, 100, 0x47, 0, 30, 2, 100})
	// Hidden pair around a middle station, RTS/CTS, a crash and a recovery.
	f.Add([]byte{1, 3, 0, 66, 132, 0x47, 0, 0, 0, 120, 0x47, 0, 7, 2, 120, 0xc5, 0, 2, 1, 0, 0x83, 0, 50, 1, 9, 0xc6, 0, 1, 1, 0})
	// No propagation delay: every edge in the cell shares its nanosecond.
	f.Add([]byte{3, 4, 0, 10, 20, 30, 40, 0x87, 0, 0, 0, 50, 0x87, 0, 2, 1, 50, 0x87, 0, 2, 2, 50, 0x83, 0, 2, 3, 50, 0x87, 0, 2, 4, 50})
	f.Fuzz(diffBackoffScript)
}
