package phy

import (
	"fmt"
	"math"
	"math/rand"

	"cavenet/internal/geometry"
	"cavenet/internal/sim"
	"cavenet/internal/spatial"
)

// Frame is one physical-layer transmission unit. Payload is opaque to the
// PHY (the MAC frame).
//
// A frame is pooled by its channel. It lives while anyone can still hear
// it: live counts the transmission plus every signal propagate scheduled,
// and drops as the transmission ends (after RadioTxDone), as each signal
// ends (after its RadioReceive, whether or not it decoded) and as a
// detached receiver discards a start. The last hearing tells the sender's
// handler (RadioFrameDead) and recycles the record, so no handler may
// retain a *Frame past its callback.
type Frame struct {
	ID       uint64
	Bytes    int
	Duration sim.Time
	Payload  any

	src  *Radio
	live int
	// ends batches this frame's signalEnd events: receivers start hearing
	// it in non-decreasing time and Duration is per frame, so each start
	// appends its end in order.
	ends sim.Batch
}

// TxPowerW is every radio's transmit power in watts: the ns-2 default,
// which yields 250 m range under two-ray ground. The thresholds derive from
// it, so a caller wanting another range sets Config.RxRangeM instead.
const TxPowerW = 0.28183815

// Config sets the channel-wide radio parameters.
type Config struct {
	// RxRangeM is the intended decode range in meters; the receive
	// threshold is the model's power at this distance (Table I: 250 m).
	RxRangeM float64
	// CSRangeM is the carrier-sense range (ns-2 default 550 m).
	CSRangeM float64
	// CaptureRatio is the linear power ratio above which a stronger frame
	// survives a collision (ns-2 default 10 = 10 dB). Zero disables capture:
	// any overlap corrupts both frames.
	CaptureRatio float64
	// NoPropDelay disables speed-of-light propagation delay. No world sets
	// it; it stays a field because the mac package's backoff differential
	// varies it across the package boundary (every edge on one nanosecond).
	NoPropDelay bool
}

func (c *Config) normalize() {
	if c.RxRangeM == 0 {
		c.RxRangeM = 250
	}
	if c.CSRangeM == 0 {
		c.CSRangeM = 550
	}
}

// cullMargin slightly inflates grid query radii so floating-point noise in
// the exact power predicate can never disagree with the distance cull.
const cullMargin = 1.001

// Handler receives radio events. Implemented by the MAC.
type Handler interface {
	// RadioReceive delivers a successfully decoded frame.
	RadioReceive(f *Frame, rxPowerW float64)
	// RadioCarrier notifies carrier-sense transitions (busy=true when the
	// medium at this radio becomes non-idle, false when it clears).
	RadioCarrier(busy bool)
	// RadioTxDone notifies that this radio's own transmission ended.
	RadioTxDone(f *Frame)
	// RadioFrameDead notifies that this radio's frame f has been heard for
	// the last time: its transmission and every signal it started have
	// ended, so no receiver will decode its payload again. f is recycled
	// when the call returns.
	RadioFrameDead(f *Frame)
}

// Channel is the shared broadcast medium connecting all radios.
type Channel struct {
	kernel      *sim.Kernel
	prop        Propagation
	powerAt     func(d float64) float64 // prop's DistancePower at TxPowerW; nil if it has none
	cfg         Config
	rxThreshW   float64
	csThreshW   float64
	radios      []*Radio
	grid        *spatial.Grid           // nil on the brute-force path (model not DistanceMonotone)
	csCullM     float64                 // grid query radius covering the CS threshold
	nearBuf     []int32                 // Transmit-only grid-query scratch (never re-entered)
	sigFree     []*signal               // recycled per-receiver signal records
	frameFree   []*Frame                // recycled frames (see Frame)
	impairs     map[[2]int32]impairment // per-pair fault-injected link impairments; nil when none ever set
	impairRnd   *rand.Rand              // loss-draw stream; required before any lossy impairment
	nextFrameID uint64
	transmitted uint64
	hearings    uint64
	delivered   uint64
	collided    uint64
}

// Work counts what the channel did, deterministically: frames transmitted,
// hearings (a frame's signal scheduled at a receiver above carrier sense),
// frames delivered to a receiver and receptions lost to collision.
type Work struct {
	Frames, Hearings, Delivered, Collided uint64
}

// Work reports the channel's work counts so far.
func (c *Channel) Work() Work {
	return Work{Frames: c.transmitted, Hearings: c.hearings, Delivered: c.delivered, Collided: c.collided}
}

// impairment is a fault-injected per-link degradation: gain multiplies the
// received power (from an attenuation in dB), loss is a per-reception
// erasure probability drawn at propagation time.
type impairment struct {
	gain float64
	loss float64
}

// impairKey normalizes an unordered radio-index pair.
func impairKey(a, b int) [2]int32 {
	if a > b {
		a, b = b, a
	}
	return [2]int32{int32(a), int32(b)}
}

// SetImpairRand installs the RNG stream that lossy impairments draw from.
// Draws are consumed at Transmit time in receiver-visit order (grid cell
// order, or attach order on the brute path), which is deterministic, so
// runs with the same impairment schedule replay bit-identically.
func (c *Channel) SetImpairRand(rnd *rand.Rand) { c.impairRnd = rnd }

// SetImpairment installs a loss/attenuation impairment on the unordered
// link (a, b). Attenuation applies before the carrier-sense threshold test,
// so it only ever shrinks the reachable set and grid culling stays
// conservative; loss erases receptions after the threshold. Installing a
// lossy impairment without a prior SetImpairRand is a wiring bug and
// panics.
func (c *Channel) SetImpairment(a, b int, loss, attenDB float64) {
	if loss > 0 && c.impairRnd == nil {
		panic("phy: lossy impairment without SetImpairRand")
	}
	if c.impairs == nil {
		c.impairs = make(map[[2]int32]impairment)
	}
	c.impairs[impairKey(a, b)] = impairment{
		gain: math.Pow(10, -attenDB/10),
		loss: loss,
	}
}

// ClearImpairment removes the impairment on the unordered link (a, b), if
// any.
func (c *Channel) ClearImpairment(a, b int) {
	delete(c.impairs, impairKey(a, b))
}

// NewChannel builds a channel over the given propagation model.
//
// Provided the model guarantees power monotone in distance (see
// DistanceMonotone), the channel indexes radio positions in a uniform grid
// with cell size equal to the carrier-sense range, so each Transmit visits
// only the 3×3 cell neighborhood of the sender instead of every radio in
// the world. Any other model — randomized shadowing, say, where a
// distance cull could skip a radio the model would reach — gets the
// brute-force path that visits every attached radio. The choice is made
// from the model alone, never from a Config switch: the brute path is also
// the reference the grid is held to (TestChannelGridMatchesBruteForce), and
// tests reach it the same way, by wrapping a model in a type that does not
// implement DistanceMonotone.
func NewChannel(k *sim.Kernel, prop Propagation, cfg Config) *Channel {
	cfg.normalize()
	c := &Channel{
		kernel: k,
		prop:   prop,
		cfg:    cfg,
	}
	if dp, ok := prop.(DistancePower); ok {
		c.powerAt = dp.AtDistance(TxPowerW)
	}
	c.rxThreshW = PowerAtRange(prop, TxPowerW, cfg.RxRangeM)
	c.csThreshW = PowerAtRange(prop, TxPowerW, cfg.CSRangeM)
	if propIsDistanceMonotone(prop) {
		c.grid = spatial.NewGrid(cfg.CSRangeM)
		c.csCullM = cfg.CSRangeM * cullMargin
	}
	return c
}

// Attach registers a new radio at the given position; move it afterwards
// with Radio.SetPosition. The handler must be set via Radio.SetHandler
// before first use.
func (c *Channel) Attach(pos geometry.Vec2) *Radio {
	r := &Radio{
		channel:  c,
		position: pos,
		index:    len(c.radios),
	}
	c.radios = append(c.radios, r)
	if c.grid != nil {
		c.grid.Insert(r.index, pos)
	}
	return r
}

// Transmit broadcasts a frame from radio r. Duration must cover the whole
// frame (preamble + payload at the PHY bitrate); the MAC computes it.
// Transmitting while already transmitting is a MAC bug and panics.
func (c *Channel) Transmit(r *Radio, payload any, bytes int, duration sim.Time) {
	if r.transmitting {
		panic("phy: radio already transmitting")
	}
	if r.detached {
		panic(fmt.Sprintf("phy: t=%v: detached %v transmitting", c.kernel.Now(), r))
	}
	c.nextFrameID++
	c.transmitted++
	f := c.newFrame(Frame{ID: c.nextFrameID, Bytes: bytes, Duration: duration, Payload: payload, src: r, live: 1})
	r.transmitting = true
	r.busy = true
	src := r.position
	// A transmitting radio cannot decode concurrent arrivals.
	for _, sig := range r.active {
		sig.corrupted = true
	}
	// One queue entry for the whole fan-out: each receiver's signalStart is
	// a batch member, drawing its sequence number where its event would.
	starts := c.kernel.NewBatch(signalStartFn)
	if c.grid != nil {
		// Detached radios are absent from the grid, so the cull skips them.
		c.nearBuf = c.grid.Near(c.nearBuf[:0], src, c.csCullM)
		for _, idx := range c.nearBuf {
			rx := c.radios[idx]
			if rx != r {
				c.propagate(starts, r, rx, f)
			}
		}
	} else {
		for _, rx := range c.radios {
			if rx != r && !rx.detached {
				c.propagate(starts, r, rx, f)
			}
		}
	}
	starts.Commit()
	r.txFrame = f
	c.kernel.AfterArg(duration, txDoneFn, r)
}

// propagate adds the arrival of frame f at rx to the frame's batch of
// signal starts if the received power clears the carrier-sense threshold.
func (c *Channel) propagate(starts sim.Batch, tx, rx *Radio, f *Frame) {
	src := tx.position
	rxPos := rx.position
	meters := src.Dist(rxPos)
	var power float64
	if c.powerAt != nil {
		power = c.powerAt(meters)
	} else {
		power = c.prop.RxPower(TxPowerW, src, rxPos)
	}
	var loss float64
	if len(c.impairs) > 0 {
		if imp, ok := c.impairs[impairKey(tx.index, rx.index)]; ok {
			// Attenuation before the threshold test: the impairment only
			// ever reduces power, so the grid cull (a superset of the
			// unimpaired reachable set) remains conservative.
			power *= imp.gain
			loss = imp.loss
		}
	}
	if power < c.csThreshW {
		return
	}
	if loss > 0 && c.impairRnd.Float64() < loss {
		// Erasure model: the reception vanishes entirely rather than
		// arriving corrupted, so it contributes no interference.
		return
	}
	c.hearings++
	sig := c.newSignal()
	sig.radio = rx
	sig.frame = f
	sig.power = power
	f.live++
	delay := sim.Time(0)
	if !c.cfg.NoPropDelay {
		delay = sim.Time(meters / lightSpeed * float64(sim.Second))
	}
	starts.Add(c.kernel.Now()+delay, sig)
}

// newSignal takes a signal record from the pool. Records return to the pool
// in signalEnd, after the last reference (the radio's active list) is gone.
func (c *Channel) newSignal() *signal {
	if n := len(c.sigFree); n > 0 {
		sig := c.sigFree[n-1]
		c.sigFree[n-1] = nil
		c.sigFree = c.sigFree[:n-1]
		return sig
	}
	return &signal{}
}

func (c *Channel) releaseSignal(sig *signal) {
	*sig = signal{}
	c.sigFree = append(c.sigFree, sig)
}

// newFrame returns a frame record from the pool holding v.
func (c *Channel) newFrame(v Frame) *Frame {
	var f *Frame
	if n := len(c.frameFree); n > 0 {
		f = c.frameFree[n-1]
		c.frameFree[n-1] = nil
		c.frameFree = c.frameFree[:n-1]
	} else {
		f = new(Frame)
	}
	*f = v
	return f
}

// heard ends one hearing of f. The last one tells the sender and recycles
// the record: nothing can reach f any more — its end batch has fired, its
// signals are back in sigFree, and the sender's txFrame is cleared.
func (c *Channel) heard(f *Frame) {
	f.live--
	if f.live > 0 {
		return
	}
	if h := f.src.handler; h != nil {
		h.RadioFrameDead(f)
	}
	*f = Frame{}
	c.frameFree = append(c.frameFree, f)
}

// Package-level event callbacks: scheduling these by value reuses pooled
// kernel storage instead of allocating a closure per signal edge.
var (
	signalStartFn = func(a any) { s := a.(*signal); s.radio.signalStart(s) }
	signalEndFn   = func(a any) { s := a.(*signal); s.radio.signalEnd(s) }
	txDoneFn      = func(a any) {
		r := a.(*Radio)
		f := r.txFrame
		r.txFrame = nil
		r.transmitting = false
		r.busy = len(r.active) > 0
		if r.handler != nil {
			r.handler.RadioTxDone(f)
		}
		r.channel.heard(f)
	}
)

// Radio is one station's attachment to the channel.
type Radio struct {
	channel      *Channel
	position     geometry.Vec2
	handler      Handler
	index        int
	transmitting bool
	busy         bool // carrier state, maintained at every tx/signal edge
	detached     bool
	txFrame      *Frame
	active       []*signal
	decoding     *signal
}

type signal struct {
	radio     *Radio
	frame     *Frame
	power     float64
	pos       int // index in radio.active while listed; enables O(1) removal
	corrupted bool
}

// SetHandler installs the MAC-layer event sink.
func (r *Radio) SetHandler(h Handler) { r.handler = h }

// Transmitting reports whether the radio is currently sending.
func (r *Radio) Transmitting() bool { return r.transmitting }

// CarrierBusy reports whether the medium is sensed busy at this radio
// (own transmission or any in-flight signal above the CS threshold). The
// flag is maintained incrementally at every transmit and signal edge, so
// the DCF's carrier check (at a DIFS or backoff expiry, and whenever it
// looks for a reason to resume) is a single field load.
func (r *Radio) CarrierBusy() bool { return r.busy }

// SetPosition moves the radio, updating the channel's spatial index
// incrementally (a move within the same grid cell is a field store). A
// detached radio still tracks its position — mobility continues while a
// node is down — but stays out of the index until Reattach.
func (r *Radio) SetPosition(p geometry.Vec2) {
	r.position = p
	if r.detached {
		return
	}
	if g := r.channel.grid; g != nil {
		g.Move(r.index, p)
	}
}

// Detach takes the radio off the air: it leaves the spatial index, new
// transmissions panic, and in-flight arrivals are discarded on start.
// Signals already being decoded run to completion — their end events are
// scheduled — but the (down) MAC ignores the callbacks. Detaching twice is
// a lifecycle bug and panics.
func (r *Radio) Detach() {
	if r.detached {
		panic(fmt.Sprintf("phy: t=%v: %v already detached", r.channel.kernel.Now(), r))
	}
	r.detached = true
	if g := r.channel.grid; g != nil {
		g.Remove(r.index)
	}
}

// Reattach puts the radio back on the air at its current position.
// Reattaching an attached radio is a lifecycle bug and panics.
func (r *Radio) Reattach() {
	if !r.detached {
		panic(fmt.Sprintf("phy: t=%v: %v not detached", r.channel.kernel.Now(), r))
	}
	r.detached = false
	if g := r.channel.grid; g != nil {
		g.Insert(r.index, r.position)
	}
}

// Transmit broadcasts a frame from this radio; see Channel.Transmit.
func (r *Radio) Transmit(payload any, bytes int, duration sim.Time) {
	r.channel.Transmit(r, payload, bytes, duration)
}

func (r *Radio) signalStart(sig *signal) {
	if r.detached {
		// The radio went down while this signal was in flight; a powered-off
		// receiver hears nothing. No end event has been scheduled yet, so
		// the record can return to the pool immediately.
		f := sig.frame
		r.channel.releaseSignal(sig)
		r.channel.heard(f)
		return
	}
	wasBusy := r.busy
	sig.pos = len(r.active)
	r.active = append(r.active, sig)
	r.busy = true

	switch {
	case r.transmitting:
		// Half-duplex: arrivals during our own transmission are lost.
		sig.corrupted = true
	case sig.power < r.channel.rxThreshW:
		// Sensed but not decodable; pure interference. It can still corrupt
		// an ongoing weaker reception below.
		sig.corrupted = true
		if r.decoding != nil && !capturedOver(r.channel.cfg.CaptureRatio, r.decoding.power, sig.power) {
			r.decoding.corrupted = true
		}
	case r.decoding == nil:
		// Check interference from already-active signals.
		strongest := 0.0
		for _, other := range r.active {
			if other != sig && other.power > strongest {
				strongest = other.power
			}
		}
		sig.corrupted = strongest > 0 && !capturedOver(r.channel.cfg.CaptureRatio, sig.power, strongest)
		r.decoding = sig
	default:
		cur := r.decoding
		switch {
		case capturedOver(r.channel.cfg.CaptureRatio, sig.power, cur.power):
			// The newcomer captures the receiver.
			cur.corrupted = true
			sig.corrupted = false
			r.decoding = sig
		case capturedOver(r.channel.cfg.CaptureRatio, cur.power, sig.power):
			// Ongoing reception survives; newcomer is lost.
			sig.corrupted = true
		default:
			// Comparable powers: both are lost.
			cur.corrupted = true
			sig.corrupted = true
		}
	}

	if !wasBusy && r.handler != nil {
		r.handler.RadioCarrier(true)
	}
	k, f := r.channel.kernel, sig.frame
	if end := k.Now() + f.Duration; !f.ends.Append(end, sig) {
		// First start of the frame (or its earlier ends have all fired).
		f.ends = k.NewBatch(signalEndFn)
		f.ends.Add(end, sig)
		f.ends.Commit()
	}
}

// capturedOver reports whether a signal with power p survives interference
// of power q under the channel's capture ratio.
func capturedOver(ratio, p, q float64) bool {
	if ratio <= 0 {
		return false
	}
	return p >= ratio*q
}

func (r *Radio) signalEnd(sig *signal) {
	f := sig.frame
	// Swap-remove: the active list is order-free (its only full traversals
	// are the strongest-interferer max in signalStart and the corrupt-all
	// loop in Transmit), so a signal edge costs O(1) regardless of how many
	// signals overlap.
	last := len(r.active) - 1
	if moved := r.active[last]; moved != sig {
		r.active[sig.pos] = moved
		moved.pos = sig.pos
	}
	r.active[last] = nil
	r.active = r.active[:last]
	if r.decoding == sig {
		r.decoding = nil
		if !sig.corrupted && !r.transmitting {
			r.channel.delivered++
			if r.handler != nil {
				r.handler.RadioReceive(f, sig.power)
			}
		} else if sig.corrupted {
			r.channel.collided++
		}
	}
	r.channel.releaseSignal(sig)
	// Recompute after the receive callback: a handler that synchronously
	// transmitted has already re-set busy, and the clear edge must not fire.
	r.busy = r.transmitting || len(r.active) > 0
	if !r.busy && r.handler != nil {
		r.handler.RadioCarrier(false)
	}
	r.channel.heard(f)
}

// String identifies the radio for diagnostics.
func (r *Radio) String() string { return fmt.Sprintf("radio#%d", r.index) }
