// Package mac implements the IEEE 802.11 Distributed Coordination Function
// used by the paper's evaluation (Table I: "IEEE802.11 DCF", 2 Mbps, no
// RTS/CTS): CSMA/CA with DIFS deference and binary-exponential slotted
// backoff, unicast acknowledgements with retry limits, broadcast frames,
// virtual carrier sense (NAV) and a drop-tail interface queue.
//
// A backoff is one pausable timer, as in ns-2's Mac802_11: armed once for
// the whole countdown, and a busy edge converts the elapsed time back into
// the slots still owed (see freeze). The per-slot countdown it replaced
// lives in backoff_test.go as the reference the tests compare against.
//
// Timing, sizes and limits are the ns-2 802.11 (DSSS) defaults of
// Mac802_11 / ns-default.tcl, as named constants, so the CPS substrate
// matches what the paper ran on.
package mac

import (
	"fmt"
	"math/rand"

	"cavenet/internal/phy"
	"cavenet/internal/sim"
)

// Address identifies a station. CAVENET uses the node ID directly.
type Address int

// Broadcast is the all-stations address.
const Broadcast Address = -1

// DSSS timing and frame sizes (ns-2 Mac802_11 defaults).
const (
	slotTime     = 20 * sim.Microsecond
	sifsTime     = 10 * sim.Microsecond
	difsTime     = sifsTime + 2*slotTime
	preambleTime = 192 * sim.Microsecond // PLCP preamble + header
	// basicRateBPS is the control-frame (ACK, RTS, CTS) rate. Every
	// expression it enters keeps a run-time operand: an all-constant one
	// would be folded exactly at compile time and could round differently.
	basicRateBPS float64 = 1e6
	headerBytes          = 28 // MAC data header + FCS
	ackBytes             = 14
	rtsBytes             = 20
	ctsBytes             = 14
)

// Contention and queueing (ns-2 defaults: CWMin/CWMax, ShortRetryLimit,
// LongRetryLimit, the 50-packet drop-tail ifq).
const (
	cwMin           = 31
	cwMax           = 1023
	shortRetryLimit = 7 // unprotected frames
	longRetryLimit  = 4 // RTS-protected frames
	queueCap        = 50
)

// Config holds the DCF parameters a world sets.
type Config struct {
	DataRateBPS float64 // default 2 Mb/s (Table I)
	// RTSThreshold enables the RTS/CTS exchange for unicast payloads of at
	// least this many bytes. Zero (the default) disables RTS/CTS entirely,
	// matching Table I of the paper ("RTS/CTS: None"); the ablation bench
	// turns it on to measure the hidden-terminal trade-off.
	RTSThreshold int
}

func (c *Config) normalize() {
	if c.DataRateBPS == 0 {
		c.DataRateBPS = 2e6
	}
}

// Upper is the network-layer interface the MAC delivers to.
//
// Every payload Send accepts comes back up exactly once, and after that the
// MAC never reads it again. A payload Send refuses comes back at once
// (MACQueueDrop, or MACDownDrop on a down interface). One it accepts comes
// back when its job has ended — ACK or a broadcast's tx-done (MACSendDone),
// retry exhaustion (MACSendFailed) or a Down flush (MACDownDrop) — and no
// data frame of the station is still on the air: receivers decode a frame
// at their own signal end, up to a propagation delay after the sender's
// tx-done, and the payload they decode is the sender's. A job that ends
// while one is on the air hands its payload back when that frame dies
// (phy.Handler.RadioFrameDead).
type Upper interface {
	// MACReceive delivers a decoded data frame's payload. from is the
	// transmitting station. The payload is the sender's, shared with every
	// other receiver: it is valid for the call, and what outlives the call
	// must be copied.
	MACReceive(payload any, from Address)
	// MACSendFailed reports that a unicast to 'to' exhausted its retries —
	// the data-link feedback AODV and DYMO use for link monitoring.
	MACSendFailed(to Address, payload any)
	// MACSendDone reports a job that ended in success: a unicast whose ACK
	// arrived, or a broadcast that finished airing. No station will decode
	// the payload again, so this is where the network layer's packet pool
	// reclaims it. (An ACK always finds the data frame dead: receivers
	// decode at the end of the data airtime, a SIFS plus an ACK airtime
	// before the sender hears the ACK. A broadcast's report waits for its
	// farthest receiver.)
	MACSendDone(to Address, payload any)
	// MACQueueDrop reports a drop-tail interface-queue drop, so a queued
	// packet cannot vanish from the network layer's ledger without a drop
	// event — the hole the packet-conservation invariant harness exists to
	// catch.
	MACQueueDrop(to Address, payload any)
	// MACDownDrop reports each frame Down flushes — the in-flight job and
	// the whole backlog — and each frame sent to a down interface, so fault
	// injection terminates every packet with an explicit drop. The backlog
	// comes back at Down; an in-flight job whose frame is still on the air
	// (a crash mid-transmission) comes back when that frame dies.
	MACDownDrop(to Address, payload any)
}

// Kind distinguishes MAC frame types.
type Kind int

// Frame kinds.
const (
	KindData Kind = iota + 1
	KindAck
	KindRTS
	KindCTS
)

// Frame is the MAC PDU carried inside a phy.Frame payload. Frames are
// pooled per station: one goes back to its sender's pool when its PHY frame
// dies, so a handler must not retain a *Frame past its callback.
type Frame struct {
	Kind    Kind
	From    Address
	To      Address
	Seq     uint16
	Retry   bool
	NAV     sim.Time // medium reservation beyond this frame (covers the ACK)
	Payload any
}

// Stats counts MAC-level events for the metrics module.
type Stats struct {
	DataTx      uint64 // data frame transmissions, including retries
	DataRx      uint64 // data frames accepted for this station
	AckTx       uint64
	AckRx       uint64
	RTSTx       uint64
	CTSTx       uint64
	Retries     uint64
	Failures    uint64 // unicasts dropped after retry exhaustion
	QueueDrops  uint64 // drop-tail interface-queue drops
	DownDrops   uint64 // frames flushed because the interface went down
	Duplicates  uint64 // retransmitted frames filtered by dedup
	BytesTx     uint64 // on-air data bytes including MAC header
	NAVSettings uint64
}

type txJob struct {
	to      Address
	payload any
	bytes   int // network-layer bytes
}

// ending is a job that ended while a data frame of the station was on the
// air: its payload goes back up through report, one of Upper's methods,
// when the last such frame dies.
type ending struct {
	report func(Upper, Address, any)
	job    txJob
}

// countdown is the backoff timer: a *sim.Timer. It is an interface so that
// backoff_test.go can substitute the per-slot reference countdown.
type countdown interface {
	Reset(d sim.Time)
	Stop() bool
	Active() bool
	Deadline() sim.Time
}

// DCF is one station's MAC instance.
type DCF struct {
	cfg    Config
	kernel *sim.Kernel
	radio  *phy.Radio
	rnd    *rand.Rand
	addr   Address
	upper  Upper
	// cwMin is the contention window every MSDU starts from; only
	// TestBackoffEventsIndependentOfCW sets it to anything but cwMin.
	cwMin int

	// queue[qhead:] is the backlog: popping advances qhead and zeroes the
	// slot, so the array is reused from its base instead of losing a slot
	// of capacity per MSDU.
	queue   []txJob
	qhead   int
	job     txJob  // storage for the in-flight MSDU
	current *txJob // &job while an MSDU is in service, else nil
	retries int
	cw      int
	backoff int

	difsTimer *sim.Timer
	slotTimer countdown
	ackTimer  *sim.Timer
	ctsTimer  *sim.Timer
	navTimer  *sim.Timer

	navUntil    sim.Time
	down        bool
	awaitingAck bool
	awaitingCTS bool
	ackSeq      uint16
	ackFrom     Address
	seq         uint16
	// sifsResp is the response due one SIFS after the reception that queued
	// it: an ACK or CTS to send as is, or dataAfterCTS.
	sifsResp *Frame
	// Receive dedup state: the last sequence number taken from each sender
	// of unicast data, in first-heard order. A station hears few senders
	// (at most 23 on every counted run), so a linear scan finds one, and
	// the state is sized by the senders heard, not by their addresses.
	dedup []lastHeard

	// airing counts the station's data frames on the air (transmitted, not
	// yet dead); ended holds the jobs that ended meanwhile, in order (see
	// handBack). free is the pool every frame of the station comes from.
	airing int
	ended  []ending
	free   []*Frame

	stats Stats
}

// New creates a DCF station bound to a radio. The radio's handler is set to
// the new MAC.
func New(k *sim.Kernel, radio *phy.Radio, addr Address, cfg Config, rnd *rand.Rand, upper Upper) *DCF {
	cfg.normalize()
	d := &DCF{
		cfg:    cfg,
		kernel: k,
		radio:  radio,
		rnd:    rnd,
		addr:   addr,
		upper:  upper,
		cwMin:  cwMin,
		cw:     cwMin,
	}
	d.difsTimer = sim.NewTimer(k, d.onDIFS)
	d.slotTimer = sim.NewTimer(k, d.onSlot)
	d.ackTimer = sim.NewTimer(k, d.onAckTimeout)
	d.ctsTimer = sim.NewTimer(k, d.onCTSTimeout)
	d.navTimer = sim.NewTimer(k, d.resume)
	radio.SetHandler(d)
	return d
}

// Addr reports the station address.
func (d *DCF) Addr() Address { return d.addr }

// Stats returns a copy of the MAC counters.
func (d *DCF) Stats() Stats { return d.stats }

// EachQueued visits the payload of every frame in the station's custody:
// the in-flight job first, then the backlog in queue order, then the ended
// jobs still waiting for a frame on the air to die. The invariant harness
// uses it to prove that every unterminated data packet is still physically
// held somewhere.
func (d *DCF) EachQueued(f func(payload any)) {
	if d.current != nil {
		f(d.current.payload)
	}
	for i := d.qhead; i < len(d.queue); i++ {
		f(d.queue[i].payload)
	}
	for _, e := range d.ended {
		f(e.job.payload)
	}
}

// dataDuration is the on-air time of a data frame with the given
// network-layer payload size.
func (d *DCF) dataDuration(bytes int) sim.Time {
	bits := float64((bytes + headerBytes) * 8)
	return preambleTime + sim.Time(bits/d.cfg.DataRateBPS*float64(sim.Second))
}

func ackDuration() sim.Time { return controlDuration(ackBytes) }

// controlDuration is the on-air time of a control frame. bytes is a
// parameter, not a constant, on purpose: see basicRateBPS.
func controlDuration(bytes int) sim.Time {
	bits := float64(bytes * 8)
	return preambleTime + sim.Time(bits/basicRateBPS*float64(sim.Second))
}

// useRTS reports whether the current job warrants an RTS/CTS exchange.
func (d *DCF) useRTS(job *txJob) bool {
	return job.to != Broadcast && d.cfg.RTSThreshold > 0 && job.bytes >= d.cfg.RTSThreshold
}

// retryLimit selects the short or long retry counter per 802.11 rules.
func (d *DCF) retryLimit(job *txJob) int {
	if d.useRTS(job) {
		return longRetryLimit
	}
	return shortRetryLimit
}

// Down takes the interface out of service: every timer stops, contention
// state resets, and the station's entire custody — the in-flight job and
// the backlog — is flushed through Upper.MACDownDrop so each packet
// terminates with an accountable drop. The radio itself is detached
// separately by the node lifecycle; an own transmission already on the air
// completes at the PHY but the down MAC ignores its completion. Calling
// Down on a down interface is a no-op.
func (d *DCF) Down() {
	if d.down {
		return
	}
	d.down = true
	d.difsTimer.Stop()
	d.slotTimer.Stop()
	d.ackTimer.Stop()
	d.ctsTimer.Stop()
	d.navTimer.Stop()
	d.awaitingAck = false
	d.awaitingCTS = false
	d.navUntil = 0
	if d.current != nil {
		job := d.dropCurrent()
		// Retire the flushed MSDU's sequence number: the receiver may have
		// cached it in its dedup filter, and a post-recovery frame reusing
		// it would be ACKed yet silently discarded as a retransmission.
		d.seq++
		d.stats.DownDrops++
		d.handBack(Upper.MACDownDrop, job)
	}
	for i := d.qhead; i < len(d.queue); i++ {
		job := d.queue[i]
		d.queue[i] = txJob{}
		d.stats.DownDrops++
		d.upper.MACDownDrop(job.to, job.payload)
	}
	d.queue, d.qhead = d.queue[:0], 0
	d.cw = d.cwMin
	d.backoff = 0
}

// Up returns a down interface to service with a clean slate (empty queue,
// CWMin). Calling Up on a live interface is a no-op.
func (d *DCF) Up() { d.down = false }

// Send queues a frame for transmission. to may be Broadcast. bytes is the
// network-layer packet size used for air-time computation.
func (d *DCF) Send(to Address, payload any, bytes int) {
	if d.down {
		// A down interface accepts nothing; flush straight back up so the
		// packet still terminates accountably.
		d.stats.DownDrops++
		d.upper.MACDownDrop(to, payload)
		return
	}
	if len(d.queue)-d.qhead >= queueCap {
		d.stats.QueueDrops++
		d.upper.MACQueueDrop(to, payload)
		return
	}
	if d.qhead > 0 && len(d.queue) == cap(d.queue) {
		// A backlog that never drains would otherwise grow the array by its
		// spent prefix forever: slide it back to the base before growing.
		n := copy(d.queue, d.queue[d.qhead:])
		clear(d.queue[n:])
		d.queue, d.qhead = d.queue[:n], 0
	}
	d.queue = append(d.queue, txJob{to: to, payload: payload, bytes: bytes})
	d.kick()
}

// kick starts service of the next queued frame when the MAC is idle.
func (d *DCF) kick() {
	if d.current != nil || d.qhead == len(d.queue) {
		return
	}
	d.job = d.queue[d.qhead]
	d.queue[d.qhead] = txJob{}
	d.qhead++
	if d.qhead == len(d.queue) {
		d.queue, d.qhead = d.queue[:0], 0
	}
	d.current = &d.job
	d.retries = 0
	d.cw = d.cwMin
	d.backoff = d.rnd.Intn(d.cw + 1)
	d.resume()
}

// mediumIdle reports whether both physical and virtual carrier sense are
// clear.
func (d *DCF) mediumIdle() bool {
	return !d.radio.CarrierBusy() && d.kernel.Now() >= d.navUntil
}

// resume makes contention progress whenever conditions may have changed.
func (d *DCF) resume() {
	if d.down {
		return
	}
	if d.current == nil || d.awaitingAck || d.awaitingCTS {
		return
	}
	if d.difsTimer.Active() || d.slotTimer.Active() {
		return
	}
	if !d.mediumIdle() {
		return // a carrier/NAV/txdone event will call resume again
	}
	d.difsTimer.Reset(difsTime)
}

func (d *DCF) onDIFS() {
	if !d.mediumIdle() {
		return
	}
	d.scheduleSlot()
}

// scheduleSlot starts (or, after a freeze and a fresh DIFS, resumes) the
// backoff countdown: one timer for all the slots still owed.
func (d *DCF) scheduleSlot() {
	if d.backoff <= 0 {
		d.transmitCurrent()
		return
	}
	d.slotTimer.Reset(sim.Time(d.backoff) * slotTime)
}

func (d *DCF) onSlot() {
	if !d.mediumIdle() {
		panic(fmt.Sprintf("mac: t=%v: station %d counted a busy slot: every busy edge freezes the countdown", d.kernel.Now(), d.addr))
	}
	d.backoff = 0
	d.scheduleSlot()
}

// freeze suspends contention at a busy edge. A running countdown keeps the
// slots it has not yet counted: every slot boundary up to and including
// this instant has passed, except that a still-pending expiry leaves one.
//
// That arithmetic reproduces the per-slot chain (backoff_test.go) exactly:
//
// (a) Only a PHY signalStart freezes a running countdown — observeNAV runs
// at a signalEnd, when the carrier edge of that signal has long frozen it,
// an own response goes out a SIFS after a reception, before any DIFS can
// elapse, and Down resets backoff. A signalStart draws its sequence number
// at the sender's transmit instant, at most CS-range/c ≈ 1.8 µs before it
// fires; the per-slot event of a boundary draws its own a whole slot
// earlier. On a shared nanosecond the slot event therefore fires first, and
// the boundary counts. (Precondition: propagation delay inside carrier-
// sense range < SlotTime, which is what an 802.11 slot is defined to cover.)
//
// (b) The expiry fires at the timestamp of the chain's last slot event and
// only draws its sequence number earlier, when the countdown is armed
// rather than one slot before. It can change places only with a foreign
// event on its own nanosecond that was scheduled inside (arm, expiry −
// slot]; TestBackoffMatchesPerSlot and FuzzBackoffDifferential watch that
// window.
func (d *DCF) freeze() {
	d.difsTimer.Stop()
	if d.slotTimer.Active() {
		left := d.slotTimer.Deadline() - d.kernel.Now()
		d.backoff = max(1, int((left+slotTime-1)/slotTime))
	}
	d.slotTimer.Stop()
}

func (d *DCF) transmitCurrent() {
	if d.radio.Transmitting() {
		// An ACK/CTS transmission is in flight; retry after it completes.
		return
	}
	job := d.current
	if d.useRTS(job) {
		d.sendRTS(job)
		return
	}
	d.sendDataFrame(job)
}

func (d *DCF) sendDataFrame(job *txJob) {
	frame := d.frame(Frame{
		Kind:    KindData,
		From:    d.addr,
		To:      job.to,
		Seq:     d.seq,
		Retry:   d.retries > 0,
		Payload: job.payload,
	})
	dur := d.dataDuration(job.bytes)
	if job.to != Broadcast {
		frame.NAV = sifsTime + ackDuration()
	}
	d.stats.DataTx++
	d.stats.BytesTx += uint64(job.bytes + headerBytes)
	d.airing++
	d.radio.Transmit(frame, job.bytes+headerBytes, dur)
	if job.to == Broadcast {
		// Completion handled in RadioTxDone.
		return
	}
	d.awaitingAck = true
	d.ackSeq = frame.Seq
	d.ackFrom = job.to
	// Timeout: frame airtime + SIFS + ACK airtime + slack for propagation
	// and slot alignment.
	d.ackTimer.Reset(dur + sifsTime + ackDuration() + 2*slotTime)
}

func (d *DCF) sendRTS(job *txJob) {
	rtsDur := controlDuration(rtsBytes)
	ctsDur := controlDuration(ctsBytes)
	// The RTS reserves the medium for the whole exchange that follows it:
	// SIFS + CTS + SIFS + DATA + SIFS + ACK.
	nav := 3*sifsTime + ctsDur + d.dataDuration(job.bytes) + ackDuration()
	rts := d.frame(Frame{Kind: KindRTS, From: d.addr, To: job.to, Seq: d.seq, NAV: nav})
	d.stats.RTSTx++
	d.radio.Transmit(rts, rtsBytes, rtsDur)
	d.awaitingCTS = true
	d.ctsTimer.Reset(rtsDur + sifsTime + ctsDur + 2*slotTime)
}

func (d *DCF) onCTSTimeout() {
	if !d.awaitingCTS {
		return
	}
	d.awaitingCTS = false
	d.retryCurrent()
}

func (d *DCF) onAckTimeout() {
	if !d.awaitingAck {
		return
	}
	d.awaitingAck = false
	d.retryCurrent()
}

// retryCurrent backs off and retransmits the current frame, or gives up
// after the applicable retry limit.
func (d *DCF) retryCurrent() {
	d.retries++
	d.stats.Retries++
	if d.retries > d.retryLimit(d.current) {
		d.stats.Failures++
		d.handBack(Upper.MACSendFailed, d.finishJob())
		return
	}
	if d.cw < cwMax {
		d.cw = min(d.cw*2+1, cwMax)
	}
	d.backoff = d.rnd.Intn(d.cw + 1)
	d.resume()
}

// dropCurrent takes the in-flight MSDU out of service and returns it.
func (d *DCF) dropCurrent() txJob {
	job := d.job
	d.job = txJob{}
	d.current = nil
	return job
}

// finishJob completes the current frame (success or final failure), moves
// on, and returns the finished job. The sequence number advances per
// transmitted MSDU.
func (d *DCF) finishJob() txJob {
	job := d.dropCurrent()
	d.seq++
	d.kick()
	return job
}

// handBack returns an ended job's payload to Upper through report: at once
// when no data frame of the station is on the air, else when the last one
// dies (RadioFrameDead), in the order the jobs ended.
func (d *DCF) handBack(report func(Upper, Address, any), job txJob) {
	if d.airing > 0 {
		d.ended = append(d.ended, ending{report, job})
		return
	}
	report(d.upper, job.to, job.payload)
}

// frame returns a frame from the station's pool holding v. It goes back in
// RadioFrameDead, or in sifsElapsed for a response that never airs.
func (d *DCF) frame(v Frame) *Frame {
	var f *Frame
	if n := len(d.free); n > 0 {
		f = d.free[n-1]
		d.free[n-1] = nil
		d.free = d.free[:n-1]
	} else {
		f = new(Frame)
	}
	*f = v
	return f
}

// recycle zeroes a frame, dropping its payload reference, and pools it.
func (d *DCF) recycle(f *Frame) {
	*f = Frame{}
	d.free = append(d.free, f)
}

// Radio handler implementation.

var _ phy.Handler = (*DCF)(nil)

// RadioCarrier implements phy.Handler.
func (d *DCF) RadioCarrier(busy bool) {
	if d.down {
		return
	}
	if busy {
		d.freeze()
		return
	}
	d.resume()
}

// RadioTxDone implements phy.Handler.
func (d *DCF) RadioTxDone(f *phy.Frame) {
	frame, ok := f.Payload.(*Frame)
	if !ok {
		panic(fmt.Sprintf("mac: foreign payload %T on own radio", f.Payload))
	}
	if d.down {
		// Our last transmission finished airing after the interface went
		// down; its job was already flushed.
		return
	}
	if frame.Kind == KindData && frame.To == Broadcast && d.current != nil {
		d.handBack(Upper.MACSendDone, d.finishJob())
		return
	}
	// Unicast data completion is decided by ACK/timeout; ACK tx needs no
	// follow-up. Either way the medium state changed for us.
	d.resume()
}

// RadioFrameDead implements phy.Handler: the last hearing of one of the
// station's frames has ended. The frame goes back to the pool; a data frame
// that was the last on the air releases the ended jobs' payloads.
func (d *DCF) RadioFrameDead(f *phy.Frame) {
	frame, ok := f.Payload.(*Frame)
	if !ok {
		panic(fmt.Sprintf("mac: foreign payload %T on own radio", f.Payload))
	}
	if frame.Kind == KindData {
		d.airing--
		if d.airing == 0 {
			// A report cannot put a frame on the air (Send only arms a
			// timer), so nothing joins ended while it drains.
			for i, e := range d.ended {
				d.ended[i] = ending{}
				e.report(d.upper, e.job.to, e.job.payload)
			}
			d.ended = d.ended[:0]
		}
	}
	d.recycle(frame)
}

// RadioReceive implements phy.Handler.
func (d *DCF) RadioReceive(f *phy.Frame, _ float64) {
	frame, ok := f.Payload.(*Frame)
	if !ok {
		panic(fmt.Sprintf("mac: foreign payload %T", f.Payload))
	}
	if d.down {
		// A reception that was mid-decode when the interface went down
		// completes at the PHY; a dead station hears nothing.
		return
	}
	switch frame.Kind {
	case KindAck:
		d.handleAck(frame)
	case KindData:
		d.handleData(frame)
	case KindRTS:
		d.handleRTS(frame)
	case KindCTS:
		d.handleCTS(frame)
	}
}

func (d *DCF) handleRTS(frame *Frame) {
	if frame.To != d.addr {
		d.observeNAV(frame)
		return
	}
	cts := d.frame(Frame{
		Kind: KindCTS,
		From: d.addr,
		To:   frame.From,
		Seq:  frame.Seq,
		NAV:  frame.NAV - sifsTime - controlDuration(ctsBytes),
	})
	d.respondAfterSIFS(cts)
}

func (d *DCF) handleCTS(frame *Frame) {
	if frame.To != d.addr {
		d.observeNAV(frame)
		return
	}
	if !d.awaitingCTS || frame.From != d.current.to {
		return
	}
	d.awaitingCTS = false
	d.ctsTimer.Stop()
	d.respondAfterSIFS(dataAfterCTS)
}

// observeNAV honors the medium reservation of an overheard frame.
func (d *DCF) observeNAV(frame *Frame) {
	if frame.NAV <= 0 {
		return
	}
	until := d.kernel.Now() + frame.NAV
	if until > d.navUntil {
		d.navUntil = until
		d.stats.NAVSettings++
		d.freeze()
		d.navTimer.ResetAt(until)
	}
}

func (d *DCF) handleAck(frame *Frame) {
	if frame.To != d.addr {
		return
	}
	d.stats.AckRx++
	if d.awaitingAck && frame.From == d.ackFrom && frame.Seq == d.ackSeq {
		d.awaitingAck = false
		d.ackTimer.Stop()
		d.handBack(Upper.MACSendDone, d.finishJob())
	}
}

func (d *DCF) handleData(frame *Frame) {
	switch frame.To {
	case d.addr:
		d.respondAfterSIFS(d.frame(Frame{Kind: KindAck, From: d.addr, To: frame.From, Seq: frame.Seq}))
		if d.duplicate(frame) {
			d.stats.Duplicates++
			return
		}
		d.stats.DataRx++
		d.upper.MACReceive(frame.Payload, frame.From)
	case Broadcast:
		d.stats.DataRx++
		d.upper.MACReceive(frame.Payload, frame.From)
	default:
		// Overheard frame: honor its NAV reservation.
		d.observeNAV(frame)
	}
}

// lastHeard is the sequence number of the last data frame taken from one
// sender.
type lastHeard struct {
	from Address
	seq  uint16
}

// duplicate reports whether frame is a retransmission of the last data
// frame taken from its sender; otherwise it records frame's sequence
// number as that sender's last.
func (d *DCF) duplicate(frame *Frame) bool {
	for i := range d.dedup {
		if h := &d.dedup[i]; h.from == frame.From {
			if h.seq == frame.Seq && frame.Retry {
				return true
			}
			h.seq = frame.Seq
			return false
		}
	}
	d.dedup = append(d.dedup, lastHeard{from: frame.From, seq: frame.Seq})
	return false
}

// dataAfterCTS stands in sifsResp for the station's own data frame, which
// is built when the SIFS elapses.
var dataAfterCTS = &Frame{Kind: KindData}

// respondAfterSIFS queues the station's answer to the frame it has just
// decoded, held on the DCF so that an ACK costs no closure.
// One slot suffices: a radio decodes one frame at a time, and a frame
// lasts at least a preamble, many SIFS.
func (d *DCF) respondAfterSIFS(resp *Frame) {
	if d.sifsResp != nil {
		panic(fmt.Sprintf("mac: t=%v: station %d queued two responses inside one SIFS", d.kernel.Now(), d.addr))
	}
	d.sifsResp = resp
	d.kernel.AfterArg(sifsTime, sifsElapsed, d)
}

func sifsElapsed(a any) {
	d := a.(*DCF)
	resp := d.sifsResp
	d.sifsResp = nil
	if d.down || d.radio.Transmitting() {
		// Down: the interface crashed during the SIFS; a detached radio
		// panics on Transmit. Transmitting should not happen (SIFS
		// preempts contention), but never double-transmit. Either way the
		// response never airs.
		if resp != dataAfterCTS {
			d.recycle(resp)
		}
		return
	}
	switch resp.Kind {
	case KindAck:
		d.stats.AckTx++
		d.radio.Transmit(resp, ackBytes, ackDuration())
	case KindCTS:
		d.stats.CTSTx++
		d.radio.Transmit(resp, ctsBytes, controlDuration(ctsBytes))
	default:
		if d.current != nil {
			d.sendDataFrame(d.current)
		}
	}
}
