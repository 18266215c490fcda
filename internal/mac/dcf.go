// Package mac implements the IEEE 802.11 Distributed Coordination Function
// used by the paper's evaluation (Table I: "IEEE802.11 DCF", 2 Mbps, no
// RTS/CTS): CSMA/CA with DIFS deference and binary-exponential slotted
// backoff, unicast acknowledgements with retry limits, broadcast frames,
// virtual carrier sense (NAV) and a drop-tail interface queue.
//
// A backoff is one pausable timer, as in ns-2's Mac802_11: armed once for
// the whole countdown, and a busy edge converts the elapsed time back into
// the slots still owed (see freeze). Config.SlotOracle keeps the per-slot
// countdown it replaced as the reference the tests compare against.
//
// Timing and size constants default to the ns-2 802.11 (DSSS) values so the
// CPS substrate matches what the paper ran on.
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

// Config holds DCF parameters. Zero fields take ns-2 DSSS defaults.
type Config struct {
	SlotTime     sim.Time // default 20 µs
	SIFS         sim.Time // default 10 µs
	DIFS         sim.Time // default SIFS + 2·slot = 50 µs
	Preamble     sim.Time // PLCP preamble+header, default 192 µs
	DataRateBPS  float64  // default 2 Mb/s (Table I)
	BasicRateBPS float64  // control-frame rate, default 1 Mb/s
	CWMin        int      // default 31
	CWMax        int      // default 1023
	RetryLimit   int      // default 7 (short retry limit; RTS/CTS is off)
	QueueCap     int      // interface queue capacity, default 50 (ns-2 ifq)
	HeaderBytes  int      // MAC data header+FCS, default 28
	AckBytes     int      // ACK frame size, default 14
	// RTSThreshold enables the RTS/CTS exchange for unicast payloads of at
	// least this many bytes. Zero (the default) disables RTS/CTS entirely,
	// matching Table I of the paper ("RTS/CTS: None"); the ablation bench
	// turns it on to measure the hidden-terminal trade-off.
	RTSThreshold int
	RTSBytes     int // RTS frame size, default 20
	CTSBytes     int // CTS frame size, default 14
	LongRetry    int // retry limit for RTS-protected frames, default 4
	// SlotOracle counts the backoff down with one timer event per idle slot
	// instead of one per backoff: the reference implementation, selected
	// only by tests. Results are bit-identical either way. It stays an
	// exported switch, unlike the references that live in _test.go files,
	// because clause (b) of the lemma at freeze is about which foreign
	// event shares the expiry's nanosecond — a property of a whole network
	// run, which only scenario.TestMACReferenceRunIdentity can compare.
	SlotOracle bool
}

func (c *Config) normalize() {
	if c.SlotTime == 0 {
		c.SlotTime = 20 * sim.Microsecond
	}
	if c.SIFS == 0 {
		c.SIFS = 10 * sim.Microsecond
	}
	if c.DIFS == 0 {
		c.DIFS = c.SIFS + 2*c.SlotTime
	}
	if c.Preamble == 0 {
		c.Preamble = 192 * sim.Microsecond
	}
	if c.DataRateBPS == 0 {
		c.DataRateBPS = 2e6
	}
	if c.BasicRateBPS == 0 {
		c.BasicRateBPS = 1e6
	}
	if c.CWMin == 0 {
		c.CWMin = 31
	}
	if c.CWMax == 0 {
		c.CWMax = 1023
	}
	if c.RetryLimit == 0 {
		c.RetryLimit = 7
	}
	if c.QueueCap == 0 {
		c.QueueCap = 50
	}
	if c.HeaderBytes == 0 {
		c.HeaderBytes = 28
	}
	if c.AckBytes == 0 {
		c.AckBytes = 14
	}
	if c.RTSBytes == 0 {
		c.RTSBytes = 20
	}
	if c.CTSBytes == 0 {
		c.CTSBytes = 14
	}
	if c.LongRetry == 0 {
		c.LongRetry = 4
	}
}

// Upper is the network-layer interface the MAC delivers to.
type Upper interface {
	// MACReceive delivers a decoded data frame's payload. from is the
	// transmitting station.
	MACReceive(payload any, from Address)
	// MACSendFailed reports that a unicast to 'to' exhausted its retries —
	// the data-link feedback AODV and DYMO use for link monitoring.
	MACSendFailed(to Address, payload any)
}

// QueueDropObserver is an optional Upper extension: when implemented, the
// MAC reports every drop-tail interface-queue drop instead of discarding
// the frame silently. Without it a queued packet can vanish from the
// network layer's ledger with no drop event — the accounting hole the
// packet-conservation invariant harness exists to catch.
type QueueDropObserver interface {
	MACQueueDrop(to Address, payload any)
}

// SendDoneObserver is an optional Upper extension: when implemented, the
// MAC reports every unicast frame whose ACK arrived. By that instant every
// station in range has already decoded the frame (receivers decode at the
// end of the data airtime, a SIFS plus an ACK airtime before the sender
// hears the ACK), so the notification is the earliest point at which the
// sender-side payload pointer is provably dead — the hook the network
// layer's packet pool uses to reclaim forwarded data packets. Broadcast
// completions are not reported: their receivers decode the shared payload
// at the same timestamp as the sender's tx-done.
type SendDoneObserver interface {
	MACSendDone(to Address, payload any)
}

// DownObserver is an optional Upper extension for fault injection: Down
// flushes the station's custody — the in-flight job and the whole backlog —
// through it, so the network layer can terminate each packet with an
// explicit drop instead of letting it vanish with the dead interface.
type DownObserver interface {
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

// Frame is the MAC PDU carried inside a phy.Frame payload.
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

// DCF is one station's MAC instance.
type DCF struct {
	cfg    Config
	kernel *sim.Kernel
	radio  *phy.Radio
	rnd    *rand.Rand
	addr   Address
	upper  Upper
	// sendDone caches the optional SendDoneObserver assertion so the ACK
	// hot path pays a nil check instead of a type assertion per frame.
	sendDone SendDoneObserver

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
	slotTimer *sim.Timer
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
	// Receive dedup state, dense-indexed by sender address (station
	// addresses are small and dense; data frames never come from
	// Broadcast). Replaces the two maps the seed used, which cost a map
	// lookup per received frame.
	lastSeq  []uint16
	haveLast []bool

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
		cw:     cfg.CWMin,
	}
	d.sendDone, _ = upper.(SendDoneObserver)
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

// QueueLen reports the current transmit backlog: queued frames plus the
// in-flight job still contending or awaiting its ACK/retries. Counting
// only the queue made the backlog read 0 while a frame was still retrying.
func (d *DCF) QueueLen() int {
	n := len(d.queue) - d.qhead
	if d.current != nil {
		n++
	}
	return n
}

// EachQueued visits the payload of every frame in the station's custody:
// the in-flight job first, then the backlog in queue order. The invariant
// harness uses it to prove that every unterminated data packet is still
// physically held somewhere.
func (d *DCF) EachQueued(f func(payload any)) {
	if d.current != nil {
		f(d.current.payload)
	}
	for i := d.qhead; i < len(d.queue); i++ {
		f(d.queue[i].payload)
	}
}

// Config reports the normalized configuration.
func (d *DCF) Config() Config { return d.cfg }

// dataDuration is the on-air time of a data frame with the given
// network-layer payload size.
func (d *DCF) dataDuration(bytes int) sim.Time {
	bits := float64((bytes + d.cfg.HeaderBytes) * 8)
	return d.cfg.Preamble + sim.Time(bits/d.cfg.DataRateBPS*float64(sim.Second))
}

func (d *DCF) ackDuration() sim.Time {
	return d.controlDuration(d.cfg.AckBytes)
}

func (d *DCF) controlDuration(bytes int) sim.Time {
	bits := float64(bytes * 8)
	return d.cfg.Preamble + sim.Time(bits/d.cfg.BasicRateBPS*float64(sim.Second))
}

// useRTS reports whether the current job warrants an RTS/CTS exchange.
func (d *DCF) useRTS(job *txJob) bool {
	return job.to != Broadcast && d.cfg.RTSThreshold > 0 && job.bytes >= d.cfg.RTSThreshold
}

// retryLimit selects the short or long retry counter per 802.11 rules.
func (d *DCF) retryLimit(job *txJob) int {
	if d.useRTS(job) {
		return d.cfg.LongRetry
	}
	return d.cfg.RetryLimit
}

// IsDown reports whether the interface is administratively down.
func (d *DCF) IsDown() bool { return d.down }

// Down takes the interface out of service: every timer stops, contention
// state resets, and the station's entire custody — the in-flight job and
// the backlog — is flushed through the DownObserver (when the upper layer
// implements it) so each packet terminates with an accountable drop. The
// radio itself is detached separately by the node lifecycle; an own
// transmission already on the air completes at the PHY but the down MAC
// ignores its completion. Calling Down on a down interface is a no-op.
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
	obs, _ := d.upper.(DownObserver)
	if d.current != nil {
		job := d.dropCurrent()
		// Retire the flushed MSDU's sequence number: the receiver may have
		// cached it in its dedup filter, and a post-recovery frame reusing
		// it would be ACKed yet silently discarded as a retransmission.
		d.seq++
		d.stats.DownDrops++
		if obs != nil {
			obs.MACDownDrop(job.to, job.payload)
		}
	}
	for i := d.qhead; i < len(d.queue); i++ {
		job := d.queue[i]
		d.queue[i] = txJob{}
		d.stats.DownDrops++
		if obs != nil {
			obs.MACDownDrop(job.to, job.payload)
		}
	}
	d.queue, d.qhead = d.queue[:0], 0
	d.cw = d.cfg.CWMin
	d.backoff = 0
}

// Up returns a down interface to service with a clean slate (empty queue,
// CWMin). Calling Up on a live interface is a no-op.
func (d *DCF) Up() { d.down = false }

// Send queues a frame for transmission. to may be Broadcast. bytes is the
// network-layer packet size used for air-time computation.
func (d *DCF) Send(to Address, payload any, bytes int) {
	if d.down {
		// A down interface accepts nothing; flush straight through the
		// observer so the packet still terminates accountably.
		d.stats.DownDrops++
		if o, ok := d.upper.(DownObserver); ok {
			o.MACDownDrop(to, payload)
		}
		return
	}
	if len(d.queue)-d.qhead >= d.cfg.QueueCap {
		d.stats.QueueDrops++
		if o, ok := d.upper.(QueueDropObserver); ok {
			o.MACQueueDrop(to, payload)
		}
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
	d.cw = d.cfg.CWMin
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
	d.difsTimer.Reset(d.cfg.DIFS)
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
	slots := d.backoff
	if d.cfg.SlotOracle {
		slots = 1
	}
	d.slotTimer.Reset(sim.Time(slots) * d.cfg.SlotTime)
}

func (d *DCF) onSlot() {
	if !d.mediumIdle() {
		panic(fmt.Sprintf("mac: t=%v: station %d counted a busy slot: every busy edge freezes the countdown", d.kernel.Now(), d.addr))
	}
	if d.cfg.SlotOracle {
		d.backoff--
	} else {
		d.backoff = 0
	}
	d.scheduleSlot()
}

// freeze suspends contention at a busy edge. A running countdown keeps the
// slots it has not yet counted: every slot boundary up to and including
// this instant has passed, except that a still-pending expiry leaves one.
//
// That arithmetic reproduces the per-slot chain (Config.SlotOracle) exactly:
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
// slot]; the differential tests and the run-identity gate watch that window.
func (d *DCF) freeze() {
	d.difsTimer.Stop()
	if d.slotTimer.Active() && !d.cfg.SlotOracle {
		left := d.slotTimer.Deadline() - d.kernel.Now()
		d.backoff = max(1, int((left+d.cfg.SlotTime-1)/d.cfg.SlotTime))
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
	frame := &Frame{
		Kind:    KindData,
		From:    d.addr,
		To:      job.to,
		Seq:     d.seq,
		Retry:   d.retries > 0,
		Payload: job.payload,
	}
	dur := d.dataDuration(job.bytes)
	if job.to != Broadcast {
		frame.NAV = d.cfg.SIFS + d.ackDuration()
	}
	d.stats.DataTx++
	d.stats.BytesTx += uint64(job.bytes + d.cfg.HeaderBytes)
	d.radio.Transmit(frame, job.bytes+d.cfg.HeaderBytes, dur)
	if job.to == Broadcast {
		// Completion handled in RadioTxDone.
		return
	}
	d.awaitingAck = true
	d.ackSeq = frame.Seq
	d.ackFrom = job.to
	// Timeout: frame airtime + SIFS + ACK airtime + slack for propagation
	// and slot alignment.
	d.ackTimer.Reset(dur + d.cfg.SIFS + d.ackDuration() + 2*d.cfg.SlotTime)
}

func (d *DCF) sendRTS(job *txJob) {
	rtsDur := d.controlDuration(d.cfg.RTSBytes)
	ctsDur := d.controlDuration(d.cfg.CTSBytes)
	// The RTS reserves the medium for the whole exchange that follows it:
	// SIFS + CTS + SIFS + DATA + SIFS + ACK.
	nav := 3*d.cfg.SIFS + ctsDur + d.dataDuration(job.bytes) + d.ackDuration()
	rts := &Frame{Kind: KindRTS, From: d.addr, To: job.to, Seq: d.seq, NAV: nav}
	d.stats.RTSTx++
	d.radio.Transmit(rts, d.cfg.RTSBytes, rtsDur)
	d.awaitingCTS = true
	d.ctsTimer.Reset(rtsDur + d.cfg.SIFS + ctsDur + 2*d.cfg.SlotTime)
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
		job := d.finishJob()
		if d.upper != nil {
			d.upper.MACSendFailed(job.to, job.payload)
		}
		return
	}
	if d.cw < d.cfg.CWMax {
		d.cw = d.cw*2 + 1
		if d.cw > d.cfg.CWMax {
			d.cw = d.cfg.CWMax
		}
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
		d.finishJob()
		return
	}
	// Unicast data completion is decided by ACK/timeout; ACK tx needs no
	// follow-up. Either way the medium state changed for us.
	d.resume()
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
	cts := &Frame{
		Kind: KindCTS,
		From: d.addr,
		To:   frame.From,
		Seq:  frame.Seq,
		NAV:  frame.NAV - d.cfg.SIFS - d.controlDuration(d.cfg.CTSBytes),
	}
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
		job := d.finishJob()
		if d.sendDone != nil {
			d.sendDone.MACSendDone(job.to, job.payload)
		}
	}
}

func (d *DCF) handleData(frame *Frame) {
	switch frame.To {
	case d.addr:
		d.respondAfterSIFS(&Frame{Kind: KindAck, From: d.addr, To: frame.From, Seq: frame.Seq})
		from := int(frame.From)
		if from >= len(d.haveLast) {
			d.growDedup(from)
		}
		if d.haveLast[from] && d.lastSeq[from] == frame.Seq && frame.Retry {
			d.stats.Duplicates++
			return
		}
		d.lastSeq[from] = frame.Seq
		d.haveLast[from] = true
		d.stats.DataRx++
		if d.upper != nil {
			d.upper.MACReceive(frame.Payload, frame.From)
		}
	case Broadcast:
		d.stats.DataRx++
		if d.upper != nil {
			d.upper.MACReceive(frame.Payload, frame.From)
		}
	default:
		// Overheard frame: honor its NAV reservation.
		d.observeNAV(frame)
	}
}

// growDedup extends the dedup slices to cover sender address from.
func (d *DCF) growDedup(from int) {
	n := from + 1
	ls := make([]uint16, n)
	copy(ls, d.lastSeq)
	d.lastSeq = ls
	hl := make([]bool, n)
	copy(hl, d.haveLast)
	d.haveLast = hl
}

// dataAfterCTS stands in sifsResp for the station's own data frame, which
// is built when the SIFS elapses.
var dataAfterCTS = &Frame{Kind: KindData}

// respondAfterSIFS queues the station's answer to the frame it has just
// decoded, held on the DCF so that an ACK costs its frame and no closure.
// One slot suffices: a radio decodes one frame at a time, and a frame
// lasts at least a preamble, many SIFS.
func (d *DCF) respondAfterSIFS(resp *Frame) {
	if d.sifsResp != nil {
		panic(fmt.Sprintf("mac: t=%v: station %d queued two responses inside one SIFS", d.kernel.Now(), d.addr))
	}
	d.sifsResp = resp
	d.kernel.AfterArg(d.cfg.SIFS, sifsElapsed, d)
}

func sifsElapsed(a any) {
	d := a.(*DCF)
	resp := d.sifsResp
	d.sifsResp = nil
	if d.down || d.radio.Transmitting() {
		// Down: the interface crashed during the SIFS; a detached radio
		// panics on Transmit. Transmitting should not happen (SIFS
		// preempts contention), but never double-transmit.
		return
	}
	switch resp.Kind {
	case KindAck:
		d.stats.AckTx++
		d.radio.Transmit(resp, d.cfg.AckBytes, d.ackDuration())
	case KindCTS:
		d.stats.CTSTx++
		d.radio.Transmit(resp, d.cfg.CTSBytes, d.controlDuration(d.cfg.CTSBytes))
	default:
		if d.current != nil {
			d.sendDataFrame(d.current)
		}
	}
}
