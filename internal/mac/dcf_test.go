package mac

import (
	"math/rand"
	"slices"
	"testing"

	"cavenet/internal/geometry"
	"cavenet/internal/phy"
	"cavenet/internal/sim"
)

// upperRec records MAC deliveries, failures and drops for one station.
type upperRec struct {
	received   []any
	from       []Address
	failed     []any
	failedTo   []Address
	queueDrops []any
	downDrops  []any
}

func (u *upperRec) MACReceive(payload any, from Address) {
	u.received = append(u.received, payload)
	u.from = append(u.from, from)
}

func (u *upperRec) MACSendFailed(to Address, payload any) {
	u.failed = append(u.failed, payload)
	u.failedTo = append(u.failedTo, to)
}

func (u *upperRec) MACSendDone(Address, any) {}

func (u *upperRec) MACQueueDrop(to Address, payload any) {
	u.queueDrops = append(u.queueDrops, payload)
}

func (u *upperRec) MACDownDrop(to Address, payload any) {
	u.downDrops = append(u.downDrops, payload)
}

// testNet builds n stations on a line with the given spacing (meters).
func testNet(t *testing.T, n int, spacing float64) (*sim.Kernel, []*DCF, []*upperRec) {
	t.Helper()
	k := sim.NewKernel()
	c := phy.NewChannel(k, phy.TwoRayGround{}, phy.Config{CaptureRatio: 10})
	var macs []*DCF
	var ups []*upperRec
	for i := 0; i < n; i++ {
		x := float64(i) * spacing
		pos := geometry.Vec2{X: x}
		radio := c.Attach(pos)
		up := &upperRec{}
		m := New(k, radio, Address(i), Config{}, rand.New(rand.NewSource(int64(i+1))), up)
		macs = append(macs, m)
		ups = append(ups, up)
	}
	return k, macs, ups
}

func TestUnicastDelivery(t *testing.T) {
	k, macs, ups := testNet(t, 2, 100)
	macs[0].Send(1, "payload", 512)
	k.RunUntil(sim.Second)
	if len(ups[1].received) != 1 || ups[1].received[0] != "payload" {
		t.Fatalf("station 1 received %v", ups[1].received)
	}
	if ups[1].from[0] != 0 {
		t.Fatalf("from = %v", ups[1].from[0])
	}
	st := macs[0].Stats()
	if st.DataTx != 1 || st.AckRx != 1 {
		t.Fatalf("sender stats = %+v", st)
	}
	if macs[1].Stats().AckTx != 1 {
		t.Fatalf("receiver should have ACKed: %+v", macs[1].Stats())
	}
}

func TestBroadcastDelivery(t *testing.T) {
	k, macs, ups := testNet(t, 4, 80) // farthest receiver at 240 m < 250 m range
	macs[0].Send(Broadcast, "bcast", 64)
	k.RunUntil(sim.Second)
	for i := 1; i < 4; i++ {
		if len(ups[i].received) != 1 {
			t.Fatalf("station %d received %d frames", i, len(ups[i].received))
		}
	}
	// Broadcasts are never ACKed.
	for i := 1; i < 4; i++ {
		if macs[i].Stats().AckTx != 0 {
			t.Fatalf("station %d ACKed a broadcast", i)
		}
	}
}

func TestRetryExhaustionReportsFailure(t *testing.T) {
	// Station 1 is far outside range: no ACK ever comes back.
	k, macs, ups := testNet(t, 2, 2000)
	macs[0].Send(1, "lost", 512)
	k.RunUntil(5 * sim.Second)
	if len(ups[0].failed) != 1 || ups[0].failed[0] != "lost" {
		t.Fatalf("failure feedback = %v", ups[0].failed)
	}
	if ups[0].failedTo[0] != 1 {
		t.Fatalf("failedTo = %v", ups[0].failedTo)
	}
	st := macs[0].Stats()
	if st.Failures != 1 {
		t.Fatalf("Failures = %d", st.Failures)
	}
	// ns-2's ShortRetryLimit 7: the first transmission and 7 retries, then
	// the frame is given up (which also counts as a retry).
	if st.Retries != 8 {
		t.Fatalf("Retries = %d, want 8", st.Retries)
	}
	// Retransmissions show as DataTx.
	if st.DataTx != 8 {
		t.Fatalf("DataTx = %d, want 8 transmissions", st.DataTx)
	}
}

func TestQueueDropTail(t *testing.T) {
	k, macs, _ := testNet(t, 2, 100)
	// ns-2's 50-packet ifq. The first Send dequeues immediately into
	// service, so 51 sends fit; everything beyond that must be dropped.
	for i := 0; i < 60; i++ {
		macs[0].Send(1, i, 512)
	}
	if drops := macs[0].Stats().QueueDrops; drops != 9 {
		t.Fatalf("QueueDrops = %d, want 9", drops)
	}
	k.RunUntil(10 * sim.Second)
}

func TestManyPacketsAllDelivered(t *testing.T) {
	k, macs, ups := testNet(t, 2, 100)
	const n = 30
	for i := 0; i < n; i++ {
		macs[0].Send(1, i, 512)
	}
	k.RunUntil(5 * sim.Second)
	if len(ups[1].received) != n {
		t.Fatalf("received %d/%d", len(ups[1].received), n)
	}
	// In-order delivery on a clean channel.
	for i, p := range ups[1].received {
		if p != i {
			t.Fatalf("out of order at %d: %v", i, p)
		}
	}
}

func TestContendersBothDeliver(t *testing.T) {
	// Two stations saturate the channel toward a third; DCF must let both
	// make progress without deadlock.
	k, macs, ups := testNet(t, 3, 100)
	const n = 20
	for i := 0; i < n; i++ {
		macs[0].Send(2, 1000+i, 512)
		macs[1].Send(2, 2000+i, 512)
	}
	k.RunUntil(10 * sim.Second)
	var from0, from1 int
	for _, p := range ups[2].received {
		if p.(int) >= 2000 {
			from1++
		} else {
			from0++
		}
	}
	if from0 != n || from1 != n {
		t.Fatalf("delivered %d from A, %d from B; want %d each", from0, from1, n)
	}
}

func TestHiddenTerminalEventualDelivery(t *testing.T) {
	// Stations 0 and 2 cannot hear each other but both reach station 1 —
	// the classic hidden-terminal setup. With the default 550 m CS range a
	// 3-station line cannot be hidden, so this test shrinks carrier sense
	// to the decode range.
	k := sim.NewKernel()
	c := phy.NewChannel(k, phy.TwoRayGround{}, phy.Config{CaptureRatio: 10, CSRangeM: 250})
	var macs []*DCF
	var ups []*upperRec
	for i := 0; i < 3; i++ {
		pos := geometry.Vec2{X: float64(i) * 200} // 0↔2 at 400 m: hidden
		radio := c.Attach(pos)
		up := &upperRec{}
		macs = append(macs, New(k, radio, Address(i), Config{}, rand.New(rand.NewSource(int64(i+1))), up))
		ups = append(ups, up)
	}
	const n = 10
	for i := 0; i < n; i++ {
		macs[0].Send(1, 100+i, 512)
		macs[2].Send(1, 200+i, 512)
	}
	k.RunUntil(20 * sim.Second)
	if len(ups[1].received) < n {
		t.Fatalf("hidden-terminal scenario delivered only %d frames", len(ups[1].received))
	}
	retries := macs[0].Stats().Retries + macs[2].Stats().Retries
	if retries == 0 {
		t.Fatal("expected retries under hidden-terminal collisions")
	}
}

func TestDuplicateFiltering(t *testing.T) {
	// Force an ACK loss by dropping the ACK through a one-way topology is
	// hard to stage; instead verify the dedup cache logic directly: same
	// (src, seq) with the retry flag set must be filtered.
	k, macs, ups := testNet(t, 2, 100)
	frame := &Frame{Kind: KindData, From: 0, To: 1, Seq: 7, Payload: "x"}
	macs[1].handleData(frame)
	k.RunUntil(sim.Millisecond) // the ACK goes out; a retransmission cannot arrive sooner
	retry := &Frame{Kind: KindData, From: 0, To: 1, Seq: 7, Retry: true, Payload: "x"}
	macs[1].handleData(retry)
	if len(ups[1].received) != 1 {
		t.Fatalf("duplicate not filtered: %v", ups[1].received)
	}
	if macs[1].Stats().Duplicates != 1 {
		t.Fatalf("Duplicates = %d", macs[1].Stats().Duplicates)
	}
	k.RunUntil(sim.Second) // drain scheduled ACKs
}

// TestDedupSizedBySenders: a station that takes unicast data from a sender
// with a large address holds one dedup entry for it, not one per address
// below it, and filters that sender's retransmission as any other's.
func TestDedupSizedBySenders(t *testing.T) {
	k, macs, ups := testNet(t, 2, 100)
	const far = Address(1 << 20)
	macs[1].handleData(&Frame{Kind: KindData, From: far, To: 1, Seq: 7, Payload: "x"})
	k.RunUntil(sim.Millisecond)
	macs[1].handleData(&Frame{Kind: KindData, From: far, To: 1, Seq: 7, Retry: true, Payload: "x"})
	k.RunUntil(2 * sim.Millisecond)
	macs[1].handleData(&Frame{Kind: KindData, From: far, To: 1, Seq: 8, Retry: true, Payload: "y"})
	if n := len(macs[1].dedup); n != 1 {
		t.Fatalf("dedup holds %d entries for one sender", n)
	}
	if d := macs[1].Stats().Duplicates; d != 1 || len(ups[1].received) != 2 {
		t.Fatalf("Duplicates = %d, %d frames received; want 1 and 2", d, len(ups[1].received))
	}
	k.RunUntil(sim.Second)
}

func TestNAVDefersThirdParty(t *testing.T) {
	// Station 2 overhears a unicast between 0 and 1 and must set its NAV.
	k, macs, _ := testNet(t, 3, 100)
	macs[0].Send(1, "data", 2000)
	k.RunUntil(sim.Second)
	if macs[2].Stats().NAVSettings == 0 {
		t.Fatal("third party never set its NAV")
	}
}

func TestConfigDefaults(t *testing.T) {
	if slotTime != 20*sim.Microsecond || sifsTime != 10*sim.Microsecond {
		t.Fatalf("timing constants wrong: slot %v, SIFS %v", slotTime, sifsTime)
	}
	if difsTime != 50*sim.Microsecond {
		t.Fatalf("DIFS = %v, want 50 µs", difsTime)
	}
	if cwMin != 31 || cwMax != 1023 || shortRetryLimit != 7 {
		t.Fatalf("contention constants wrong: CW %d..%d, retry limit %d", cwMin, cwMax, shortRetryLimit)
	}
	var c Config
	c.normalize()
	if c.DataRateBPS != 2e6 {
		t.Fatalf("data rate = %v, want 2 Mb/s (Table I)", c.DataRateBPS)
	}
}

func TestAirTimeComputation(t *testing.T) {
	k, macs, _ := testNet(t, 2, 100)
	_ = k
	d := macs[0]
	// 512+28 bytes at 2 Mb/s = 2160 µs + 192 µs preamble.
	want := 192*sim.Microsecond + sim.Time(float64((512+28)*8)/2e6*float64(sim.Second))
	if got := d.dataDuration(512); got != want {
		t.Fatalf("dataDuration = %v, want %v", got, want)
	}
	// ACK: 14 bytes at 1 Mb/s + preamble.
	wantAck := 192*sim.Microsecond + sim.Time(float64(14*8)/1e6*float64(sim.Second))
	if got := ackDuration(); got != wantAck {
		t.Fatalf("ackDuration = %v, want %v", got, wantAck)
	}
}

func TestByteCounters(t *testing.T) {
	k, macs, _ := testNet(t, 2, 100)
	macs[0].Send(1, "x", 512)
	k.RunUntil(sim.Second)
	if got := macs[0].Stats().BytesTx; got != 512+28 {
		t.Fatalf("BytesTx = %d, want payload+header", got)
	}
}

func TestBroadcastUnderLoadNoDeadlock(t *testing.T) {
	// All four stations broadcast simultaneously; DCF backoff must
	// serialize them without livelock.
	k, macs, ups := testNet(t, 4, 50)
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			macs[i].Send(Broadcast, i*10+j, 100)
		}
	}
	k.RunUntil(5 * sim.Second)
	total := 0
	for _, up := range ups {
		total += len(up.received)
	}
	// 20 broadcasts × 3 receivers each = 60 if no collisions at all; the
	// shared backoff should deliver the large majority.
	if total < 40 {
		t.Fatalf("broadcast delivery too low: %d/60", total)
	}
}

// TestQueueLenIncludesInFlight is the regression test for backlog
// undercounting: the job being served (contending, transmitting or
// retrying) is part of the interface backlog, not just the waiting queue.
func TestQueueLenIncludesInFlight(t *testing.T) {
	// Station 1 is far out of range, so the unicast retries until the
	// limit — the frame stays in flight for a long, observable window.
	k, macs, _ := testNet(t, 2, 10000)
	if macs[0].QueueLen() != 0 {
		t.Fatalf("idle QueueLen = %d, want 0", macs[0].QueueLen())
	}
	macs[0].Send(1, "a", 512)
	macs[0].Send(1, "b", 512)
	if got := macs[0].QueueLen(); got != 2 {
		t.Fatalf("QueueLen with 1 in-flight + 1 queued = %d, want 2", got)
	}
	// One retry round in: the first frame is still the current job.
	k.RunUntil(5 * sim.Millisecond)
	if got := macs[0].QueueLen(); got == 0 {
		t.Fatal("QueueLen reads 0 while a frame is still retrying")
	}
	// After both frames exhaust their retries the backlog drains.
	k.RunUntil(5 * sim.Second)
	if got := macs[0].QueueLen(); got != 0 {
		t.Fatalf("QueueLen after retry exhaustion = %d, want 0", got)
	}
	if f := macs[0].Stats().Failures; f != 2 {
		t.Fatalf("failures = %d, want 2", f)
	}
}

func TestQueueDropReportedUpward(t *testing.T) {
	k := sim.NewKernel()
	c := phy.NewChannel(k, phy.TwoRayGround{}, phy.Config{CaptureRatio: 10})
	up := &upperRec{}
	m := New(k, c.Attach(geometry.Vec2{}), 0, Config{}, rand.New(rand.NewSource(1)), up)
	for i := 0; i < 53; i++ {
		m.Send(Broadcast, i, 100)
	}
	// One in service, 50 queued, two dropped and reported.
	if got := m.Stats().QueueDrops; got != 2 {
		t.Fatalf("QueueDrops = %d, want 2", got)
	}
	if len(up.queueDrops) != 2 || up.queueDrops[0] != 51 || up.queueDrops[1] != 52 {
		t.Fatalf("reported drops = %v, want [51 52]", up.queueDrops)
	}
}

// TestDownRetiresInFlightSeq is the regression test for a post-crash
// sequence-number reuse hole: a non-graceful Down flushes the in-flight
// MSDU, but the receiver may already hold its sequence number in the dedup
// cache. If the first MSDU after recovery reused that number, a
// retransmission of it would be ACKed by the receiver yet silently
// filtered as a duplicate of the flushed frame — the packet would vanish
// with no drop event. Down must therefore retire the flushed job's seq.
func TestDownRetiresInFlightSeq(t *testing.T) {
	k, macs, ups := testNet(t, 2, 100)
	// First MSDU (seq 0) delivers normally.
	macs[0].Send(1, "pre", 512)
	k.RunUntil(10 * sim.Millisecond)
	if len(ups[1].received) != 1 {
		t.Fatalf("precondition: first frame not delivered: %v", ups[1].received)
	}
	// Second MSDU goes in flight; the receiver hears it (caching its seq in
	// the dedup filter) but the sender crashes before processing the ACK.
	macs[0].Send(1, "doomed", 512)
	for i := 0; macs[1].Stats().DataRx < 2; i++ {
		if i > 1000 {
			t.Fatal("second frame never reached the receiver")
		}
		k.RunUntil(k.Now() + 100*sim.Microsecond)
	}
	inflight := macs[0].seq // the sequence number the doomed frame aired with
	macs[0].Down()
	if macs[0].Stats().DownDrops != 1 {
		t.Fatalf("DownDrops = %d, want the in-flight job flushed", macs[0].Stats().DownDrops)
	}
	if macs[0].seq == inflight {
		t.Fatalf("Down left seq %d unretired; the next MSDU would reuse it", inflight)
	}
	// After recovery the next MSDU uses a fresh sequence number, so even a
	// retransmission of it passes the receiver's dedup filter.
	macs[0].Up()
	macs[0].Send(1, "fresh", 512)
	k.RunUntil(k.Now() + 20*sim.Millisecond)
	if n := len(ups[1].received); n != 3 || ups[1].received[2] != "fresh" {
		t.Fatalf("post-recovery frame not delivered: %v", ups[1].received)
	}
}

func TestEachQueuedVisitsCustody(t *testing.T) {
	k := sim.NewKernel()
	c := phy.NewChannel(k, phy.TwoRayGround{}, phy.Config{CaptureRatio: 10})
	m := New(k, c.Attach(geometry.Vec2{}), 0, Config{}, rand.New(rand.NewSource(1)), &upperRec{})
	for i := 0; i < 3; i++ {
		m.Send(Broadcast, i, 100)
	}
	var seen []any
	m.EachQueued(func(p any) { seen = append(seen, p) })
	// The in-flight job first, then the backlog in order.
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 1 || seen[2] != 2 {
		t.Fatalf("EachQueued = %v, want [0 1 2]", seen)
	}
	if m.QueueLen() != 3 {
		t.Fatalf("QueueLen = %d", m.QueueLen())
	}
}

// TestSendOneAtATimeAllocFree pins the interface queue's storage reuse: a
// station that sends one frame at a time pops behind a head index and
// holds the in-flight job by value, so neither Send nor kick allocates —
// before, each MSDU cost a heap-allocated job and, because popping by
// reslicing gave up a slot of capacity, a queue reallocation. The frame
// paths ride along: the MAC and PHY frames of a broadcast, and of a
// unicast with its ACK, come from their pools, so neither allocates.
func TestSendOneAtATimeAllocFree(t *testing.T) {
	k := sim.NewKernel()
	c := phy.NewChannel(k, phy.TwoRayGround{}, phy.Config{CaptureRatio: 10})
	m := New(k, c.Attach(geometry.Vec2{}), 0, Config{}, rand.New(rand.NewSource(1)), &upperRec{})
	payload := any(&struct{}{})

	// Send, kick and Down alone: the kernel never runs, so no frame is
	// built and the flush returns the MAC to idle.
	m.Send(Broadcast, payload, 100)
	m.Down()
	m.Up()
	if a := testing.AllocsPerRun(200, func() {
		m.Send(Broadcast, payload, 100)
		m.Down()
		m.Up()
	}); a != 0 {
		t.Fatalf("Send+kick+Down allocated %v times per MSDU, want 0", a)
	}

	// The whole service cycle of one broadcast MSDU allocates nothing: its
	// mac.Frame and phy.Frame are recycled when the frame dies.
	m.Send(Broadcast, payload, 100)
	for k.Step() {
	}
	if a := testing.AllocsPerRun(200, func() {
		m.Send(Broadcast, payload, 100)
		for k.Step() {
		}
	}); a != 0 {
		t.Fatalf("one broadcast MSDU allocated %v times, want 0", a)
	}
	if got := m.Stats().DataTx; got != 202 {
		t.Fatalf("DataTx = %d, want 202", got)
	}

	// A unicast MSDU adds the receiver's answer, whose frames come from the
	// receiver's pools: the ACK waits out its SIFS held on the DCF, not in
	// a closure.
	peer := New(k, c.Attach(geometry.Vec2{X: 100}), 1, Config{}, rand.New(rand.NewSource(2)), discardUpper{})
	m.Send(1, payload, 100)
	for k.Step() {
	}
	if a := testing.AllocsPerRun(200, func() {
		m.Send(1, payload, 100)
		for k.Step() {
		}
	}); a != 0 {
		t.Fatalf("one acknowledged MSDU allocated %v times, want 0", a)
	}
	if got := peer.Stats().AckTx; got != 202 {
		t.Fatalf("AckTx = %d, want 202", got)
	}
}

// discardUpper is an upper layer that keeps nothing, for allocation pins.
type discardUpper struct{}

func (discardUpper) MACReceive(any, Address)    {}
func (discardUpper) MACSendFailed(Address, any) {}
func (discardUpper) MACSendDone(Address, any)   {}
func (discardUpper) MACQueueDrop(Address, any)  {}
func (discardUpper) MACDownDrop(Address, any)   {}

// TestQueueHeadIndexKeepsCustody drives the backlog through pops, refills,
// the never-drains compaction and a Down flush, checking after every step
// that QueueLen/EachQueued/Down see exactly the in-flight job followed by
// the backlog in FIFO order, and that popped slots are not retained.
func TestQueueHeadIndexKeepsCustody(t *testing.T) {
	k := sim.NewKernel()
	c := phy.NewChannel(k, phy.TwoRayGround{}, phy.Config{CaptureRatio: 10})
	up := &upperRec{}
	m := New(k, c.Attach(geometry.Vec2{}), 0, Config{}, rand.New(rand.NewSource(1)), up)

	next, want := 0, []any(nil) // want: the custody order, in-flight first
	check := func(when string) {
		t.Helper()
		var seen []any
		m.EachQueued(func(p any) { seen = append(seen, p) })
		if len(seen) != len(want) || m.QueueLen() != len(want) {
			t.Fatalf("%s: EachQueued = %v (QueueLen %d), want %v", when, seen, m.QueueLen(), want)
		}
		for i := range want {
			if seen[i] != want[i] {
				t.Fatalf("%s: EachQueued = %v, want %v", when, seen, want)
			}
		}
		for i := 0; i < m.qhead; i++ {
			if m.queue[i] != (txJob{}) {
				t.Fatalf("%s: popped slot %d still holds %v", when, i, m.queue[i])
			}
		}
	}
	send := func() {
		m.Send(Broadcast, next, 100)
		if len(want) < 51 { // one in flight + 50 queued; the rest drop-tail
			want = append(want, next)
		}
		next++
	}
	// Keep the backlog from ever draining: one MSDU completes, two arrive
	// (the surplus is dropped at the tail), for far more rounds than the
	// array has slots.
	send()
	send()
	check("primed")
	for round := 0; round < 200; round++ {
		sent := m.Stats().DataTx
		for m.Stats().DataTx == sent || m.radio.Transmitting() {
			if !k.Step() {
				t.Fatalf("round %d: kernel ran dry with %d in custody", round, m.QueueLen())
			}
		}
		want = want[1:]
		send()
		send()
		check("saturated")
	}
	if cap(m.queue) > 4*50 {
		t.Fatalf("backing array grew to %d slots under a capped backlog of 50", cap(m.queue))
	}
	m.Down()
	if len(up.downDrops) != len(want) {
		t.Fatalf("Down flushed %v, want %v", up.downDrops, want)
	}
	for i := range want {
		if up.downDrops[i] != want[i] {
			t.Fatalf("Down flushed %v, want %v", up.downDrops, want)
		}
	}
	want = nil
	check("down")
}

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

// TestPayloadHandedBackAfterLastReceiver: the MAC hands a payload back once
// its job has ended and no frame carrying it is on the air. A broadcast's
// MACSendDone waits out its tx-done for the farthest receiver's decode; a
// Down that flushes a job mid-air reports its MACDownDrop when the frame
// dies, keeping the payload in EachQueued until then; an ACKed unicast's
// MACSendDone comes with the ACK.
func TestPayloadHandedBackAfterLastReceiver(t *testing.T) {
	upcalls := func(s *station, what string) []macEvent {
		var out []macEvent
		for _, e := range slices.Concat(s.log, s.deaths) {
			if e.what == what {
				out = append(out, e)
			}
		}
		return out
	}
	t.Run("broadcast", func(t *testing.T) {
		k, st := newCell(false, phy.Config{}, Config{}, 0, 100, 240)
		st[0].Send(Broadcast, 7, 100)
		for k.Step() {
		}
		tx := st[0].txTimes(KindData)
		rx := upcalls(st[2], "rx")
		done := upcalls(st[0], "done")
		if len(tx) != 1 || len(rx) != 1 || len(upcalls(st[1], "rx")) != 1 {
			t.Fatalf("tx %v, far rx %v: want one broadcast decoded at both stations", tx, rx)
		}
		if len(done) != 1 || done[0].n != 7 || done[0].peer != Broadcast {
			t.Fatalf("hand-backs %v, want one MACSendDone of payload 7", done)
		}
		if txDone := tx[0] + st[0].dataDuration(100); done[0].at != rx[0].at || done[0].at <= txDone {
			t.Fatalf("MACSendDone at %v, want at the far decode %v, after tx-done %v", done[0].at, rx[0].at, txDone)
		}
	})
	t.Run("down mid-air", func(t *testing.T) {
		k, st := newCell(false, phy.Config{}, Config{}, 0, 240)
		st[0].Send(1, 7, 100)
		for !st[0].radio.Transmitting() {
			k.Step()
		}
		st[0].Down()
		var held []any
		st[0].EachQueued(func(p any) { held = append(held, p) })
		if len(held) != 1 || held[0] != 7 || len(upcalls(st[0], "ddrop")) != 0 {
			t.Fatalf("after Down mid-air: EachQueued %v, drops %v; want the payload held, no drop yet", held, upcalls(st[0], "ddrop"))
		}
		for k.Step() {
		}
		rx := upcalls(st[1], "rx")
		drop := upcalls(st[0], "ddrop")
		if len(rx) != 1 || len(drop) != 1 || drop[0].n != 7 || drop[0].at != rx[0].at {
			t.Fatalf("rx %v, drops %v: want one MACDownDrop at the receiver's decode", rx, drop)
		}
		held = held[:0]
		st[0].EachQueued(func(p any) { held = append(held, p) })
		if len(held) != 0 {
			t.Fatalf("EachQueued %v after the hand-back, want empty", held)
		}
	})
	t.Run("acked unicast", func(t *testing.T) {
		k, st := newCell(false, phy.Config{}, Config{}, 0, 240)
		st[0].Send(1, 7, 100)
		for k.Step() {
		}
		acks := st[1].txTimes(KindAck)
		done := upcalls(st[0], "done")
		if len(acks) != 1 || len(done) != 1 || done[0].at != acks[0]+ackDuration()+prop240 {
			t.Fatalf("ACK aired %v, hand-backs %v: want MACSendDone as the ACK is decoded", acks, done)
		}
	})
}

// prop240 is the PHY's propagation delay over 240 m, truncated to
// nanoseconds.
const prop240 = 800 * sim.Nanosecond
