package mac

import (
	"math/rand"
	"testing"

	"cavenet/internal/geometry"
	"cavenet/internal/phy"
	"cavenet/internal/sim"
)

// rtsNet builds stations on a line with RTS/CTS enabled for payloads of at
// least threshold bytes.
func rtsNet(t *testing.T, n int, spacing float64, threshold int, csRange float64) (*sim.Kernel, []*DCF, []*upperRec) {
	t.Helper()
	k := sim.NewKernel()
	cfg := phy.Config{CaptureRatio: 10}
	if csRange > 0 {
		cfg.CSRangeM = csRange
	}
	c := phy.NewChannel(k, phy.TwoRayGround{}, cfg)
	var macs []*DCF
	var ups []*upperRec
	for i := 0; i < n; i++ {
		pos := geometry.Vec2{X: float64(i) * spacing}
		radio := c.Attach(pos)
		up := &upperRec{}
		macs = append(macs, New(k, radio, Address(i),
			Config{RTSThreshold: threshold},
			rand.New(rand.NewSource(int64(i+1))), up))
		ups = append(ups, up)
	}
	return k, macs, ups
}

func TestRTSCTSBasicExchange(t *testing.T) {
	k, macs, ups := rtsNet(t, 2, 100, 100, 0)
	macs[0].Send(1, "big", 512)
	k.RunUntil(sim.Second)
	if len(ups[1].received) != 1 {
		t.Fatalf("received %d", len(ups[1].received))
	}
	s0, s1 := macs[0].Stats(), macs[1].Stats()
	if s0.RTSTx != 1 {
		t.Fatalf("RTSTx = %d, want 1", s0.RTSTx)
	}
	if s1.CTSTx != 1 {
		t.Fatalf("CTSTx = %d, want 1", s1.CTSTx)
	}
	if s0.AckRx != 1 || s1.AckTx != 1 {
		t.Fatal("the protected data frame must still be ACKed")
	}
}

func TestRTSThresholdSpares(t *testing.T) {
	// Payload below the threshold goes out without the handshake.
	k, macs, ups := rtsNet(t, 2, 100, 256, 0)
	macs[0].Send(1, "small", 64)
	k.RunUntil(sim.Second)
	if len(ups[1].received) != 1 {
		t.Fatal("delivery failed")
	}
	if macs[0].Stats().RTSTx != 0 {
		t.Fatal("small frame must not use RTS")
	}
}

func TestRTSNeverForBroadcast(t *testing.T) {
	k, macs, ups := rtsNet(t, 3, 80, 1, 0)
	macs[0].Send(Broadcast, "b", 512)
	k.RunUntil(sim.Second)
	if macs[0].Stats().RTSTx != 0 {
		t.Fatal("broadcast must never use RTS")
	}
	if len(ups[1].received) != 1 || len(ups[2].received) != 1 {
		t.Fatal("broadcast delivery failed")
	}
}

func TestRTSDisabledByDefault(t *testing.T) {
	var c Config
	c.normalize()
	if c.RTSThreshold != 0 {
		t.Fatal("Table I says RTS/CTS None: the default threshold must be 0")
	}
	if rtsBytes != 20 || ctsBytes != 14 || longRetryLimit != 4 {
		t.Fatalf("RTS constants wrong: RTS %d B, CTS %d B, long retry limit %d", rtsBytes, ctsBytes, longRetryLimit)
	}
}

func TestCTSTimeoutRetriesWithLongLimit(t *testing.T) {
	// Receiver out of range: no CTS; the frame fails after LongRetry tries.
	k, macs, ups := rtsNet(t, 2, 2000, 100, 0)
	macs[0].Send(1, "lost", 512)
	k.RunUntil(10 * sim.Second)
	if len(ups[0].failed) != 1 {
		t.Fatalf("failures = %d", len(ups[0].failed))
	}
	st := macs[0].Stats()
	// ns-2's LongRetryLimit 4: the first RTS and 4 retries.
	if st.RTSTx != 5 {
		t.Fatalf("RTSTx = %d, want 5 attempts", st.RTSTx)
	}
	if st.DataTx != 0 {
		t.Fatal("data must never fly without a CTS")
	}
}

func TestRTSCTSHiddenTerminalImproves(t *testing.T) {
	// Hidden-terminal topology (CS range shrunk to decode range so the
	// outer stations cannot sense each other). With RTS/CTS the hidden
	// sender defers via the CTS's NAV, reducing data-frame retries.
	run := func(threshold int) uint64 {
		k, macs, ups := rtsNet(t, 3, 200, threshold, 250)
		const n = 15
		for i := 0; i < n; i++ {
			macs[0].Send(1, 100+i, 512)
			macs[2].Send(1, 200+i, 512)
		}
		k.RunUntil(30 * sim.Second)
		if len(ups[1].received) < 2*n-4 {
			t.Fatalf("threshold %d: delivered only %d/%d", threshold, len(ups[1].received), 2*n)
		}
		return macs[0].Stats().Retries + macs[2].Stats().Retries
	}
	without := run(0)
	with := run(100)
	if with >= without {
		t.Fatalf("RTS/CTS should reduce hidden-terminal retries: %d with vs %d without",
			with, without)
	}
}

func TestThirdPartyHonorsRTSNAV(t *testing.T) {
	k, macs, _ := rtsNet(t, 3, 100, 100, 0)
	macs[0].Send(1, "data", 512)
	k.RunUntil(sim.Second)
	// Station 2 overhears the RTS (and CTS) and must have set its NAV.
	if macs[2].Stats().NAVSettings == 0 {
		t.Fatal("third party ignored RTS/CTS NAV")
	}
}
