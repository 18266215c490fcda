package mac

import (
	"math/rand"
	"testing"

	"cavenet/internal/geometry"
	"cavenet/internal/phy"
	"cavenet/internal/sim"
)

// BenchmarkSaturatedPair measures the MAC's event cost moving a batch of
// frames between two stations on a clean channel. events/frame is kernel
// events fired per data frame transmitted — the count the per-backoff
// timer moved (a countdown is one event, not one per slot).
func BenchmarkSaturatedPair(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		c := phy.NewChannel(k, phy.TwoRayGround{}, phy.Config{CaptureRatio: 10})
		posA := geometry.Vec2{}
		posB := geometry.Vec2{X: 100}
		up := &upperRec{}
		a := New(k, c.Attach(posA), 0, Config{},
			rand.New(rand.NewSource(1)), &upperRec{})
		New(k, c.Attach(posB), 1, Config{},
			rand.New(rand.NewSource(2)), up)
		for j := 0; j < 50; j++ {
			a.Send(1, j, 512)
		}
		k.RunUntil(5 * sim.Second)
		if len(up.received) != 50 {
			b.Fatalf("delivered %d/50", len(up.received))
		}
		events += k.Processed()
	}
	b.ReportMetric(float64(events)/float64(b.N*50), "events/frame")
}

// BenchmarkContention measures 8 stations all broadcasting into one
// collision domain.
func BenchmarkContention(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		c := phy.NewChannel(k, phy.TwoRayGround{}, phy.Config{CaptureRatio: 10})
		var macs []*DCF
		for s := 0; s < 8; s++ {
			pos := geometry.Vec2{X: float64(s) * 20}
			macs = append(macs, New(k, c.Attach(pos),
				Address(s), Config{}, rand.New(rand.NewSource(int64(s+1))), &upperRec{}))
		}
		for s := 0; s < 8; s++ {
			for j := 0; j < 10; j++ {
				macs[s].Send(Broadcast, j, 256)
			}
		}
		k.RunUntil(5 * sim.Second)
		events += k.Processed()
	}
	b.ReportMetric(float64(events)/float64(b.N*80), "events/frame")
}
