package phy

import (
	"fmt"
	"math/rand"
	"testing"

	"cavenet/internal/geometry"
	"cavenet/internal/sim"
)

// benchStrip builds a constant-density highway strip: nodes 40 m apart on
// average along a 1.5 km-wide corridor, so a carrier-sense disc always
// covers a few dozen radios no matter how large N grows. This is the shape
// where all-pairs interference evaluation dominates large scenarios.
func benchStrip(n int, prop Propagation, cfg Config) (*sim.Kernel, *Channel, []*Radio) {
	rnd := rand.New(rand.NewSource(1))
	k := sim.NewKernel()
	c := NewChannel(k, prop, cfg)
	radios := make([]*Radio, n)
	length := float64(n) * 40
	for i := range radios {
		radios[i] = c.Attach(geometry.Vec2{
			X: rnd.Float64() * length,
			Y: rnd.Float64() * 1500,
		})
	}
	return k, c, radios
}

// BenchmarkChannelBroadcast measures one broadcast frame through the PHY —
// schedule arrivals, run signal start/end — at highway densities. The
// "brute" variants are the pre-culling O(N) sweep per transmission,
// reached through a model wrapper without DistanceMonotone (unculled).
func BenchmarkChannelBroadcast(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		for _, mode := range []struct {
			name string
			prop Propagation
		}{{"grid", TwoRayGround{}}, {"brute", unculled{TwoRayGround{}}}} {
			b.Run(fmt.Sprintf("%s/N=%d", mode.name, n), func(b *testing.B) {
				k, _, radios := benchStrip(n, mode.prop, Config{CaptureRatio: 10})
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					radios[i%n].Transmit("payload", 512, 100*sim.Microsecond)
					k.Run()
				}
			})
		}
	}
}

// BenchmarkChannelMobilityTick measures the incremental spatial-index
// update cost of moving every radio a few meters (same-cell fast path).
func BenchmarkChannelMobilityTick(b *testing.B) {
	const n = 10000
	_, _, radios := benchStrip(n, TwoRayGround{}, Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range radios {
			p := r.Position()
			p.X += 2.5
			r.SetPosition(p)
		}
	}
}
