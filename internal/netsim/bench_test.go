package netsim

import (
	"fmt"
	"math/rand"
	"testing"

	"cavenet/internal/geometry"
	"cavenet/internal/phy"
)

// unculled wraps a propagation model in a type without DistanceMonotone,
// which puts the channel — and the world's connectivity queries — on the
// all-pairs reference path (phy.NewChannel).
type unculled struct{ phy.Propagation }

func benchWorld(b *testing.B, n int, brute bool) *World {
	rnd := rand.New(rand.NewSource(1))
	pos := make([]geometry.Vec2, n)
	length := float64(n) * 40
	for i := range pos {
		pos[i] = geometry.Vec2{X: rnd.Float64() * length, Y: rnd.Float64() * 1500}
	}
	cfg := WorldConfig{Nodes: n, Static: pos}
	if brute {
		cfg.Propagation = unculled{phy.TwoRayGround{}}
	}
	w, err := NewWorld(cfg, newFloodRouter)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkConnectivityMatrix measures the Fig. 1 connectivity analysis at
// increasing scale; "brute" is the all-pairs oracle sweep.
func BenchmarkConnectivityMatrix(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		for _, mode := range []struct {
			name  string
			brute bool
		}{{"grid", false}, {"brute", true}} {
			b.Run(fmt.Sprintf("%s/N=%d", mode.name, n), func(b *testing.B) {
				w := benchWorld(b, n, mode.brute)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if m := w.ConnectivityMatrix(); len(m) != n {
						b.Fatal("bad matrix")
					}
				}
			})
		}
	}
}

// BenchmarkConnectedComponents measures the component partition used by the
// highway relay-lane analysis.
func BenchmarkConnectedComponents(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		for _, mode := range []struct {
			name  string
			brute bool
		}{{"grid", false}, {"brute", true}} {
			b.Run(fmt.Sprintf("%s/N=%d", mode.name, n), func(b *testing.B) {
				w := benchWorld(b, n, mode.brute)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if comps := w.ConnectedComponents(); len(comps) == 0 {
						b.Fatal("no components")
					}
				}
			})
		}
	}
}
