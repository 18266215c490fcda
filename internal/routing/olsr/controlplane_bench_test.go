package olsr

import (
	"fmt"
	"testing"

	"cavenet/internal/geometry"
	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// seedControlState installs a deterministic synthetic VANET neighborhood on
// the router: `deg` symmetric 1-hop neighbors each reporting a slice of a
// ring (the 2-hop set), and a topology ring over all n nodes with 8 edges
// per origin — the shape of a converged OLSR table at highway density.
func seedControlState(w *netsim.World, r *Router, n int) {
	const deg = 16
	w.Kernel.Schedule(w.Kernel.Now(), func() {
		for i := 1; i <= deg; i++ {
			links := []HelloLink{{Neighbor: 0, Code: LinkSym}}
			for d := 1; d <= 4; d++ {
				links = append(links, HelloLink{Neighbor: netsim.NodeID((i+d-1)%n + 1), Code: LinkSym, LQ: 0.9})
			}
			r.handleHello(&Hello{From: netsim.NodeID(i), Links: links}, netsim.NodeID(i))
		}
		seq := uint16(0)
		for i := 1; i <= n; i++ {
			adv := make([]netsim.NodeID, 0, 8)
			for d := 1; d <= 4; d++ {
				adv = append(adv, netsim.NodeID((i+d-1)%n+1), netsim.NodeID((i-d-1+n)%n+1))
			}
			seq++
			msg := &TC{Origin: netsim.NodeID(i), ANSN: 1, Advertised: adv, Seq: seq}
			r.handleTC(&netsim.Packet{Kind: netsim.KindControl, TTL: 1}, msg, 1)
		}
	})
	w.Kernel.Run()
}

// BenchmarkOLSRControlPlane measures one full MPR+route recompute on a
// converged control table — the operation the seed implementation ran once
// per received HELLO/TC. "dense" is the production path (zero steady-state
// allocations; the flush is what runs its kernels — recomputeNow alone
// only stamps); "oracle" is the retained map-based reference, which is
// also the pre-optimization cost profile. See PERF.md for the table.
func BenchmarkOLSRControlPlane(b *testing.B) {
	for _, n := range []int{100, 1000} {
		for _, mode := range []string{"dense", "oracle"} {
			b.Run(fmt.Sprintf("%s/N=%d", mode, n), func(b *testing.B) {
				w, r := newBareRouter(b, Config{OracleRecompute: mode == "oracle"})
				seedControlState(w, r, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.dirty = true
					r.flush()
				}
			})
		}
	}
}

// BenchmarkOLSRPurge measures the lazy purge tick on a converged table
// with nothing expired — the steady-state cost, O(expired) = O(1) here.
func BenchmarkOLSRPurge(b *testing.B) {
	w, r := newBareRouter(b, Config{})
	seedControlState(w, r, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.purge()
	}
}

// BenchmarkOLSRWorld runs a full 200-node static-grid world — HELLO/TC
// emission, MPR forwarding, recomputes, purges — for five simulated
// seconds per iteration. Modes: "dense" is the production control plane
// (coalesced + change-filtered triggers, dense kernels run on demand);
// "oracle" keeps the triggers but runs the map-based kernels at every
// stamp. Iteration-based benchtime only.
func BenchmarkOLSRWorld(b *testing.B) {
	const n = 200
	positions := make([]geometry.Vec2, n)
	for i := range positions {
		positions[i] = geometry.Vec2{X: float64(i%20) * 180, Y: float64(i/20) * 180}
	}
	for _, mode := range []string{"dense", "oracle"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w, err := netsim.NewWorld(netsim.WorldConfig{
					Nodes: n, Seed: 1, Static: positions,
				}, func(node *netsim.Node) netsim.Router {
					return New(node, Config{OracleRecompute: mode == "oracle"})
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				w.Run(5 * sim.Second)
			}
		})
	}
}
