package aodv

import (
	"testing"

	"cavenet/internal/geometry"
	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// TestDataPlaneZeroAlloc pins the dense table's per-packet work at exactly
// zero allocations once the destination set is warm: route lookup plus
// refresh (the forwarding path), steady route updates (RREP/reverse-route
// maintenance), the link-break → RERR cycle through the reused scratch
// buffer, and the lazy purge tick. One destination sits in the map
// fallback range (an external uplink address) so the hybrid interning is
// exercised too.
func TestDataPlaneZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	tbl := newDenseTable(k)
	const lifetime = 3 * sim.Second
	dsts := []netsim.NodeID{1 << 30}
	for d := netsim.NodeID(0); d < 64; d++ {
		dsts = append(dsts, d)
	}
	var buf []UnreachableDst
	seq := uint32(1)
	steady := func() {
		for _, d := range dsts {
			tbl.update(d, seq, true, 2, 5, lifetime)
		}
		for _, d := range dsts {
			tbl.validNext(d)
			tbl.refresh(d, lifetime)
		}
		buf = tbl.breakVia(5, buf[:0])
		for _, d := range dsts {
			tbl.rerrApply(d, 5, seq)
		}
		tbl.purgeExpired()
		seq++
	}
	steady() // warm: intern the destinations, size the scratch buffer
	if allocs := testing.AllocsPerRun(200, steady); allocs != 0 {
		t.Fatalf("steady data-plane table work allocates %.1f/op, want 0", allocs)
	}
}

// warmTable interns n destinations with valid routes via next hop 5.
func warmTable(tbl routeTable, n int, lifetime sim.Time) {
	for d := netsim.NodeID(0); d < netsim.NodeID(n); d++ {
		tbl.update(d, 1, true, 2, 5, lifetime)
	}
}

// BenchmarkAODVForward measures the per-packet table work of forwarding —
// one validNext plus the two refreshes every forwarded frame performs —
// on a warm 64-destination table. "dense" is the table routers use (zero
// allocations); "oracle" is the map-based reference in reference_test.go,
// which is also the pre-optimization cost profile. See PERF.md for the
// table.
func BenchmarkAODVForward(b *testing.B) {
	const lifetime = 3 * sim.Second
	for _, mode := range []string{"dense", "oracle"} {
		b.Run(mode, func(b *testing.B) {
			k := sim.NewKernel()
			var tbl routeTable
			if mode == "oracle" {
				tbl = newMapTable(k)
			} else {
				tbl = newDenseTable(k)
			}
			warmTable(tbl, 64, lifetime)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := netsim.NodeID(i & 63)
				tbl.validNext(d)
				tbl.refresh(d, lifetime)
				tbl.refresh(5, lifetime)
			}
		})
	}
}

// BenchmarkAODVRREQStorm runs a 49-node static grid where eight senders
// simultaneously discover routes to distinct far destinations — an RREQ
// flood storm over the whole network, followed by RREPs and the first
// data deliveries — for three simulated seconds per iteration.
func BenchmarkAODVRREQStorm(b *testing.B) {
	const n = 49
	positions := make([]geometry.Vec2, n)
	for i := range positions {
		positions[i] = geometry.Vec2{X: float64(i % 7 * 180), Y: float64(i / 7 * 180)}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w, err := netsim.NewWorld(netsim.WorldConfig{
			Nodes: n, Seed: 1, Static: positions,
		}, func(node *netsim.Node) netsim.Router {
			return New(node, Config{})
		})
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < 8; s++ {
			src := w.Node(s)
			dst := netsim.NodeID(n - 1 - s)
			w.Node(int(dst)).AttachPort(netsim.PortCBR+s, netsim.PortFunc(func(*netsim.Packet, sim.Time) {}))
			port := netsim.PortCBR + s
			w.Kernel.Schedule(0, func() {
				src.SendData(src.NewPacket(dst, port, 128))
			})
		}
		b.StartTimer()
		w.Run(3 * sim.Second)
	}
}
