package dymo

import (
	"testing"

	"cavenet/internal/geometry"
	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// TestDataPlaneZeroAlloc pins the route table's per-packet work, at DYMO's
// lifetime, at exactly zero allocations once the destination set is warm:
// route lookup plus refresh (the forwarding path), steady route updates
// (routing-message processing), the link-break → RERR cycle through the
// reused scratch buffer, and the epoch-stamped purge tick. One destination sits in the
// map fallback range (an external uplink address) so the hybrid interning
// is exercised too.
func TestDataPlaneZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	tbl := netsim.NewRoutes(k)
	dsts := []netsim.NodeID{1 << 30}
	for d := netsim.NodeID(0); d < 64; d++ {
		dsts = append(dsts, d)
	}
	var buf []netsim.Unreachable
	seq := uint32(1)
	steady := func() {
		for _, d := range dsts {
			tbl.Update(d, seq, true, 2, 5, routeTimeout)
		}
		for _, d := range dsts {
			tbl.Next(d)
			tbl.Refresh(d, routeTimeout)
		}
		buf = tbl.BreakVia(5, buf[:0])
		for _, d := range dsts {
			tbl.RerrApply(d, 5, seq)
		}
		tbl.Purge()
		seq++
	}
	steady() // warm: intern the destinations, size the scratch buffer
	if allocs := testing.AllocsPerRun(200, steady); allocs != 0 {
		t.Fatalf("steady data-plane table work allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkDYMOForward measures the per-packet table work of forwarding —
// one Next plus the two refreshes every forwarded frame performs — on a
// warm 64-destination table. "dense" is netsim.Routes, the table routers
// use (zero allocations); "oracle" is the map-based reference in reference_test.go,
// which is also the pre-optimization cost profile. See PERF.md for the
// table.
func BenchmarkDYMOForward(b *testing.B) {
	for _, mode := range []string{"dense", "oracle"} {
		b.Run(mode, func(b *testing.B) {
			k := sim.NewKernel()
			var tbl routeTable
			if mode == "oracle" {
				tbl = newMapTable(k)
			} else {
				tbl = netsim.NewRoutes(k)
			}
			for d := netsim.NodeID(0); d < 64; d++ {
				tbl.Update(d, 1, true, 2, 5, routeTimeout)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := netsim.NodeID(i & 63)
				tbl.Next(d)
				tbl.Refresh(d, routeTimeout)
				tbl.Refresh(5, routeTimeout)
			}
		})
	}
}

// BenchmarkDYMORREQStorm runs a 49-node static grid where eight senders
// simultaneously discover routes to distinct far destinations — an RREQ
// flood storm with path accumulation across the whole network, followed
// by RREPs and the first data deliveries — for three simulated seconds
// per iteration.
func BenchmarkDYMORREQStorm(b *testing.B) {
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
			port := netsim.PortCBR + s
			w.Node(int(dst)).AttachPort(port, netsim.PortFunc(func(*netsim.Packet, sim.Time) {}))
			w.Kernel.Schedule(0, func() {
				src.SendData(src.NewPacket(dst, port, 128))
			})
		}
		b.StartTimer()
		w.Run(3 * sim.Second)
	}
}
