package netsim

import (
	"math/rand"
	"sort"
	"testing"

	"cavenet/internal/geometry"
	"cavenet/internal/phy"
)

// TestConnectivityGridMatchesBruteForce checks the grid-backed
// ConnectivityMatrix and ConnectedComponents against the all-pairs oracle
// on a random topology.
func TestConnectivityGridMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	const n = 150
	pos := make([]geometry.Vec2, n)
	for i := range pos {
		pos[i] = geometry.Vec2{X: rnd.Float64() * 5000, Y: rnd.Float64() * 2000}
	}
	build := func(brute bool) *World {
		cfg := WorldConfig{Nodes: n, Static: pos}
		if brute {
			cfg.Propagation = unculled{phy.TwoRayGround{}}
		}
		w, err := NewWorld(cfg, newFloodRouter)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	grid, brute := build(false), build(true)
	if !grid.Channel.Culling() || brute.Channel.Culling() {
		t.Fatal("culling does not follow WorldConfig.Propagation")
	}

	gm, bm := grid.ConnectivityMatrix(), brute.ConnectivityMatrix()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if gm[i][j] != bm[i][j] {
				t.Fatalf("matrix mismatch at (%d,%d): grid %v, brute %v",
					i, j, gm[i][j], bm[i][j])
			}
		}
	}

	canon := func(comps [][]int) [][]int {
		for _, c := range comps {
			sort.Ints(c)
		}
		sort.Slice(comps, func(a, b int) bool { return comps[a][0] < comps[b][0] })
		return comps
	}
	gc, bc := canon(grid.ConnectedComponents()), canon(brute.ConnectedComponents())
	if len(gc) != len(bc) {
		t.Fatalf("component count: grid %d, brute %d", len(gc), len(bc))
	}
	for i := range gc {
		if len(gc[i]) != len(bc[i]) {
			t.Fatalf("component %d size: grid %d, brute %d", i, len(gc[i]), len(bc[i]))
		}
		for j := range gc[i] {
			if gc[i][j] != bc[i][j] {
				t.Fatalf("component %d differs: grid %v, brute %v", i, gc[i], bc[i])
			}
		}
	}
}

// TestConnectivityIgnoresExtraChannelRadios pins that radios attached to
// the world's channel beyond its nodes (monitors, sniffers) neither crash
// nor join the node connectivity analysis on the grid path.
func TestConnectivityIgnoresExtraChannelRadios(t *testing.T) {
	w, err := NewWorld(WorldConfig{
		Nodes:  3,
		Static: []geometry.Vec2{{X: 0}, {X: 200}, {X: 400}},
	}, newFloodRouter)
	if err != nil {
		t.Fatal(err)
	}
	w.Channel.Attach(geometry.Vec2{X: 100}) // sniffer in the thick of it
	m := w.ConnectivityMatrix()
	if len(m) != 3 || !m[0][1] || !m[1][2] {
		t.Fatalf("matrix with sniffer attached = %v", m)
	}
	comps := w.ConnectedComponents()
	if len(comps) != 1 || len(comps[0]) != 3 {
		t.Fatalf("components with sniffer attached = %v", comps)
	}
}
