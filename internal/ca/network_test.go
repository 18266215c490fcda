package ca

import (
	"math/rand"
	"testing"

	"cavenet/internal/geometry"
)

func testGridNetwork(t *testing.T, rows, cols, vehicles int, seed int64, cfg GridNetworkConfig) *Network {
	t.Helper()
	grid, err := geometry.Manhattan(rows, cols, 150, geometry.Vec2{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Vehicles = vehicles
	net, err := NewGridNetwork(grid, cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestNetworkInvariants drives a signalized grid and checks, every step:
// vehicle conservation, distinct occupancy, velocity bounds, the
// displacement-equals-velocity contract across intersection hops, and the
// per-segment Σv capacity bound.
func TestNetworkInvariants(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		net := testGridNetwork(t, 3, 3, 40, seed, GridNetworkConfig{
			SlowdownP:   0.3,
			SignalGreen: 20,
			SignalRed:   15,
		})
		n := net.TotalVehicles()
		if n != 40 {
			t.Fatalf("seed %d: placed %d vehicles, want 40", seed, n)
		}
		vmax := net.VMax()
		prev := make([]NetVehicle, n)
		for i := 0; i < n; i++ {
			prev[i] = net.Vehicle(i)
		}
		for step := 0; step < 400; step++ {
			net.Step()
			counts := make([]int, net.NumSegments())
			sumV := make([]int, net.NumSegments())
			seen := make(map[[2]int]bool, n)
			for i := 0; i < n; i++ {
				v := net.Vehicle(i)
				if v.ID != i {
					t.Fatalf("seed %d step %d: vehicle %d reports ID %d", seed, step, i, v.ID)
				}
				if v.Vel < 0 || v.Vel > vmax {
					t.Fatalf("seed %d step %d: vehicle %d velocity %d outside [0,%d]", seed, step, i, v.Vel, vmax)
				}
				key := [2]int{v.Seg, v.Pos}
				if seen[key] {
					t.Fatalf("seed %d step %d: two vehicles on segment %d site %d", seed, step, v.Seg, v.Pos)
				}
				seen[key] = true
				counts[v.Seg]++
				sumV[v.Seg] += v.Vel
				// Displacement along the path must equal the velocity.
				p := prev[i]
				if v.Seg == p.Seg && v.Pos >= p.Pos {
					if v.Pos-p.Pos != v.Vel {
						t.Fatalf("seed %d step %d: vehicle %d moved %d sites at velocity %d",
							seed, step, i, v.Pos-p.Pos, v.Vel)
					}
				} else {
					if v.Seg != p.Next {
						t.Fatalf("seed %d step %d: vehicle %d hopped %d -> %d but had chosen %d",
							seed, step, i, p.Seg, v.Seg, p.Next)
					}
					d := net.SegmentLen(p.Seg) - p.Pos + v.Pos
					if d != v.Vel {
						t.Fatalf("seed %d step %d: vehicle %d crossed with displacement %d at velocity %d",
							seed, step, i, d, v.Vel)
					}
					ok := false
					for _, nx := range net.segs[p.Seg].spec.Next {
						if nx == v.Seg {
							ok = true
						}
					}
					if !ok {
						t.Fatalf("seed %d step %d: vehicle %d entered non-successor segment %d from %d",
							seed, step, i, v.Seg, p.Seg)
					}
				}
				prev[i] = v
			}
			if len(seen) != n {
				t.Fatalf("seed %d step %d: %d occupied sites for %d vehicles", seed, step, len(seen), n)
			}
			for s := 0; s < net.NumSegments(); s++ {
				if counts[s] != net.SegmentVehicles(s) {
					t.Fatalf("seed %d step %d: segment %d count %d vs reported %d",
						seed, step, s, counts[s], net.SegmentVehicles(s))
				}
				// Per-segment capacity sanity: intra-segment gaps sum to at
				// most L-N, and the exiting leader adds at most vmax.
				if limit := net.SegmentLen(s) - counts[s] + vmax; counts[s] > 0 && sumV[s] > limit {
					t.Fatalf("seed %d step %d: segment %d Σv = %d exceeds (L-N)+vmax = %d",
						seed, step, s, sumV[s], limit)
				}
			}
		}
	}
}

// TestNetworkTurnsMixTraffic proves vehicles actually take different
// turns: after enough steps, vehicles initially on segment 0 have spread
// over several segments.
func TestNetworkTurnsMixTraffic(t *testing.T) {
	net := testGridNetwork(t, 3, 3, 30, 7, GridNetworkConfig{SlowdownP: 0.1})
	visited := make(map[int]bool)
	for step := 0; step < 300; step++ {
		net.Step()
		visited[net.Vehicle(0).Seg] = true
	}
	if len(visited) < 3 {
		t.Fatalf("vehicle 0 visited only %d segments in 300 steps", len(visited))
	}
}

// TestNetworkSignalsGateExits freezes a red light forever and checks no
// vehicle ever leaves its segment, while the unsignalized copy mixes.
func TestNetworkSignalsGateExits(t *testing.T) {
	grid, err := geometry.Manhattan(2, 2, 150, geometry.Vec2{})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]SegmentSpec, len(grid.Segments))
	for i, gs := range grid.Segments {
		specs[i] = SegmentSpec{
			Length:    20,
			Placement: segmentLine(gs, 20),
			Next:      grid.Outgoing[gs.To],
			// Offset puts the whole horizon inside the red phase.
			ExitSignal: &Signal{GreenSteps: 1, RedSteps: 10000, Offset: 1},
		}
	}
	net, err := NewNetwork(NetworkConfig{Segments: specs, Vehicles: 8}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	home := make([]int, net.TotalVehicles())
	for i := range home {
		home[i] = net.Vehicle(i).Seg
	}
	for step := 0; step < 100; step++ {
		net.Step()
		for i := range home {
			if got := net.Vehicle(i).Seg; got != home[i] {
				t.Fatalf("step %d: vehicle %d crossed a red light (%d -> %d)", step, i, home[i], got)
			}
		}
	}
}

// TestNetworkDeterministic: same seed, same trajectory; the per-vehicle
// RNG forking makes this exact.
func TestNetworkDeterministic(t *testing.T) {
	run := func() []NetVehicle {
		net := testGridNetwork(t, 3, 4, 35, 11, GridNetworkConfig{
			SlowdownP:   0.3,
			SignalGreen: 10,
			SignalRed:   10,
		})
		for i := 0; i < 200; i++ {
			net.Step()
		}
		out := make([]NetVehicle, net.TotalVehicles())
		for i := range out {
			out[i] = net.Vehicle(i)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("vehicle %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestNetworkPositionsContinuous checks the plane-motion contract the
// trace watcher relies on: between consecutive steps no vehicle jumps
// farther than vmax sites of plane distance (plus rounding slack), even
// across intersection hops.
func TestNetworkPositionsContinuous(t *testing.T) {
	net := testGridNetwork(t, 3, 3, 40, 5, GridNetworkConfig{SlowdownP: 0.3, SignalGreen: 8, SignalRed: 8})
	maxStep := float64(net.VMax())*CellLength + 1
	prev := net.Positions(nil)
	for step := 0; step < 300; step++ {
		net.Step()
		cur := net.Positions(nil)
		for i := range cur {
			if d := cur[i].Dist(prev[i]); d > maxStep {
				t.Fatalf("step %d: vehicle %d jumped %.2f m (> %.2f)", step, i, d, maxStep)
			}
		}
		prev = cur
	}
}

func TestNetworkConfigValidation(t *testing.T) {
	line := geometry.Line{Transform: geometry.Translate(0, 0)}
	if _, err := NewNetwork(NetworkConfig{}, nil); err == nil {
		t.Error("empty network accepted")
	}
	if _, err := NewNetwork(NetworkConfig{
		Segments: []SegmentSpec{{Length: 3, Placement: line, Next: []int{0}}},
	}, nil); err == nil {
		t.Error("segment shorter than vmax+1 accepted")
	}
	if _, err := NewNetwork(NetworkConfig{
		Segments: []SegmentSpec{{Length: 20, Placement: line}},
	}, nil); err == nil {
		t.Error("successor-less segment accepted")
	}
	if _, err := NewNetwork(NetworkConfig{
		Segments: []SegmentSpec{{Length: 20, Placement: line, Next: []int{5}}},
	}, nil); err == nil {
		t.Error("out-of-range successor accepted")
	}
	if _, err := NewNetwork(NetworkConfig{
		Segments: []SegmentSpec{{Length: 20, Placement: line, Next: []int{0}}},
		Vehicles: 11,
	}, nil); err == nil {
		t.Error("over-capacity vehicle count accepted")
	}
	// A deterministic single-loop network needs no RNG.
	if _, err := NewNetwork(NetworkConfig{
		Segments: []SegmentSpec{{Length: 20, Placement: line, Next: []int{0}}},
		Vehicles: 5,
	}, nil); err != nil {
		t.Errorf("deterministic network rejected: %v", err)
	}
}
