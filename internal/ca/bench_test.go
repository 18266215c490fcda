package ca

import (
	"math/rand"
	"testing"

	"cavenet/internal/geometry"
)

func benchConfig(rho, p float64) Config {
	return Config{Length: 1000, Vehicles: int(rho * 1000), SlowdownP: p, Placement: RandomPlacement}
}

func benchLane(b *testing.B, rho, p float64) *Lane {
	b.Helper()
	lane, err := NewLane(benchConfig(rho, p), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return lane
}

// benchSteps times step b.N times and reports the ledger's unit
// (ca.ns_per_vehicle_step) next to ns/op.
func benchSteps(b *testing.B, vehicles int, step func()) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*vehicles), "ns/vehicle-step")
}

// benchKernelAndReference runs one lane shape on the array kernel and on
// the per-vehicle reference it replaced.
func benchKernelAndReference(b *testing.B, cfg Config, signals ...Signal) {
	type lane interface {
		Step()
		AddSignal(Signal) error
	}
	run := func(name string, build func(*rand.Rand) (lane, error)) {
		b.Run(name, func(b *testing.B) {
			l, err := build(rand.New(rand.NewSource(1)))
			for _, s := range signals {
				if err == nil {
					err = l.AddSignal(s)
				}
			}
			if err != nil {
				b.Fatal(err)
			}
			benchSteps(b, cfg.Vehicles, l.Step)
		})
	}
	run("kernel", func(r *rand.Rand) (lane, error) { return NewLane(cfg, r) })
	run("reference", func(r *rand.Rand) (lane, error) { return newRefLane(cfg, r) })
}

func BenchmarkLaneStepFreeFlow(b *testing.B) { benchKernelAndReference(b, benchConfig(0.1, 0.3)) }

func BenchmarkLaneStepCongested(b *testing.B) { benchKernelAndReference(b, benchConfig(0.5, 0.3)) }

func BenchmarkLaneStepDeterministic(b *testing.B) { benchKernelAndReference(b, benchConfig(0.2, 0)) }

func BenchmarkLaneWithSignal(b *testing.B) {
	benchKernelAndReference(b, benchConfig(0.3, 0.3), Signal{Site: 500, GreenSteps: 30, RedSteps: 30})
}

func BenchmarkOccupancySnapshot(b *testing.B) {
	lane := benchLane(b, 0.3, 0.3)
	buf := make([]int, lane.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = lane.Occupancy(buf)
	}
}

var benchFlow float64

// BenchmarkFundamentalPoint is the ba_fundamental shape: one trial of its
// 20-density grid, an L = 2000 lane at p = 0.3 per point, 100 warm-up and
// 500 measured steps each.
func BenchmarkFundamentalPoint(b *testing.B) {
	const length, warmup, measure = 2000, 100, 500
	vehicleSteps := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vehicleSteps = 0
		for d := 1; d <= 20; d++ {
			n := length * d / 40
			lane, err := NewLane(Config{Length: length, Vehicles: n, SlowdownP: 0.3, Placement: RandomPlacement},
				rand.New(rand.NewSource(int64(d))))
			if err != nil {
				b.Fatal(err)
			}
			benchFlow += FundamentalPoint(lane, warmup, measure)
			vehicleSteps += n * (warmup + measure)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*vehicleSteps), "ns/vehicle-step")
}

// BenchmarkRoadStepCoupled is the metro2k mobility shape: four coupled
// 500-site ring lanes, two of them signalised, positions read every step.
func BenchmarkRoadStepCoupled(b *testing.B) {
	specs := make([]LaneSpec, 4)
	for i := range specs {
		specs[i] = LaneSpec{
			Config:    Config{Length: 500, Vehicles: 150, SlowdownP: 0.3, Placement: RandomPlacement},
			Placement: geometry.Line{Transform: geometry.Translate(0, float64(i)*4)},
		}
		if i%2 == 0 {
			specs[i].Signals = []Signal{{Site: 250, GreenSteps: 20, RedSteps: 10}}
		}
	}
	type road interface {
		Step()
		EnableLaneChanges(LaneChange, *rand.Rand) error
		TotalVehicles() int
		Positions([]geometry.Vec2) []geometry.Vec2
	}
	var pos []geometry.Vec2
	run := func(name string, build func(*rand.Rand) (road, error)) {
		b.Run(name, func(b *testing.B) {
			r, err := build(rand.New(rand.NewSource(1)))
			if err == nil {
				err = r.EnableLaneChanges(LaneChange{P: 0.5}, rand.New(rand.NewSource(2)))
			}
			if err != nil {
				b.Fatal(err)
			}
			benchSteps(b, r.TotalVehicles(), func() {
				r.Step()
				pos = r.Positions(pos[:0])
			})
		})
	}
	run("kernel", func(r *rand.Rand) (road, error) { return NewRoad(specs, r) })
	run("reference", func(r *rand.Rand) (road, error) { return newRefRoad(specs, r) })
}
