package ca

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"cavenet/internal/geometry"
)

// lanePair is a Lane and the reference lane built from the same config and
// seed, advanced in lockstep.
type lanePair struct {
	got      *Lane
	want     *refLane
	gr, wr   *rand.Rand
	occ, ref []int
}

func newLanePair(t testing.TB, cfg Config, seed int64) *lanePair {
	t.Helper()
	p := &lanePair{gr: rand.New(rand.NewSource(seed)), wr: rand.New(rand.NewSource(seed))}
	var err, refErr error
	p.got, err = NewLane(cfg, p.gr)
	p.want, refErr = newRefLane(cfg, p.wr)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("config %+v: NewLane err %v, reference err %v", cfg, err, refErr)
	}
	if err != nil {
		return nil
	}
	return p
}

func (p *lanePair) step() {
	p.got.Step()
	p.want.Step()
}

func (p *lanePair) addSignal(t testing.TB, s Signal) {
	t.Helper()
	err, refErr := p.got.AddSignal(s), p.want.AddSignal(s)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("AddSignal(%+v): err %v, reference err %v", s, err, refErr)
	}
}

// compareCheap checks everything that does not materialise gaps — so a run
// that only calls it leaves Step to compute them itself, the BA path — and
// that the two random streams are at the same point.
func (p *lanePair) compareCheap(t testing.TB, when string) {
	t.Helper()
	p.occ, p.ref = p.got.Occupancy(p.occ), p.want.Occupancy(p.ref)
	if !slices.Equal(p.occ, p.ref) {
		t.Fatalf("%s: occupancy\n got %v\nwant %v", when, p.occ, p.ref)
	}
	if g, w := p.got.MeanVelocity(), p.want.MeanVelocity(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("%s: mean velocity %v, reference %v", when, g, w)
	}
	if g, w := p.got.Flow(), p.want.Flow(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("%s: flow %v, reference %v", when, g, w)
	}
	if g, w := p.gr.Int63(), p.wr.Int63(); g != w {
		t.Fatalf("%s: next random output %d, reference %d — the draw streams diverged", when, g, w)
	}
}

// compareVehicles checks every vehicle structure in logical order, through
// both accessors.
func (p *lanePair) compareVehicles(t testing.TB, when string) {
	t.Helper()
	if g, w := p.got.NumVehicles(), p.want.NumVehicles(); g != w {
		t.Fatalf("%s: %d vehicles, reference %d", when, g, w)
	}
	all := p.got.Vehicles(nil)
	for i, w := range p.want.Vehicles(nil) {
		if all[i] != w || p.got.Vehicle(i) != w {
			t.Fatalf("%s: vehicle %d: Vehicles %+v, Vehicle %+v, reference %+v", when, i, all[i], p.got.Vehicle(i), w)
		}
		if g, want := p.got.PositionMeters(i), (float64(w.Laps)*float64(p.want.Len())+float64(w.Pos))*CellLength; g != want {
			t.Fatalf("%s: vehicle %d: PositionMeters %v, want %v", when, i, g, want)
		}
	}
}

func randomSignal(rnd *rand.Rand, length int) Signal {
	s := Signal{Site: rnd.Intn(length), GreenSteps: 1 + rnd.Intn(6), RedSteps: 1 + rnd.Intn(6)}
	switch rnd.Intn(3) {
	case 0:
		s.Site = 0
	case 1:
		s.Offset = rnd.Intn(20) - 5
	}
	return s
}

// TestLaneMatchesReference runs the array kernel and the per-vehicle
// reference in lockstep over random lanes — every boundary, placement and
// slowdown regime, empty to full, vmax from crawling to longer than the
// lane, signals installed up front and mid-run — and requires the same
// state and the same position in the random stream after every step.
// Vehicles (and so the materialised Gap) are read every step on some lanes
// and only every few steps on others: the two schedules exercise fresh and
// stale gaps at the top of Step.
func TestLaneMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(19))
	for c := 0; c < 400; c++ {
		length := 1 + rnd.Intn(300)
		cfg := Config{
			Length:    length,
			Vehicles:  rnd.Intn(length + 1),
			VMax:      rnd.Intn(8),
			SlowdownP: []float64{0, 0.3, 1}[rnd.Intn(3)],
			Boundary:  []Boundary{RingBoundary, OpenBoundary}[rnd.Intn(2)],
			Placement: []Placement{EvenPlacement, RandomPlacement, CompactPlacement}[rnd.Intn(3)],
		}
		switch rnd.Intn(8) {
		case 0:
			cfg.Vehicles = length // full lane
		case 1:
			cfg.Vehicles = min(rnd.Intn(3), length) // 0, 1, 2
		case 2:
			cfg.VMax = length + rnd.Intn(3) // faster than the lane is long
		}
		if vmax := cfg.VMax; vmax > 0 {
			cfg.InitialVel = rnd.Intn(vmax + 1)
		}
		p := newLanePair(t, cfg, int64(c))
		for s := rnd.Intn(4); s > 0; s-- {
			p.addSignal(t, randomSignal(rnd, length))
		}
		steps := 40 + rnd.Intn(160)
		addAt, readEvery := rnd.Intn(steps), 1+rnd.Intn(4)*rnd.Intn(2)
		p.compareVehicles(t, "at construction")
		for s := 0; s < steps; s++ {
			if s == addAt {
				p.addSignal(t, randomSignal(rnd, length))
				if rnd.Intn(2) == 0 { // a reader right after AddSignal sees the old gaps
					p.compareVehicles(t, "after AddSignal")
				}
			}
			p.step()
			when := describe(cfg, c, s)
			p.compareCheap(t, when)
			if s%readEvery == 0 || s == steps-1 {
				p.compareVehicles(t, when)
			}
		}
	}
}

func describe(cfg Config, c, step int) string {
	return fmt.Sprintf("config %d (%v L=%d n=%d vmax=%d p=%v) step %d",
		c, cfg.Boundary, cfg.Length, cfg.Vehicles, cfg.VMax, cfg.SlowdownP, step)
}

// TestWrapMovesHeadOnly pins the order part of the lemma on hand-built
// lanes: a platoon crossing the seam wraps one vehicle per step at most (the
// follower is held behind its leader's old site, which is < L), each wrap
// makes the wrapped slot the head and moves no data, and logical order,
// laps and the wrap gap stay those of the reference throughout.
func TestWrapMovesHeadOnly(t *testing.T) {
	cfg := Config{Length: 20, Vehicles: 4, Placement: CompactPlacement}
	p := newLanePair(t, cfg, 0)
	// Platoon at 14, 16, 18, 19: the leader wraps first, the rest follow
	// one per step while the tail still looks across the seam.
	for i, pos := range []int{14, 16, 18, 19} {
		p.got.cells[p.got.pos[i]], p.want.cells[p.want.vehicles[i].Pos] = -1, -1
		p.got.pos[i], p.want.vehicles[i].Pos = int32(pos), pos
		p.got.vel[i], p.want.vehicles[i].Vel = 2, 2
	}
	p.got.velSum = 8
	for i, pos := range []int{14, 16, 18, 19} {
		p.got.cells[pos], p.want.cells[pos] = int32(i), i
	}
	ids := slices.Clone(p.got.id)
	laps := func() (sum int) {
		for _, l := range p.got.laps {
			sum += int(l)
		}
		return sum
	}
	for s := 0; s < 60; s++ {
		before := laps()
		p.step()
		wraps := laps()
		if wraps-before > 1 {
			t.Fatalf("step %d: %d vehicles wrapped in one step", s, wraps-before)
		}
		if !slices.Equal(p.got.id, ids) {
			t.Fatalf("step %d: slots moved: ids %v, were %v", s, p.got.id, ids)
		}
		if want := ((-wraps)%4 + 4) % 4; p.got.head != want {
			t.Fatalf("step %d: head %d after %d wraps, want %d", s, p.got.head, wraps, want)
		}
		p.compareCheap(t, "step "+strconv.Itoa(s))
		p.compareVehicles(t, "step "+strconv.Itoa(s))
	}
	if laps() < 8 {
		t.Fatalf("only %d wraps in 60 steps; the case no longer exercises the seam", laps())
	}
}

// TestGapsMaterialiseAtTheRightStep pins the stamp/materialise contract:
// a reader after AddSignal still sees the gaps of the last move, the next
// Step sees the new signal, and a read between two steps does not change
// what the second one does.
func TestGapsMaterialiseAtTheRightStep(t *testing.T) {
	cfg := Config{Length: 30, Vehicles: 3, Placement: CompactPlacement}
	red := Signal{Site: 8, GreenSteps: 1, RedSteps: 1000, Offset: 1}
	for _, readFirst := range []bool{false, true} {
		p := newLanePair(t, cfg, 0)
		p.step()
		if readFirst {
			p.compareVehicles(t, "before AddSignal")
		}
		p.addSignal(t, red)
		if g := p.got.Vehicle(2).Gap; g != 26 {
			t.Fatalf("readFirst=%v: leader gap %d right after AddSignal, want the pre-signal 26", readFirst, g)
		}
		p.compareVehicles(t, "after AddSignal")
		p.step()
		if g := p.got.Vehicle(2).Gap; g >= 6 {
			t.Fatalf("readFirst=%v: leader gap %d one step later ignores the red signal", readFirst, g)
		}
		for s := 0; s < 20; s++ {
			p.compareVehicles(t, "step "+strconv.Itoa(s))
			p.step()
			p.compareCheap(t, "step "+strconv.Itoa(s))
		}
	}
}

func pairedRoads(t testing.TB, lanes, length int, seed int64) (*Road, *refRoad) {
	t.Helper()
	rnd := rand.New(rand.NewSource(seed))
	specs := make([]LaneSpec, lanes)
	for i := range specs {
		specs[i] = LaneSpec{
			Config: Config{
				Length:    length,
				Vehicles:  rnd.Intn(length/2 + 1),
				SlowdownP: []float64{0, 0.3}[rnd.Intn(2)],
				Placement: RandomPlacement,
			},
			Placement: geometry.Line{Transform: geometry.Translate(0, float64(i)*4)},
		}
		for s := rnd.Intn(3); s > 0; s-- {
			specs[i].Signals = append(specs[i].Signals, randomSignal(rnd, length))
		}
	}
	road, err := NewRoad(specs, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefRoad(specs, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return road, ref
}

// TestRoadMatchesReference steps coupled ring roads (2–4 lanes, signals,
// lane changes) against the reference road: the same vehicles on the same
// lanes in the same logical order with the same gaps, the same plane
// positions by persistent ID, and every random stream — the lanes' and the
// lane-change rule's — at the same point, after every step. Some roads are
// stepped uncoupled first, so coupling starts from rotated lanes.
func TestRoadMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		lanes, length := 2+int(seed%3), 40+int(seed)*7
		road, ref := pairedRoads(t, lanes, length, seed)
		lcRnd, refLcRnd := rand.New(rand.NewSource(seed+100)), rand.New(rand.NewSource(seed+100))
		compare := func(when string) {
			t.Helper()
			for li := range road.lanes {
				p := lanePair{got: road.lanes[li], want: ref.lanes[li], gr: road.lanes[li].rnd, wr: ref.lanes[li].rnd}
				p.compareCheap(t, when+" lane "+strconv.Itoa(li))
				p.compareVehicles(t, when+" lane "+strconv.Itoa(li))
			}
			if g, w := road.Positions(nil), ref.Positions(nil); !slices.Equal(g, w) {
				t.Fatalf("%s: positions\n got %v\nwant %v", when, g, w)
			}
			if g, w := lcRnd.Int63(), refLcRnd.Int63(); g != w {
				t.Fatalf("%s: lane-change stream diverged", when)
			}
		}
		for s := int(seed % 4 * 15); s > 0; s-- {
			road.Step()
			ref.Step()
		}
		compare("seed " + strconv.Itoa(int(seed)) + " before coupling")
		lc := LaneChange{P: []float64{0.4, 1}[seed%2]}
		if err := road.EnableLaneChanges(lc, lcRnd); err != nil {
			t.Fatal(err)
		}
		if err := ref.EnableLaneChanges(lc, refLcRnd); err != nil {
			t.Fatal(err)
		}
		moved := false
		for s := 0; s < 150; s++ {
			before := road.lanes[0].NumVehicles()
			road.Step()
			ref.Step()
			moved = moved || road.lanes[0].NumVehicles() != before
			if s%3 != 1 { // leave some steps unread: stale gaps into applyLaneChanges
				compare("seed " + strconv.Itoa(int(seed)) + " step " + strconv.Itoa(s))
			}
		}
		if seed == 1 && !moved {
			t.Fatal("no lane change happened; the test is ineffective")
		}
	}
}

// TestLaneStepAllocFree: a step allocates nothing on either boundary, red
// signal or not (the open boundary used to build a map per step).
func TestLaneStepAllocFree(t *testing.T) {
	for _, b := range []Boundary{RingBoundary, OpenBoundary} {
		lane, err := NewLane(Config{Length: 300, Vehicles: 90, SlowdownP: 0.3, Boundary: b, Placement: RandomPlacement},
			rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		if err := lane.AddSignal(Signal{Site: 150, GreenSteps: 5, RedSteps: 5}); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(300, lane.Step); a != 0 {
			t.Fatalf("%v lane: %v allocs per step, want 0", b, a)
		}
		laps := 0
		for i := 0; i < lane.NumVehicles(); i++ {
			laps += lane.Vehicle(i).Laps
		}
		if laps == 0 {
			t.Fatalf("%v lane: nobody crossed the lane end; the test is ineffective", b)
		}
	}
}

// TestRoadStepAllocFree: a coupled road in steady state — lane changes
// happening, positions read every step — allocates nothing per step.
func TestRoadStepAllocFree(t *testing.T) {
	road := coupledRoad(t, 4, 200, 60, 0.5, 5)
	var pos []geometry.Vec2
	step := func() {
		road.Step()
		pos = road.Positions(pos[:0])
	}
	for i := 0; i < 400; i++ { // warm-up: lane arrays reach their working capacity
		step()
	}
	before := road.Lane(0).NumVehicles()
	changed := false
	allocs := testing.AllocsPerRun(300, func() {
		step()
		changed = changed || road.Lane(0).NumVehicles() != before
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per coupled step, want 0", allocs)
	}
	if !changed {
		t.Fatal("no lane change in the measured window; the test is ineffective")
	}
}

// FuzzLaneDifferential decodes a config and a script of steps, AddSignals
// and accessor reads from the input and runs it on both lanes in lockstep.
func FuzzLaneDifferential(f *testing.F) {
	f.Add([]byte{40, 12, 5, 1, 0, 2, 0, 0, 3, 0, 0, 2, 7, 1, 3, 0, 0, 3})
	f.Add([]byte{9, 9, 3, 2, 5, 0, 0, 3, 0, 3, 0, 3})
	f.Add([]byte{63, 1, 8, 0, 3, 4, 2, 0, 2, 2, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 3})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 6 {
			return
		}
		length := 1 + int(in[0])%64
		cfg := Config{
			Length:    length,
			Vehicles:  int(in[1]) % (length + 1),
			VMax:      int(in[2]) % 10,
			SlowdownP: []float64{0, 0.3, 1}[in[3]%3],
			Boundary:  Boundary(1 + in[4]%2),
			Placement: Placement(1 + in[4]/2%3),
		}
		if cfg.VMax == 9 {
			cfg.VMax = length + 1
		}
		if cfg.VMax > 0 {
			cfg.InitialVel = int(in[5]) % (cfg.VMax + 1)
		}
		p := newLanePair(t, cfg, int64(in[0])<<8|int64(in[1]))
		script := in[6:]
		for i := 0; i < len(script); i++ {
			switch op := script[i]; {
			case op%4 == 2 && i+3 < len(script):
				p.addSignal(t, Signal{
					Site:       int(script[i+1]) % length,
					GreenSteps: 1 + int(script[i+2])%5,
					RedSteps:   1 + int(script[i+3])%5,
					Offset:     int(op) / 4,
				})
				i += 3
			case op%4 == 3:
				p.compareVehicles(t, "read "+strconv.Itoa(i))
			default:
				p.step()
				p.compareCheap(t, "op "+strconv.Itoa(i))
			}
		}
		p.compareVehicles(t, "end of script")
	})
}
