package ca

// The per-vehicle NaS lane and the coupled road exactly as they stood before
// the array kernel (PR 19): one []Vehicle kept sorted by rotating it, gaps
// refreshed before and after every step, rules 1, 2 and 2' applied vehicle
// by vehicle. It is the differential reference for Lane and Road — chosen
// by the tests and micro-benchmarks of this package only — and is kept
// verbatim: do not optimise it.

import (
	"fmt"
	"math/rand"
	"slices"

	"cavenet/internal/geometry"
)

// Lane is one NaS lane: the vector L_n of the paper plus the vehicle
// structures. All updates are parallel (synchronous), per footnote 1 of the
// paper.
type refLane struct {
	cfg      Config
	cells    []int // vehicle index occupying each site, or -1
	vehicles []Vehicle
	step     int
	rnd      *rand.Rand
	signals  []Signal
}

// NewLane builds a lane from cfg using rnd for the stochastic rule and for
// random placement. rnd may be nil when cfg is fully deterministic
// (SlowdownP == 0 and Placement != RandomPlacement).
func newRefLane(cfg Config, rnd *rand.Rand) (*refLane, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if rnd == nil && (cfg.SlowdownP > 0 || cfg.Placement == RandomPlacement) {
		return nil, fmt.Errorf("ca: config requires randomness but rnd is nil")
	}
	l := &refLane{
		cfg:      cfg,
		cells:    make([]int, cfg.Length),
		vehicles: make([]Vehicle, cfg.Vehicles),
		rnd:      rnd,
	}
	for i := range l.cells {
		l.cells[i] = -1
	}
	positions, err := initialPositions(cfg, rnd)
	if err != nil {
		return nil, err
	}
	for i, pos := range positions {
		l.vehicles[i] = Vehicle{ID: i, Pos: pos, Vel: cfg.InitialVel}
		l.cells[pos] = i
	}
	l.refreshGaps()
	return l, nil
}

// Vehicle returns a copy of the i-th vehicle structure.
func (l *refLane) Vehicle(i int) Vehicle { return l.vehicles[i] }

// Vehicles appends copies of all vehicle structures to dst and returns it.
func (l *refLane) Vehicles(dst []Vehicle) []Vehicle {
	return append(dst, l.vehicles...)
}

// Occupancy returns the site vector: for each site, the velocity of the
// occupying vehicle or -1 when empty (the paper's L_{i,n} encoding).
func (l *refLane) Occupancy(dst []int) []int {
	if cap(dst) < len(l.cells) {
		dst = make([]int, len(l.cells))
	}
	dst = dst[:len(l.cells)]
	for i, v := range l.cells {
		if v < 0 {
			dst[i] = -1
		} else {
			dst[i] = l.vehicles[v].Vel
		}
	}
	return dst
}

// refreshGaps recomputes the Gap field of every vehicle. Vehicles are kept
// sorted by position at all times (overtaking is impossible in 1-D).
func (l *refLane) refreshGaps() {
	n := len(l.vehicles)
	if n == 0 {
		return
	}
	if n == 1 {
		// A lone vehicle is never gap-limited: a ring shows it the whole
		// lane, an open lane has open road past the end.
		if l.cfg.Boundary == RingBoundary {
			l.vehicles[0].Gap = l.cfg.Length - 1
		} else {
			l.vehicles[0].Gap = l.cfg.VMax
		}
		l.applySignals()
		return
	}
	for i := 0; i < n; i++ {
		cur := l.vehicles[i].Pos
		var ahead int
		if i == n-1 {
			if l.cfg.Boundary == RingBoundary {
				ahead = l.vehicles[0].Pos + l.cfg.Length
			} else {
				// Leader of an open lane: the end is open road, so the
				// leader is never gap-limited. It drives off the end and is
				// shifted back to the beginning (see Step).
				l.vehicles[i].Gap = l.cfg.VMax
				continue
			}
		} else {
			ahead = l.vehicles[i+1].Pos
		}
		l.vehicles[i].Gap = ahead - cur - 1
	}
	l.applySignals()
}

// Step advances the lane by one time step, applying the NaS rules in
// parallel to every vehicle.
func (l *refLane) Step() {
	l.refreshGaps()
	n := len(l.vehicles)
	vmax := l.cfg.VMax
	// Phase 1: velocity update (rules 1, 2, 2') for all vehicles, using the
	// time-n state only — this is the parallel update of footnote 1.
	for i := 0; i < n; i++ {
		v := &l.vehicles[i]
		nv := v.Vel + 1
		if nv > vmax {
			nv = vmax
		}
		if nv > v.Gap {
			nv = v.Gap
		}
		if l.cfg.SlowdownP > 0 && nv > 0 && l.rnd.Float64() < l.cfg.SlowdownP {
			nv--
		}
		v.Vel = nv
	}
	// Phase 2: motion (rule 3).
	for i := range l.cells {
		l.cells[i] = -1
	}
	switch l.cfg.Boundary {
	case RingBoundary:
		for i := 0; i < n; i++ {
			v := &l.vehicles[i]
			p := v.Pos + v.Vel
			if p >= l.cfg.Length {
				p -= l.cfg.Length
				v.Laps++
			}
			v.Pos = p
		}
		// Positions may have wrapped; restore sorted order by rotating the
		// slice so the smallest position comes first. Relative order is
		// preserved because vehicles cannot pass each other.
		l.restoreOrder()
	case OpenBoundary:
		// First-version CAVENET: a vehicle that runs off the right end is
		// shifted back to the beginning of the line (paper §III-B). It
		// restarts from the first free site with velocity zero — the
		// "delay" the paper attributes to this scheme. Only the leader can
		// cross the boundary in a given step (followers are gap-limited by
		// the leader's previous position), so a single scan suffices.
		wrapped := -1
		for i := 0; i < n; i++ {
			v := &l.vehicles[i]
			p := v.Pos + v.Vel
			if p >= l.cfg.Length {
				wrapped = i
				continue
			}
			v.Pos = p
		}
		occupied := make(map[int]bool, n)
		for i := 0; i < n; i++ {
			if i != wrapped {
				occupied[l.vehicles[i].Pos] = true
			}
		}
		if wrapped >= 0 {
			v := &l.vehicles[wrapped]
			site := 0
			for occupied[site] {
				site++
			}
			v.Pos = site
			v.Vel = 0
			v.Laps++
		}
		// The re-inserted vehicle may land between tail vehicles, so a
		// rotation is not enough: fully re-sort by position. Stability
		// keeps IDs deterministic.
		l.sortByPosition()
	}
	for i := 0; i < n; i++ {
		l.cells[l.vehicles[i].Pos] = i
	}
	l.step++
	l.refreshGaps()
}

// sortByPosition re-sorts vehicles ascending by position (insertion sort;
// the slice is nearly sorted already).
func (l *refLane) sortByPosition() {
	vs := l.vehicles
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j-1].Pos > vs[j].Pos; j-- {
			vs[j-1], vs[j] = vs[j], vs[j-1]
		}
	}
}

// restoreOrder rotates l.vehicles so positions are ascending again after a
// wrap-around. Because overtaking is impossible the sequence is always a
// rotation of a sorted sequence.
func (l *refLane) restoreOrder() {
	n := len(l.vehicles)
	if n < 2 {
		return
	}
	pivot := -1
	for i := 1; i < n; i++ {
		if l.vehicles[i].Pos < l.vehicles[i-1].Pos {
			pivot = i
			break
		}
	}
	if pivot < 0 {
		return
	}
	// Rotate left by pivot in place (three reversals): wraps happen nearly
	// every step on a busy lane, so this must not allocate.
	reverseVehicles(l.vehicles[:pivot])
	reverseVehicles(l.vehicles[pivot:])
	reverseVehicles(l.vehicles)
}

func reverseVehicles(v []Vehicle) {
	for i, j := 0, len(v)-1; i < j; i, j = i+1, j-1 {
		v[i], v[j] = v[j], v[i]
	}
}

// MeanVelocity reports v̄(t) = N⁻¹ Σ v_i in sites per step; zero when the
// lane is empty.
func (l *refLane) MeanVelocity() float64 {
	if len(l.vehicles) == 0 {
		return 0
	}
	sum := 0
	for i := range l.vehicles {
		sum += l.vehicles[i].Vel
	}
	return float64(sum) / float64(len(l.vehicles))
}

// Flow reports J = ρ·v̄, the fundamental-diagram quantity of Fig. 4, in
// vehicles per step per site.
func (l *refLane) Flow() float64 { return l.Density() * l.MeanVelocity() }

// AddSignal installs a traffic signal on the lane. Signals apply from the
// next step onward.
func (l *refLane) AddSignal(s Signal) error {
	if err := s.validate(l.cfg.Length); err != nil {
		return err
	}
	l.signals = append(l.signals, s)
	return nil
}

// applySignals caps each vehicle's gap so that nobody enters a red site
// this step. Called from refreshGaps after the car-following gaps are set.
func (l *refLane) applySignals() {
	if len(l.signals) == 0 {
		return
	}
	length := l.cfg.Length
	for si := range l.signals {
		sig := &l.signals[si]
		if !sig.RedAt(l.step) {
			continue
		}
		for i := range l.vehicles {
			v := &l.vehicles[i]
			dist := sig.Site - v.Pos
			if l.cfg.Boundary == RingBoundary {
				if dist < 0 {
					dist += length
				}
			} else if dist < 0 {
				continue // signal behind the vehicle on an open lane
			}
			if dist == 0 {
				continue // already on the site; it may leave
			}
			if limit := dist - 1; limit < v.Gap {
				v.Gap = limit
			}
		}
	}
}

// Road is a set of lanes simulated side by side. Lanes are independent NaS
// automata unless lane-change coupling is enabled (EnableLaneChanges); the
// road exists so that connectivity and interference across lanes can be
// analyzed and so that multi-lane traces can be exported.
type refRoad struct {
	lanes     []*refLane
	specs     []LaneSpec
	stepCount int

	// Lane-change coupling state (nil/false when disabled).
	coupled bool
	lc      LaneChange
	lcRnd   *rand.Rand
}

// NewRoad builds a road from lane specs. Each lane receives its own RNG
// stream split from rnd so per-lane randomness is independent.
func newRefRoad(specs []LaneSpec, rnd *rand.Rand) (*refRoad, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("ca: road needs at least one lane")
	}
	r := &refRoad{specs: make([]LaneSpec, len(specs))}
	copy(r.specs, specs)
	for i, spec := range specs {
		var laneRnd *rand.Rand
		if rnd != nil {
			laneRnd = rand.New(rand.NewSource(rnd.Int63()))
		}
		lane, err := newRefLane(spec.Config, laneRnd)
		if err != nil {
			return nil, fmt.Errorf("ca: lane %d: %w", i, err)
		}
		for _, sig := range spec.Signals {
			if err := lane.AddSignal(sig); err != nil {
				return nil, fmt.Errorf("ca: lane %d: %w", i, err)
			}
		}
		r.lanes = append(r.lanes, lane)
	}
	return r, nil
}

// Step advances every lane by one time step. With lane-change coupling
// enabled, sideways moves are applied (from the time-n state, in parallel)
// before the per-lane NaS rules.
func (r *refRoad) Step() {
	if r.coupled {
		r.applyLaneChanges()
	}
	for _, l := range r.lanes {
		l.Step()
	}
	r.stepCount++
}

// TotalVehicles reports the vehicle count across all lanes.
func (r *refRoad) TotalVehicles() int {
	n := 0
	for _, l := range r.lanes {
		n += l.NumVehicles()
	}
	return n
}

// Positions appends the absolute plane position of every vehicle on the
// road, in global-ID order, to dst.
//
// The global ID is the *persistent vehicle identity* — lane 0's vehicles
// in their initial-position order, then lane 1's, and so on (Vehicle.ID
// plus the lane's offset; on a coupled road Vehicle.ID is already global).
// Indexing by the lanes' position-sorted slices instead would silently
// reassign identities every time a wrap-around rotates a lane's vehicle
// order — every recorded node would teleport to its neighbor's position
// mid-trace, which is exactly the violation the scenario invariant
// harness caught.
func (r *refRoad) Positions(dst []geometry.Vec2) []geometry.Vec2 {
	base := len(dst)
	for i := 0; i < r.TotalVehicles(); i++ {
		dst = append(dst, geometry.Vec2{})
	}
	laneBase := 0
	for li, l := range r.lanes {
		spec := r.specs[li]
		circuit := float64(l.Len()) * CellLength
		for vi := 0; vi < l.NumVehicles(); vi++ {
			v := l.Vehicle(vi)
			x := float64(v.Pos) * CellLength
			if spec.Reversed {
				x = circuit - x
			}
			id := v.ID
			if !r.coupled {
				id += laneBase
			}
			dst[base+id] = spec.Placement.Place(x)
		}
		if !r.coupled {
			laneBase += l.NumVehicles()
		}
	}
	return dst
}

// EnableLaneChanges couples the road's lanes with the given rule. It
// requires ≥ 2 lanes, all with ring boundaries, identical length and VMax,
// and uniform direction — the configuration where "adjacent lane" is well
// defined. Vehicle IDs are reassigned to be globally unique (lane 0 first)
// and persist across lane changes; Positions reports by that ID. rnd drives
// the stochastic rule and must be non-nil.
func (r *refRoad) EnableLaneChanges(cfg LaneChange, rnd *rand.Rand) error {
	if len(r.lanes) < 2 {
		return fmt.Errorf("ca: lane changes need >= 2 lanes, have %d", len(r.lanes))
	}
	if cfg.P <= 0 || cfg.P > 1 {
		return fmt.Errorf("ca: lane-change probability %v outside (0,1]", cfg.P)
	}
	if rnd == nil {
		return fmt.Errorf("ca: lane changes require an RNG")
	}
	ref := r.lanes[0].cfg
	for i, l := range r.lanes {
		if l.cfg.Boundary != RingBoundary {
			return fmt.Errorf("ca: lane %d: lane changes require ring boundaries", i)
		}
		if l.cfg.Length != ref.Length || l.cfg.VMax != ref.VMax {
			return fmt.Errorf("ca: lane %d: lane changes require identical length and vmax", i)
		}
		if r.specs[i].Reversed != r.specs[0].Reversed {
			return fmt.Errorf("ca: lane %d: lane changes require uniform direction", i)
		}
	}
	if cfg.BackGap == 0 {
		cfg.BackGap = ref.VMax
	}
	if cfg.BackGap < 0 {
		return fmt.Errorf("ca: negative lane-change back gap %d", cfg.BackGap)
	}
	// Persistent global IDs: lane 0's vehicles first, matching the
	// uncoupled VehicleGlobalID order at construction time.
	id := 0
	for _, l := range r.lanes {
		for vi := range l.vehicles {
			l.vehicles[vi].ID = id
			id++
		}
	}
	r.coupled = true
	r.lc = cfg
	r.lcRnd = rnd
	return nil
}

// applyLaneChanges decides all sideways moves from the current state, then
// applies them. Conflicts (two vehicles targeting the same cell) are
// resolved in favor of the first claimant in (lane, position-index) scan
// order; occupancy tests use the pre-change state, so the rule is
// conservative but deterministic and collision-free.
func (r *refRoad) applyLaneChanges() {
	for _, l := range r.lanes {
		l.refreshGaps()
	}
	vmax := r.lanes[0].cfg.VMax
	var moves []lcMove
	var claimed map[[2]int]bool // {target lane, site} already promised
	for li, l := range r.lanes {
		for vi := range l.vehicles {
			v := &l.vehicles[vi]
			desired := v.Vel + 1
			if desired > vmax {
				desired = vmax
			}
			if v.Gap >= desired {
				continue // no incentive: the own lane is not limiting
			}
			best, bestGap := -1, v.Gap
			for _, ti := range [2]int{li - 1, li + 1} {
				if ti < 0 || ti >= len(r.lanes) {
					continue
				}
				t := r.lanes[ti]
				if t.cells[v.Pos] >= 0 || claimed[[2]int{ti, v.Pos}] {
					continue // sideways cell occupied or already claimed
				}
				if !t.clearBehind(v.Pos, r.lc.BackGap) {
					continue
				}
				if g := t.aheadGapAt(v.Pos, vmax+1); g > bestGap {
					best, bestGap = ti, g
				}
			}
			if best < 0 {
				continue
			}
			if r.lcRnd.Float64() >= r.lc.P {
				continue
			}
			if claimed == nil {
				claimed = make(map[[2]int]bool)
			}
			claimed[[2]int{best, v.Pos}] = true
			moves = append(moves, lcMove{fromLane: li, toLane: best, pos: v.Pos})
		}
	}
	for _, m := range moves {
		from := r.lanes[m.fromLane]
		v := from.takeVehicleAt(from.cells[m.pos])
		r.lanes[m.toLane].placeVehicle(v)
	}
}

// aheadGapAt reports the number of consecutive free sites ahead of pos on
// the (ring) lane, scanning at most limit sites.
func (l *refLane) aheadGapAt(pos, limit int) int {
	g := 0
	for i := 1; i <= limit; i++ {
		site := pos + i
		if site >= l.cfg.Length {
			site -= l.cfg.Length
		}
		if l.cells[site] >= 0 {
			return g
		}
		g++
	}
	return g
}

// clearBehind reports whether the need sites behind pos on the (ring) lane
// are all free.
func (l *refLane) clearBehind(pos, need int) bool {
	for i := 1; i <= need; i++ {
		site := pos - i
		if site < 0 {
			site += l.cfg.Length
		}
		if l.cells[site] >= 0 {
			return false
		}
	}
	return true
}

// takeVehicleAt removes and returns the vehicle at slice index idx,
// re-syncing the cell index entries of the vehicles shifted down.
func (l *refLane) takeVehicleAt(idx int) Vehicle {
	v := l.vehicles[idx]
	l.cells[v.Pos] = -1
	l.vehicles = append(l.vehicles[:idx], l.vehicles[idx+1:]...)
	for i := idx; i < len(l.vehicles); i++ {
		l.cells[l.vehicles[i].Pos] = i
	}
	return v
}

// placeVehicle inserts v keeping the position order, re-syncing the cell
// index entries of the vehicles shifted up. The target cell must be free.
func (l *refLane) placeVehicle(v Vehicle) {
	idx := 0
	for idx < len(l.vehicles) && l.vehicles[idx].Pos < v.Pos {
		idx++
	}
	l.vehicles = append(l.vehicles, Vehicle{})
	copy(l.vehicles[idx+1:], l.vehicles[idx:])
	l.vehicles[idx] = v
	for i := idx; i < len(l.vehicles); i++ {
		l.cells[l.vehicles[i].Pos] = i
	}
}

func (l *refLane) NumVehicles() int { return len(l.vehicles) }
func (l *refLane) Len() int         { return l.cfg.Length }
func (l *refLane) Density() float64 {
	return float64(len(l.vehicles)) / float64(l.cfg.Length)
}

// initialPositions is refLane's placement and the reference for NewLane's:
// random sites are the first n values of rand.Perm(Length), sorted.
func initialPositions(cfg Config, rnd *rand.Rand) ([]int, error) {
	n := cfg.Vehicles
	positions := make([]int, 0, n)
	switch cfg.Placement {
	case EvenPlacement:
		for i := 0; i < n; i++ {
			positions = append(positions, i*cfg.Length/n)
		}
	case CompactPlacement:
		for i := 0; i < n; i++ {
			positions = append(positions, i)
		}
	case RandomPlacement:
		positions = rnd.Perm(cfg.Length)[:n]
		slices.Sort(positions)
	default:
		return nil, fmt.Errorf("ca: unknown placement %d", cfg.Placement)
	}
	return positions, nil
}
