// Package ca implements the 1-dimensional Nagel–Schreckenberg (NaS)
// cellular-automaton traffic model that is the core of CAVENET's
// Behavioural Analyzer block (§III-A of the paper).
//
// Time advances in discrete steps Δt. A lane is a vector of L sites; each
// site is either empty or holds one vehicle with an integer velocity in
// [0, vmax]. At every step the three NaS rules are applied in parallel to
// all vehicles:
//
//  1. acceleration:  v ← min(v+1, vmax)
//  2. slowing down:  v ← min(v, gap)      (gap = empty sites ahead)
//     2'. randomization: v ← max(v-1, 0)      with probability p (stochastic)
//  3. motion:        x ← x + v
//
// With the paper's calibration vmax = 135 km/h and Δt = 1 s, one site is
// s = 7.5 m, so vmax = 5 sites/step.
//
// A Lane keeps its vehicles as parallel int32 arrays and Lane.Step is a few
// linear, mostly branch-free passes over them (the exactness argument is
// written next to it). Vehicle is the record handed to readers; its Gap is
// worked out when somebody asks, not once per step.
package ca

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Paper calibration constants (§III-A).
const (
	// CellLength is the physical length of one site in meters.
	CellLength = 7.5
	// DefaultVMax is 135 km/h expressed in sites per step (37.5 m/s ÷ 7.5 m).
	DefaultVMax = 5
	// StepSeconds is the duration Δt of one CA step in seconds.
	StepSeconds = 1.0
)

// Boundary selects how the lane ends are handled.
type Boundary int

const (
	// RingBoundary wraps position L back to 0 — the paper's improved
	// "circuit" movement pattern, giving a closed system with constant
	// density and no communication gap between head and tail.
	RingBoundary Boundary = iota + 1
	// OpenBoundary is the first-version "straight line": a vehicle leaving
	// the right end is teleported to the leftmost free site. The paper
	// reports this causes a delay and breaks head/tail communication, which
	// motivated the circuit improvement.
	OpenBoundary
)

// String implements fmt.Stringer.
func (b Boundary) String() string {
	switch b {
	case RingBoundary:
		return "ring"
	case OpenBoundary:
		return "open"
	default:
		return fmt.Sprintf("Boundary(%d)", int(b))
	}
}

// Vehicle is the per-vehicle data structure VE_i of §III-C: it stores the
// gap, the velocity and the current lane position. Laps counts completed
// wrap-arounds so trace generation can reconstruct the unbounded coordinate
// (the paper: "for closed boundaries ... we check if a shift has taken
// place").
type Vehicle struct {
	// ID is a stable identifier, assigned in initial-position order.
	ID int
	// Pos is the current site index in [0, L).
	Pos int
	// Vel is the current velocity in sites per step.
	Vel int
	// Gap is the number of empty sites to the vehicle ahead — capped by red
	// signals — that the rules of the next step will see. It is materialised
	// when a vehicle is read (Lane.Vehicle, Lane.Vehicles), not stored.
	Gap int
	// Laps counts completed traversals of the lane (ring boundary), or
	// teleports (open boundary).
	Laps int
}

// Config parameterizes a lane.
type Config struct {
	// Length is the number of sites L. Must be positive.
	Length int
	// Vehicles is the number of cars N placed on the lane. Must satisfy
	// 0 <= N <= L.
	Vehicles int
	// VMax is the speed limit in sites per step; DefaultVMax if zero.
	VMax int
	// SlowdownP is the randomization probability p of rule 2'. Zero gives
	// the deterministic model.
	SlowdownP float64
	// Boundary defaults to RingBoundary (the improved CAVENET).
	Boundary Boundary
	// Placement selects the initial arrangement; defaults to EvenPlacement.
	Placement Placement
	// InitialVel is the velocity assigned to every vehicle at t=0.
	InitialVel int
}

// Placement selects the initial vehicle arrangement.
type Placement int

const (
	// EvenPlacement spreads vehicles uniformly around the lane.
	EvenPlacement Placement = iota + 1
	// RandomPlacement samples distinct sites uniformly at random.
	RandomPlacement
	// CompactPlacement packs all vehicles into consecutive sites starting at
	// 0 — the worst-case jam used to probe transient behaviour.
	CompactPlacement
)

// maxSites bounds Length and VMax: sites and velocities are int32.
const maxSites = 1 << 30

func (c *Config) normalize() error {
	if c.Length <= 0 || c.Length > maxSites {
		return fmt.Errorf("ca: lane length %d outside [1,%d]", c.Length, maxSites)
	}
	if c.Vehicles < 0 || c.Vehicles > c.Length {
		return fmt.Errorf("ca: %d vehicles do not fit %d sites", c.Vehicles, c.Length)
	}
	if c.VMax == 0 {
		c.VMax = DefaultVMax
	}
	if c.VMax < 0 || c.VMax > maxSites {
		return fmt.Errorf("ca: vmax %d outside [0,%d]", c.VMax, maxSites)
	}
	if c.SlowdownP < 0 || c.SlowdownP > 1 {
		return fmt.Errorf("ca: slowdown probability %v outside [0,1]", c.SlowdownP)
	}
	if c.Boundary == 0 {
		c.Boundary = RingBoundary
	}
	if c.Placement == 0 {
		c.Placement = EvenPlacement
	}
	if c.InitialVel < 0 || c.InitialVel > c.VMax {
		return fmt.Errorf("ca: initial velocity %d outside [0,%d]", c.InitialVel, c.VMax)
	}
	return nil
}

// Lane is one NaS lane: the vector L_n of the paper plus the vehicle
// structures, held as parallel int32 arrays. All updates are parallel
// (synchronous), per footnote 1 of the paper.
//
// Slots keep a fixed physical order: the vehicle that is i-th by position
// (logical i, what Vehicle(i) returns) lives in slot (head+i) mod n. A
// wrap-around moves head, not memory, so cells — which holds slots, not
// logical indices — survives it untouched.
type Lane struct {
	cfg                     Config
	pos, vel, gap, id, laps []int32
	idx                     []int32 // Step scratch: slots that draw in pass 2, logical order
	head                    int
	cells                   []int32 // slot occupying each site, or -1
	velSum                  int     // Σ vel, kept by whatever changes a velocity
	// gapSigs is the number of signals gap[] was computed against, or -1
	// once a move has made gap[] stale (see readGaps, ruleGaps).
	gapSigs int
	step    int
	rnd     *rand.Rand
	signals []Signal
}

// NewLane builds a lane from cfg using rnd for the stochastic rule and for
// random placement. rnd may be nil when cfg is fully deterministic
// (SlowdownP == 0 and Placement != RandomPlacement).
func NewLane(cfg Config, rnd *rand.Rand) (*Lane, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if rnd == nil && (cfg.SlowdownP > 0 || cfg.Placement == RandomPlacement) {
		return nil, fmt.Errorf("ca: config requires randomness but rnd is nil")
	}
	l := &Lane{
		cfg:     cfg,
		cells:   make([]int32, cfg.Length),
		velSum:  cfg.Vehicles * cfg.InitialVel,
		gapSigs: -1,
		rnd:     rnd,
	}
	n := cfg.Vehicles
	buf := make([]int32, 6*n) // one allocation; a lane change grows them apart
	for i, a := range l.arrays() {
		*a = buf[i*n : (i+1)*n : (i+1)*n]
	}
	switch cfg.Placement {
	case EvenPlacement:
		for i := range n {
			l.pos[i] = int32(i * cfg.Length / n)
		}
	case CompactPlacement:
		for i := range n {
			l.pos[i] = int32(i)
		}
	case RandomPlacement:
		// rnd.Perm(Length)[:n], sorted: math/rand's Perm loop (frozen since
		// Go 1) run in cells, so the draws and the sites are Perm's without
		// its Length-word slice.
		m := l.cells
		for i := range m {
			j := rnd.Intn(i + 1)
			m[i] = m[j]
			m[j] = int32(i)
		}
		copy(l.pos, m)
		slices.Sort(l.pos)
	default:
		return nil, fmt.Errorf("ca: unknown placement %d", cfg.Placement)
	}
	for i := range l.cells {
		l.cells[i] = -1
	}
	for i, pos := range l.pos {
		l.id[i], l.vel[i] = int32(i), int32(cfg.InitialVel)
		l.cells[pos] = int32(i)
	}
	return l, nil
}

// arrays lists the per-slot arrays, for the code that resizes or permutes
// them together.
func (l *Lane) arrays() [6]*[]int32 {
	return [6]*[]int32{&l.pos, &l.vel, &l.gap, &l.id, &l.laps, &l.idx}
}

// Config returns the lane configuration after normalization.
func (l *Lane) Config() Config { return l.cfg }

// Len reports the number of sites L.
func (l *Lane) Len() int { return l.cfg.Length }

// NumVehicles reports the number of cars N.
func (l *Lane) NumVehicles() int { return len(l.pos) }

// Density reports ρ = N/L in vehicles per site.
func (l *Lane) Density() float64 {
	return float64(len(l.pos)) / float64(l.cfg.Length)
}

// slot maps a logical (position-order) index to its physical slot.
func (l *Lane) slot(i int) int {
	k := l.head + i
	if k >= len(l.pos) {
		k -= len(l.pos)
	}
	return k
}

// at assembles the vehicle structure of slot k.
func (l *Lane) at(k int) Vehicle {
	return Vehicle{ID: int(l.id[k]), Pos: int(l.pos[k]), Vel: int(l.vel[k]), Gap: int(l.gap[k]), Laps: int(l.laps[k])}
}

// Vehicles appends copies of all vehicle structures, in position order, to
// dst and returns it.
func (l *Lane) Vehicles(dst []Vehicle) []Vehicle {
	l.readGaps()
	dst = slices.Grow(dst, len(l.pos))
	for k := l.head; k < len(l.pos); k++ {
		dst = append(dst, l.at(k))
	}
	for k := 0; k < l.head; k++ {
		dst = append(dst, l.at(k))
	}
	return dst
}

// Occupancy returns the site vector: for each site, the velocity of the
// occupying vehicle or -1 when empty (the paper's L_{i,n} encoding).
func (l *Lane) Occupancy(dst []int) []int {
	if cap(dst) < len(l.cells) {
		dst = make([]int, len(l.cells))
	}
	dst = dst[:len(l.cells)]
	for i, k := range l.cells {
		if k < 0 {
			dst[i] = -1
		} else {
			dst[i] = int(l.vel[k])
		}
	}
	return dst
}

// readGaps materialises gap[] for an outside reader: a no-op unless a move
// (Step, a lane change) has happened since the last computation.
func (l *Lane) readGaps() {
	if l.gapSigs < 0 {
		l.refreshGaps()
	}
}

// ruleGaps is readGaps for the rules of the next step, which — unlike a
// reader — must also see a signal added since the last computation.
func (l *Lane) ruleGaps() {
	if l.gapSigs != len(l.signals) {
		l.refreshGaps()
	}
}

// refreshGaps recomputes gap[] from the positions: one linear pass in slot
// order, the one negative difference (the logical last vehicle looking
// across the seam at the first) lifted by L, then the red-signal caps.
func (l *Lane) refreshGaps() {
	l.gapSigs = len(l.signals)
	n := len(l.pos)
	if n == 0 {
		return
	}
	pos, gap, length := l.pos, l.gap[:n], int32(l.cfg.Length)
	for k, next := range pos[1:] {
		g := next - pos[k] - 1
		gap[k] = g + length&(g>>31)
	}
	// A lone vehicle reads -1+L here: on a ring it sees the whole lane.
	g := pos[0] - pos[n-1] - 1
	gap[n-1] = g + length&(g>>31)
	if l.cfg.Boundary == OpenBoundary {
		// The end of an open lane is open road: its leader is never
		// gap-limited. It drives off the end and is shifted back (reenter).
		gap[l.slot(n-1)] = int32(l.cfg.VMax)
	}
	l.applySignals()
}

// Step advances the lane by one time step, applying the NaS rules in
// parallel to every vehicle, as linear passes over the arrays: (0) gaps,
// unless still fresh; (1) rules 1–2 as v ← min(v+1, vmax, gap), collecting
// in logical order the slots left with v > 0; (2) rule 2', one draw per
// collected slot; (3) motion, the cell index and Σv.
//
// It computes exactly what the per-vehicle loop — rules 1, 2, 2' for vehicle
// 0, then for vehicle 1, …; kept as the differential reference in
// reference_test.go — computes, draw for draw:
//
//   - state: rules 1–2 of a vehicle read only time-n positions (through
//     gap[]) and its own velocity, so they may run for every vehicle before
//     anybody's rule 2'.
//   - stream: the loop draws once per vehicle whose rules 1–2 leave v > 0,
//     in ascending position from the smallest. Pass 1 walks [head, n) then
//     [0, head) — that order — and pass 2 replays its list through the same
//     Float64 call. (An integer threshold on Int63 is not the same test:
//     Float64 rounds int→float and redraws at 1.0.) p = 0 draws nothing.
//   - order: v ≤ gap keeps every vehicle behind its leader's time-n site,
//     which is < L, so only the logical last vehicle can cross the lane end
//     and the sorted order stays a rotation: it becomes the new head.
//
// A new stochastic rule must draw in logical order too, or declare a model
// change; anything that moves a vehicle outside Step must mark gaps stale.
func (l *Lane) Step() {
	l.ruleGaps()
	c := l.rules(l.head, len(l.pos), 0)
	c = l.rules(0, l.head, c)
	vel := l.vel
	if p := l.cfg.SlowdownP; p > 0 {
		for _, k := range l.idx[:c] {
			// Float64() < p is the sign bit of the difference.
			vel[k] -= int32(math.Float64bits(l.rnd.Float64()-p) >> 63)
		}
	}
	pos, cells, length := l.pos[:len(vel)], l.cells, int32(l.cfg.Length)
	sum, crossed := 0, -1
	for k, v := range vel {
		p := pos[k] + v
		if p >= length { // at most once a step (order): predictable
			crossed = k
			continue
		}
		pos[k] = p
		cells[p] = int32(k)
		sum += int(v)
	}
	if crossed >= 0 {
		sum += l.reenter(crossed)
	}
	l.velSum = sum
	l.step++
	l.gapSigs = -1
}

// rules is pass 1 of Step over the slots [lo, hi): rules 1–2, the cells of
// the time-n positions cleared (all of them before pass 3 fills any, so that
// may run in any order), and the slots left moving appended to idx[c:]. It
// returns the new c.
func (l *Lane) rules(lo, hi, c int) int {
	vel := l.vel[lo:hi]
	pos, gap, idx, cells := l.pos[lo:hi][:len(vel)], l.gap[lo:hi][:len(vel)], l.idx, l.cells
	vmax := int32(l.cfg.VMax)
	for i, v := range vel {
		nv := min(v+1, vmax, gap[i])
		vel[i] = nv
		cells[pos[i]] = -1
		idx[c] = int32(lo + i)
		c += int(uint32(-nv) >> 31) // nv > 0, without the branch
	}
	return c
}

// reenter puts the vehicle of slot k, which drove past the lane end this
// step, back at the start as the new logical first and returns its velocity.
// On a ring it just carries on. On an open lane — the first CAVENET version
// (paper §III-B) — it is shifted back to the first free site with velocity
// zero, the "delay" the paper attributes to that scheme.
func (l *Lane) reenter(k int) int {
	l.head = k
	l.laps[k]++
	if l.cfg.Boundary == RingBoundary {
		l.pos[k] += l.vel[k] - int32(l.cfg.Length)
		l.cells[l.pos[k]] = int32(k)
		return int(l.vel[k])
	}
	site := 0
	for l.cells[site] >= 0 {
		site++
	}
	l.pos[k], l.vel[k] = int32(site), 0
	// Sites 0..site-1 are taken, by the next `site` vehicles in logical
	// order: it lands behind them, so its data moves up that many slots.
	for ; site > 0; site-- {
		next := k + 1
		if next == len(l.pos) {
			next = 0
		}
		for _, a := range l.arrays() {
			(*a)[k], (*a)[next] = (*a)[next], (*a)[k]
		}
		l.cells[l.pos[k]] = int32(k)
		k = next
	}
	l.cells[l.pos[k]] = int32(k)
	return 0
}

// MeanVelocity reports v̄(t) = N⁻¹ Σ v_i in sites per step; zero when the
// lane is empty.
func (l *Lane) MeanVelocity() float64 {
	if len(l.pos) == 0 {
		return 0
	}
	return float64(l.velSum) / float64(len(l.pos))
}

// Flow reports J = ρ·v̄, the fundamental-diagram quantity of Fig. 4, in
// vehicles per step per site.
func (l *Lane) Flow() float64 { return l.Density() * l.MeanVelocity() }
