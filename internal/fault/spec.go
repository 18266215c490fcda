package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"cavenet/internal/rng"
	"cavenet/internal/sim"
)

// Input caps for Validate / ParseSpec, per the trace-parser hardening
// pattern: a fuzzer (or a hostile -faults string) must not be able to make
// Build materialize an unbounded plan.
const (
	maxChurnRatePerMin = 600   // ten outages per node-second is already absurd
	maxSpecSeconds     = 1e9   // ~31 simulated years
	maxAttenDB         = 200   // beyond any physical link budget
	maxImpairs         = 256   // explicit per-pair impairment list
	maxSpecText        = 4096  // ParseSpec input length
	maxSpecClauses     = 64    // ParseSpec clause count
	maxEventsPerNode   = 10000 // churn sampling backstop
)

// Impair describes one explicit per-pair link impairment window.
type Impair struct {
	// A and B are the link endpoints (unordered pair).
	A, B int
	// StartSec and DurSec bound the impairment window in seconds.
	StartSec, DurSec float64
	// Loss is the per-reception erasure probability in [0, 1].
	Loss float64
	// AttenDB is extra path attenuation in dB (>= 0).
	AttenDB float64
}

// Spec is the declarative, seed-independent description of a fault
// workload; Build expands it against a concrete seed, node count and time
// horizon into a Plan. The zero Spec is fault-free.
type Spec struct {
	// ChurnRatePerMin is the per-node outage rate: each node alternates
	// exponentially-distributed up periods (mean 60/rate seconds) with fixed
	// down periods of ChurnDownSec. Zero disables churn.
	ChurnRatePerMin float64
	// ChurnDownSec is the churn outage duration (default 4 s).
	ChurnDownSec float64
	// ChurnGraceful makes churn outages graceful shutdowns instead of
	// crashes with state loss.
	ChurnGraceful bool

	// BlackoutStartSec/BlackoutDurSec crash a random fraction of the fleet
	// (BlackoutFraction, default 0.5) simultaneously for the window. Zero
	// duration disables the blackout.
	BlackoutStartSec, BlackoutDurSec float64
	BlackoutFraction                 float64

	// PartitionStartSec/PartitionDurSec impair every link crossing the
	// index midline (a < n/2 <= b) with loss 1, splitting the fleet into two
	// halves for the window. Zero duration disables the partition.
	PartitionStartSec, PartitionDurSec float64

	// Impairs lists explicit per-pair impairment windows.
	Impairs []Impair
}

// Empty reports whether the spec describes no faults at all.
func (s Spec) Empty() bool {
	return s.ChurnRatePerMin == 0 && s.BlackoutDurSec == 0 &&
		s.PartitionDurSec == 0 && len(s.Impairs) == 0
}

// Clone returns a deep copy (the Impairs slice is not shared).
func (s Spec) Clone() Spec {
	if len(s.Impairs) > 0 {
		s.Impairs = append([]Impair(nil), s.Impairs...)
	}
	return s
}

// within reports whether v lies in [0, max]; NaN and ±Inf do not, for a
// finite max. It is exactly the values finiteNonNeg accepts.
func within(v, max float64) bool { return v >= 0 && v <= max }

func finiteNonNeg(v float64, max float64, what string) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("fault: %s %v is not finite", what, v)
	}
	if v < 0 {
		return fmt.Errorf("fault: %s %v is negative", what, v)
	}
	if v > max {
		return fmt.Errorf("fault: %s %v exceeds cap %v", what, v, max)
	}
	return nil
}

// Validate bounds every knob of the spec. The caps double as the fuzz
// hardening for ParseSpec: any spec that validates expands to a plan of
// bounded size in bounded time.
func (s Spec) Validate() error {
	checks := []struct {
		v, max float64
		what   string
	}{
		{s.ChurnRatePerMin, maxChurnRatePerMin, "churn rate/min"},
		{s.ChurnDownSec, maxSpecSeconds, "churn down seconds"},
		{s.BlackoutStartSec, maxSpecSeconds, "blackout start"},
		{s.BlackoutDurSec, maxSpecSeconds, "blackout duration"},
		{s.BlackoutFraction, 1, "blackout fraction"},
		{s.PartitionStartSec, maxSpecSeconds, "partition start"},
		{s.PartitionDurSec, maxSpecSeconds, "partition duration"},
	}
	for _, c := range checks {
		if err := finiteNonNeg(c.v, c.max, c.what); err != nil {
			return err
		}
	}
	if len(s.Impairs) > maxImpairs {
		return fmt.Errorf("fault: %d impairments exceed cap %d", len(s.Impairs), maxImpairs)
	}
	for i, im := range s.Impairs {
		if im.A == im.B {
			return fmt.Errorf("fault: impair %d is a self-link %d", i, im.A)
		}
		if im.A < 0 || im.B < 0 {
			return fmt.Errorf("fault: impair %d has negative endpoint (%d,%d)", i, im.A, im.B)
		}
		pairs := [...]struct {
			v, max float64
			what   string
		}{
			{im.StartSec, maxSpecSeconds, "start"},
			{im.DurSec, maxSpecSeconds, "duration"},
			{im.Loss, 1, "loss"},
			{im.AttenDB, maxAttenDB, "attenuation dB"},
		}
		for _, c := range pairs {
			// The clause's name is formatted only for the error.
			if !within(c.v, c.max) {
				return finiteNonNeg(c.v, c.max, fmt.Sprintf("impair %d %s", i, c.what))
			}
		}
	}
	return nil
}

// Build expands the spec into a concrete Plan for a world of the given
// node count over [0, horizon]. The plan depends only on (spec, seed,
// nodes, horizon): churn samples one dedicated substream per node
// (root.Fork(node).Stream("fault/churn")) and the blackout victim set one
// fleet-level stream, so plans are bit-identical across sweep worker
// counts and unrelated to the world's own RNG consumption.
func (s Spec) Build(seed int64, nodes int, horizon sim.Time) (Plan, error) {
	if err := s.Validate(); err != nil {
		return Plan{}, err
	}
	if s.Empty() || nodes == 0 || horizon <= 0 {
		return Plan{}, nil
	}
	root := rng.NewSource(seed)

	// Per-node down intervals from churn and blackout, merged before being
	// flattened to events so overlaps cannot produce double-Down sequences.
	type span struct {
		from, to sim.Time
		graceful bool
	}
	downs := make([][]span, nodes)

	if s.ChurnRatePerMin > 0 {
		meanUp := 60 / s.ChurnRatePerMin
		downDur := s.ChurnDownSec
		if downDur == 0 {
			downDur = 4
		}
		for i := 0; i < nodes; i++ {
			rnd := root.Fork(i).Stream("fault/churn")
			t := sim.Time(0)
			for ev := 0; ev < maxEventsPerNode; ev++ {
				up := sim.Seconds(rnd.ExpFloat64() * meanUp)
				if up < sim.Millisecond {
					up = sim.Millisecond
				}
				t += up
				if t >= horizon {
					break
				}
				end := t + sim.Seconds(downDur)
				downs[i] = append(downs[i], span{from: t, to: end, graceful: s.ChurnGraceful})
				t = end
				if t >= horizon {
					break
				}
			}
		}
	}

	if s.BlackoutDurSec > 0 {
		frac := s.BlackoutFraction
		if frac == 0 {
			frac = 0.5
		}
		victims := int(math.Floor(frac * float64(nodes)))
		if victims > 0 {
			rnd := root.Stream("fault/blackout")
			perm := rnd.Perm(nodes)[:victims]
			sort.Ints(perm)
			from := sim.Seconds(s.BlackoutStartSec)
			to := from + sim.Seconds(s.BlackoutDurSec)
			for _, i := range perm {
				downs[i] = append(downs[i], span{from: from, to: to})
			}
		}
	}

	var events []Event
	for i, spans := range downs {
		if len(spans) == 0 {
			continue
		}
		sort.Slice(spans, func(a, b int) bool { return spans[a].from < spans[b].from })
		merged := spans[:1]
		for _, sp := range spans[1:] {
			last := &merged[len(merged)-1]
			if sp.from <= last.to {
				if sp.to > last.to {
					last.to = sp.to
				}
				// A crash overlapping a graceful shutdown is a crash.
				last.graceful = last.graceful && sp.graceful
				continue
			}
			merged = append(merged, sp)
		}
		for _, sp := range merged {
			if sp.from >= horizon {
				continue
			}
			events = append(events, Event{At: sp.from, Kind: NodeDown, Node: i, Graceful: sp.graceful})
			if sp.to < horizon {
				// A recovery at or past the horizon is clipped away: the
				// node simply stays down to the end of the run.
				events = append(events, Event{At: sp.to, Kind: NodeUp, Node: i})
			}
		}
	}

	impairs := append([]Impair(nil), s.Impairs...)
	if s.PartitionDurSec > 0 && nodes >= 2 {
		half := nodes / 2
		for a := 0; a < half; a++ {
			for b := half; b < nodes; b++ {
				impairs = append(impairs, Impair{
					A: a, B: b,
					StartSec: s.PartitionStartSec, DurSec: s.PartitionDurSec,
					Loss: 1,
				})
			}
		}
	}
	seen := make(map[[2]int]bool)
	for _, im := range impairs {
		if im.A >= nodes || im.B >= nodes {
			// Explicit impairments referencing nodes beyond this world are
			// skipped rather than rejected, so one spec can serve scenarios
			// of different sizes (Shrunk property runs included).
			continue
		}
		k := pairKey(im.A, im.B)
		if seen[k] {
			return Plan{}, fmt.Errorf("fault: duplicate impairment for pair (%d,%d)", im.A, im.B)
		}
		seen[k] = true
		from := sim.Seconds(im.StartSec)
		to := from + sim.Seconds(im.DurSec)
		if im.DurSec == 0 || from >= horizon {
			continue
		}
		events = append(events, Event{At: from, Kind: ImpairOn, A: im.A, B: im.B, Loss: im.Loss, AttenDB: im.AttenDB})
		if to < horizon {
			events = append(events, Event{At: to, Kind: ImpairOff, A: im.A, B: im.B})
		}
	}

	sort.SliceStable(events, func(i, j int) bool { return eventLess(events[i], events[j]) })
	plan := Plan{Events: events}
	if err := plan.Validate(nodes); err != nil {
		return Plan{}, err
	}
	return plan, nil
}

// ParseSpec parses the CLI fault grammar: semicolon-separated clauses
//
//	churn:RATE[,DOWNSEC[,graceful]]
//	blackout:START,DUR[,FRACTION]
//	partition:START,DUR
//	impair:A-B,START,DUR[,LOSS[,ATTENDB]]
//
// e.g. "churn:1.5,4;impair:0-3,10,20,0.5,3". Whitespace around clauses is
// ignored; each of churn/blackout/partition may appear at most once. The
// result is validated (and thereby capped) before return.
func ParseSpec(text string) (Spec, error) {
	var s Spec
	if len(text) > maxSpecText {
		return s, fmt.Errorf("fault: spec text %d bytes exceeds cap %d", len(text), maxSpecText)
	}
	clauses := strings.Split(text, ";")
	if len(clauses) > maxSpecClauses {
		return s, fmt.Errorf("fault: %d clauses exceed cap %d", len(clauses), maxSpecClauses)
	}
	var haveChurn, haveBlackout, havePartition bool
	for _, clause := range clauses {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		kind, rest, ok := strings.Cut(clause, ":")
		if !ok {
			return s, fmt.Errorf("fault: clause %q lacks ':'", clause)
		}
		args := strings.Split(rest, ",")
		switch kind {
		case "churn":
			if haveChurn {
				return s, fmt.Errorf("fault: duplicate churn clause")
			}
			haveChurn = true
			if len(args) < 1 || len(args) > 3 {
				return s, fmt.Errorf("fault: churn wants RATE[,DOWNSEC[,graceful]], got %q", rest)
			}
			rate, err := parseNum(args[0], "churn rate")
			if err != nil {
				return s, err
			}
			s.ChurnRatePerMin = rate
			if len(args) >= 2 {
				down, err := parseNum(args[1], "churn down seconds")
				if err != nil {
					return s, err
				}
				s.ChurnDownSec = down
			}
			if len(args) == 3 {
				if args[2] != "graceful" {
					return s, fmt.Errorf("fault: churn third argument must be 'graceful', got %q", args[2])
				}
				s.ChurnGraceful = true
			}
		case "blackout":
			if haveBlackout {
				return s, fmt.Errorf("fault: duplicate blackout clause")
			}
			haveBlackout = true
			if len(args) < 2 || len(args) > 3 {
				return s, fmt.Errorf("fault: blackout wants START,DUR[,FRACTION], got %q", rest)
			}
			var err error
			if s.BlackoutStartSec, err = parseNum(args[0], "blackout start"); err != nil {
				return s, err
			}
			if s.BlackoutDurSec, err = parseNum(args[1], "blackout duration"); err != nil {
				return s, err
			}
			if len(args) == 3 {
				if s.BlackoutFraction, err = parseNum(args[2], "blackout fraction"); err != nil {
					return s, err
				}
			}
		case "partition":
			if havePartition {
				return s, fmt.Errorf("fault: duplicate partition clause")
			}
			havePartition = true
			if len(args) != 2 {
				return s, fmt.Errorf("fault: partition wants START,DUR, got %q", rest)
			}
			var err error
			if s.PartitionStartSec, err = parseNum(args[0], "partition start"); err != nil {
				return s, err
			}
			if s.PartitionDurSec, err = parseNum(args[1], "partition duration"); err != nil {
				return s, err
			}
		case "impair":
			if len(args) < 3 || len(args) > 5 {
				return s, fmt.Errorf("fault: impair wants A-B,START,DUR[,LOSS[,ATTENDB]], got %q", rest)
			}
			aStr, bStr, ok := strings.Cut(args[0], "-")
			if !ok {
				return s, fmt.Errorf("fault: impair pair %q lacks '-'", args[0])
			}
			a, err := strconv.Atoi(strings.TrimSpace(aStr))
			if err != nil {
				return s, fmt.Errorf("fault: impair endpoint %q: %v", aStr, err)
			}
			b, err := strconv.Atoi(strings.TrimSpace(bStr))
			if err != nil {
				return s, fmt.Errorf("fault: impair endpoint %q: %v", bStr, err)
			}
			im := Impair{A: a, B: b}
			if im.StartSec, err = parseNum(args[1], "impair start"); err != nil {
				return s, err
			}
			if im.DurSec, err = parseNum(args[2], "impair duration"); err != nil {
				return s, err
			}
			if len(args) >= 4 {
				if im.Loss, err = parseNum(args[3], "impair loss"); err != nil {
					return s, err
				}
			}
			if len(args) == 5 {
				if im.AttenDB, err = parseNum(args[4], "impair attenuation"); err != nil {
					return s, err
				}
			}
			s.Impairs = append(s.Impairs, im)
		default:
			return s, fmt.Errorf("fault: unknown clause kind %q", kind)
		}
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

func parseNum(text, what string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(text), 64)
	if err != nil {
		return 0, fmt.Errorf("fault: %s %q: %v", what, text, err)
	}
	return v, nil
}
