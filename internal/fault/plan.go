// Package fault makes failures a declarative, seeded part of a scenario:
// a Plan is an ordered list of node crash/recovery and link-impairment
// events, derived deterministically from a seed (rng.Fork per node, so a
// sweep's plans are bit-identical for any worker count) and executed by
// kernel-scheduled actuators inside a netsim.World.
//
// The failure semantics are layered through the existing stack rather than
// short-circuited around it: a NodeDown detaches the radio from the
// spatial grid and the PHY (neighbors simply stop hearing it), the MAC
// flushes its interface queue upward as "node:down" drops so the
// packet-conservation ledger can account for every packet the dead node
// held, and routers of surviving nodes discover the loss the same way
// they discover mobility — unicasts fail, HELLOs stop. A fault-free Plan
// is a strict no-op: Apply touches nothing, so runs stay byte-identical
// to the plain path (the empty-plan differential tests pin this).
package fault

import (
	"fmt"
	"sort"

	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// Kind enumerates the fault event types.
type Kind uint8

// Fault event kinds. The numeric order is also the tie-break order for
// events sharing a timestamp, so a zero-length down interval still executes
// Down before Up.
const (
	// NodeDown takes a node's radio off the air: grid detach, MAC queue
	// flush ("node:down" drops), router stop. Graceful keeps the router's
	// state for recovery; a crash loses it (and drops the packets parked in
	// its discovery buffers).
	NodeDown Kind = iota + 1
	// NodeUp re-inserts the radio at the node's current position and
	// restarts the stack (a fresh router instance after a crash).
	NodeUp
	// ImpairOn installs per-pair loss/attenuation on link (A, B) in the
	// channel, applied after the grid cull so culling semantics are
	// preserved (attenuation only ever reduces power).
	ImpairOn
	// ImpairOff removes the pair's impairment.
	ImpairOff
)

func (k Kind) String() string {
	switch k {
	case NodeDown:
		return "node-down"
	case NodeUp:
		return "node-up"
	case ImpairOn:
		return "impair-on"
	case ImpairOff:
		return "impair-off"
	}
	return fmt.Sprintf("fault.Kind(%d)", uint8(k))
}

// Event is one scheduled fault.
type Event struct {
	// At is the absolute simulation time the fault actuates.
	At sim.Time
	// Kind selects the actuator.
	Kind Kind
	// Node is the NodeDown/NodeUp target.
	Node int
	// Graceful marks a NodeDown as a shutdown (router state survives to
	// recovery) instead of a crash (state loss).
	Graceful bool
	// A and B are the ImpairOn/ImpairOff link endpoints (unordered pair).
	A, B int
	// Loss is the ImpairOn per-reception erasure probability in [0, 1].
	Loss float64
	// AttenDB is the ImpairOn extra path attenuation in dB (>= 0).
	AttenDB float64
}

// Plan is an ordered fault schedule. The zero value is the empty plan,
// which Apply treats as "no faults": it installs nothing and perturbs
// nothing.
type Plan struct {
	Events []Event
}

// Empty reports whether the plan schedules no events.
func (p Plan) Empty() bool { return len(p.Events) == 0 }

// eventLess is the canonical plan order: time, then kind, then identity.
// Build sorts with it and Validate requires it, so two plans built from the
// same spec compare equal element-wise and actuate identically.
func eventLess(a, b Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.A != b.A {
		return a.A < b.A
	}
	return a.B < b.B
}

// pairKey normalizes an unordered link pair.
func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// Validate checks the plan against a world of the given node count: events
// sorted in canonical order, node and link indices in range, Down/Up
// strictly alternating per node, ImpairOn/ImpairOff strictly alternating
// per pair, loss probabilities in [0, 1] and attenuations non-negative.
func (p Plan) Validate(nodes int) error {
	down := make(map[int]bool)
	impaired := make(map[[2]int]bool)
	for i, e := range p.Events {
		if e.At < 0 {
			return fmt.Errorf("fault: event %d (%s) at negative time %v", i, e.Kind, e.At)
		}
		if i > 0 && eventLess(e, p.Events[i-1]) {
			return fmt.Errorf("fault: event %d (%s at %v) out of order", i, e.Kind, e.At)
		}
		switch e.Kind {
		case NodeDown, NodeUp:
			if e.Node < 0 || e.Node >= nodes {
				return fmt.Errorf("fault: event %d targets node %d of %d", i, e.Node, nodes)
			}
			if e.Kind == NodeDown {
				if down[e.Node] {
					return fmt.Errorf("fault: event %d downs node %d while already down", i, e.Node)
				}
				down[e.Node] = true
			} else {
				if !down[e.Node] {
					return fmt.Errorf("fault: event %d brings node %d up while already up", i, e.Node)
				}
				down[e.Node] = false
			}
		case ImpairOn, ImpairOff:
			if e.A < 0 || e.A >= nodes || e.B < 0 || e.B >= nodes {
				return fmt.Errorf("fault: event %d impairs pair (%d,%d) of %d nodes", i, e.A, e.B, nodes)
			}
			if e.A == e.B {
				return fmt.Errorf("fault: event %d impairs self-link %d", i, e.A)
			}
			k := pairKey(e.A, e.B)
			if e.Kind == ImpairOn {
				if impaired[k] {
					return fmt.Errorf("fault: event %d impairs pair (%d,%d) while already impaired", i, e.A, e.B)
				}
				if e.Loss < 0 || e.Loss > 1 {
					return fmt.Errorf("fault: event %d loss %v outside [0,1]", i, e.Loss)
				}
				if e.AttenDB < 0 {
					return fmt.Errorf("fault: event %d negative attenuation %v dB", i, e.AttenDB)
				}
				impaired[k] = true
			} else {
				if !impaired[k] {
					return fmt.Errorf("fault: event %d clears unimpaired pair (%d,%d)", i, e.A, e.B)
				}
				impaired[k] = false
			}
		default:
			return fmt.Errorf("fault: event %d has unknown kind %d", i, uint8(e.Kind))
		}
	}
	return nil
}

// hasImpair reports whether the plan carries any link impairment.
func (p Plan) hasImpair() bool {
	for _, e := range p.Events {
		if e.Kind == ImpairOn {
			return true
		}
	}
	return false
}

// Window is one half-open fault interval [From, To).
type Window struct {
	From, To sim.Time
}

// Windows merges every fault interval of the plan — node downtimes and
// link impairments, open intervals closed at horizon — into a sorted,
// disjoint list. The resilience meter classifies traffic by membership.
func (p Plan) Windows(horizon sim.Time) []Window {
	raw := p.intervals(horizon)
	sort.Slice(raw, func(i, j int) bool { return raw[i].From < raw[j].From })
	var out []Window
	for _, w := range raw {
		if w.To <= w.From {
			continue
		}
		if n := len(out); n > 0 && w.From <= out[n-1].To {
			if w.To > out[n-1].To {
				out[n-1].To = w.To
			}
			continue
		}
		out = append(out, w)
	}
	return out
}

// intervals lists every raw fault interval, unmerged and clipped to
// [0, horizon]. Residual open intervals (faults still active at the
// horizon) are appended in sorted key order — never in map-range order —
// so the list is identical on every call; a map-ordered walk here once
// made DowntimeNodeSec and the merged Windows differ between replays of
// the same plan (float summation order, unstable merge ties).
func (p Plan) intervals(horizon sim.Time) []Window {
	var out []Window
	downAt := make(map[int]sim.Time)
	impairAt := make(map[[2]int]sim.Time)
	for _, e := range p.Events {
		switch e.Kind {
		case NodeDown:
			downAt[e.Node] = e.At
		case NodeUp:
			out = append(out, clipWindow(downAt[e.Node], e.At, horizon))
			delete(downAt, e.Node)
		case ImpairOn:
			impairAt[pairKey(e.A, e.B)] = e.At
		case ImpairOff:
			k := pairKey(e.A, e.B)
			out = append(out, clipWindow(impairAt[k], e.At, horizon))
			delete(impairAt, k)
		}
	}
	for _, from := range sortedResiduals(downAt) {
		out = append(out, clipWindow(from, horizon, horizon))
	}
	for _, k := range sortedPairKeys(impairAt) {
		out = append(out, clipWindow(impairAt[k], horizon, horizon))
	}
	return out
}

// sortedResiduals returns the map's values ordered by node index.
func sortedResiduals(m map[int]sim.Time) []sim.Time {
	keys := make([]int, 0, len(m))
	for k := range m { // order-free: the keys are sorted below
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]sim.Time, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

// sortedPairKeys returns the map's keys in lexicographic pair order.
func sortedPairKeys(m map[[2]int]sim.Time) [][2]int {
	keys := make([][2]int, 0, len(m))
	for k := range m { // order-free: the keys are sorted below
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}

func clipWindow(from, to, horizon sim.Time) Window {
	if to > horizon {
		to = horizon
	}
	if from > to {
		from = to
	}
	return Window{From: from, To: to}
}

// Recoveries lists the NodeUp times of the plan in actuation order — the
// instants the resilience meter measures re-convergence from.
func (p Plan) Recoveries() []sim.Time {
	var out []sim.Time
	for _, e := range p.Events {
		if e.Kind == NodeUp {
			out = append(out, e.At)
		}
	}
	return out
}

// DowntimeNodeSec totals node-seconds of downtime over [0, horizon]; a
// node still down at the horizon contributes up to the horizon.
func (p Plan) DowntimeNodeSec(horizon sim.Time) float64 {
	total := 0.0
	downAt := make(map[int]sim.Time)
	for _, e := range p.Events {
		switch e.Kind {
		case NodeDown:
			downAt[e.Node] = e.At
		case NodeUp:
			w := clipWindow(downAt[e.Node], e.At, horizon)
			total += (w.To - w.From).Seconds()
			delete(downAt, e.Node)
		}
	}
	for _, from := range sortedResiduals(downAt) {
		w := clipWindow(from, horizon, horizon)
		total += (w.To - w.From).Seconds()
	}
	return total
}

// Apply validates the plan against the world and schedules one kernel
// actuator per event. Call after netsim.NewWorld and before World.Run. An
// empty plan applies nothing — the world is left byte-identical to a run
// that never saw the fault package.
func Apply(w *netsim.World, p Plan) error {
	if err := p.Validate(w.NumNodes()); err != nil {
		return err
	}
	if p.Empty() {
		return nil
	}
	if p.hasImpair() {
		// A dedicated named stream keeps impairment loss draws decorrelated
		// from (and invisible to) every other RNG consumer in the world.
		w.Channel.SetImpairRand(w.Stream("fault/impair"))
	}
	for _, e := range p.Events {
		e := e
		switch e.Kind {
		case NodeDown:
			w.Kernel.ScheduleArg(e.At, applyDown, &downArg{w: w, e: e})
		case NodeUp:
			w.Kernel.ScheduleArg(e.At, applyUp, &downArg{w: w, e: e})
		case ImpairOn:
			w.Kernel.ScheduleArg(e.At, applyImpairOn, &downArg{w: w, e: e})
		case ImpairOff:
			w.Kernel.ScheduleArg(e.At, applyImpairOff, &downArg{w: w, e: e})
		}
	}
	return nil
}

// downArg carries one scheduled actuator's target; package-level callbacks
// plus an argument record keep Apply from allocating a closure per event.
type downArg struct {
	w *netsim.World
	e Event
}

var (
	applyDown      = func(a any) { d := a.(*downArg); d.w.Node(d.e.Node).Down(d.e.Graceful) }
	applyUp        = func(a any) { d := a.(*downArg); d.w.Node(d.e.Node).Up() }
	applyImpairOn  = func(a any) { d := a.(*downArg); d.w.Channel.SetImpairment(d.e.A, d.e.B, d.e.Loss, d.e.AttenDB) }
	applyImpairOff = func(a any) { d := a.(*downArg); d.w.Channel.ClearImpairment(d.e.A, d.e.B) }
)
