package check

import (
	"cavenet/internal/ca"
	"cavenet/internal/geometry"
)

// RoadWatcher validates the cellular-automaton dynamics of a road while it
// is being stepped: call AfterStep after every Road.Step. It checks, per
// lane and per step,
//
//   - no collisions: vehicle positions are strictly increasing (distinct
//     cells, order preserved — overtaking within a lane is impossible);
//   - velocity bounds: 0 ≤ v ≤ vmax;
//   - motion consistency: each vehicle moved exactly its velocity
//     (mod lane length), tracked across lane changes by persistent ID;
//   - flow ≤ capacity: Σ v ≤ L − N on a ring lane (velocities are gap
//     limited and ring gaps sum to L − N, so the flow ρ·v̄ can never
//     exceed 1 − ρ).
type RoadWatcher struct {
	road   *ca.Road
	report *Report
	// prev maps the tracking key to the vehicle's position before the step.
	prev    map[int]ca.Vehicle
	scratch []ca.Vehicle
}

// WatchRoad starts watching road (snapshotting its current state).
func WatchRoad(road *ca.Road, report *Report) *RoadWatcher {
	w := &RoadWatcher{road: road, report: report, prev: make(map[int]ca.Vehicle)}
	w.snapshot()
	return w
}

// key identifies a vehicle across steps: the persistent global ID on a
// coupled road, (lane, per-lane ID) otherwise (vehicles never migrate when
// uncoupled).
func (w *RoadWatcher) key(lane int, v ca.Vehicle) int {
	if w.road.LaneChangesEnabled() {
		return v.ID
	}
	return lane*(1<<21) + v.ID
}

func (w *RoadWatcher) snapshot() {
	for k := range w.prev { // order-free: clears the map
		delete(w.prev, k)
	}
	for li := 0; li < w.road.NumLanes(); li++ {
		w.scratch = w.road.Lane(li).Vehicles(w.scratch[:0])
		for _, v := range w.scratch {
			w.prev[w.key(li, v)] = v
		}
	}
}

// AfterStep validates the road state produced by the latest Road.Step.
func (w *RoadWatcher) AfterStep() {
	step := w.road.StepCount()
	for li := 0; li < w.road.NumLanes(); li++ {
		lane := w.road.Lane(li)
		cfg := lane.Config()
		w.scratch = lane.Vehicles(w.scratch[:0])
		sumVel := 0
		for vi, v := range w.scratch {
			if v.Pos < 0 || v.Pos >= cfg.Length {
				w.report.Add("ca", "step %d lane %d: vehicle %d at out-of-lane site %d", step, li, v.ID, v.Pos)
			}
			if v.Vel < 0 || v.Vel > cfg.VMax {
				w.report.Add("ca", "step %d lane %d: vehicle %d velocity %d outside [0,%d]", step, li, v.ID, v.Vel, cfg.VMax)
			}
			sumVel += v.Vel
			if vi > 0 && w.scratch[vi-1].Pos >= v.Pos {
				w.report.Add("ca", "step %d lane %d: vehicles %d and %d collide or disorder at sites %d,%d",
					step, li, w.scratch[vi-1].ID, v.ID, w.scratch[vi-1].Pos, v.Pos)
			}
			prev, seen := w.prev[w.key(li, v)]
			if !seen {
				w.report.Add("ca", "step %d lane %d: vehicle %d appeared from nowhere", step, li, v.ID)
				continue
			}
			// Motion consistency: mod-L displacement equals the velocity.
			// Ring wrap-arounds are covered by the modulo; an open-boundary
			// teleport (Laps bump) is that boundary's defined behavior.
			if cfg.Boundary == ca.RingBoundary || v.Laps == prev.Laps {
				moved := v.Pos - prev.Pos
				if moved < 0 {
					moved += cfg.Length
				}
				if moved != v.Vel {
					w.report.Add("ca", "step %d lane %d: vehicle %d teleported %d sites with velocity %d",
						step, li, v.ID, moved, v.Vel)
				}
			}
		}
		// Flow ≤ capacity: on a ring, gaps sum to L − N and every velocity
		// is gap limited, so Σv ≤ L − N.
		if cfg.Boundary == ca.RingBoundary && sumVel > cfg.Length-len(w.scratch) {
			w.report.Add("ca", "step %d lane %d: total velocity %d exceeds ring capacity %d (L=%d, N=%d)",
				step, li, sumVel, cfg.Length-len(w.scratch), cfg.Length, len(w.scratch))
		}
	}
	// Coupled roads: a vehicle must never be lost or duplicated across the
	// road as a whole.
	if w.road.LaneChangesEnabled() {
		seen := make(map[int]bool, w.road.TotalVehicles())
		for li := 0; li < w.road.NumLanes(); li++ {
			w.scratch = w.road.Lane(li).Vehicles(w.scratch[:0])
			for _, v := range w.scratch {
				if seen[v.ID] {
					w.report.Add("ca", "step %d: vehicle %d exists on two lanes", step, v.ID)
				}
				seen[v.ID] = true
			}
		}
		if len(seen) != w.road.TotalVehicles() {
			w.report.Add("ca", "step %d: %d distinct vehicles, want %d", step, len(seen), w.road.TotalVehicles())
		}
	}
	w.snapshot()
}

// TraceWatcher validates motion sample by sample as a mobility stream
// produces it: between consecutive samples no node may move farther than
// maxStepMeters (the physical speed limit plus lane-change slack), except
// at its declared activation step — the single jump from the staging area
// onto the road that a density-ramp scenario schedules. Retained state is
// one sample row (O(nodes)), so the check rides the streaming substrate
// without a recorded array.
type TraceWatcher struct {
	maxStep float64
	act     []int // activation sample per node; nil without a ramp
	report  *Report
	prev    []geometry.Vec2
	prevK   int
}

// WatchTrace builds a watcher; install its OnSample as the stream's
// sample observer (mobility.StreamConfig.OnSample / RoadSourceConfig.OnSample).
func WatchTrace(maxStepMeters float64, activationStep []int, report *Report) *TraceWatcher {
	// prevK starts at -2 so the first row (k == 0) never pairs with the
	// (empty) previous row.
	return &TraceWatcher{maxStep: maxStepMeters, act: activationStep, report: report, prevK: -2}
}

// OnSample validates the step from the previously observed sample row to
// this one (rows must arrive in sample order, which the stream guarantees).
func (w *TraceWatcher) OnSample(k int, row []geometry.Vec2) {
	if w.prevK == k-1 {
		for n := range row {
			act := -1
			if n < len(w.act) {
				act = w.act[n]
			}
			if k == act {
				continue // the declared staging→road activation jump
			}
			if d := w.prev[n].Dist(row[n]); d > w.maxStep {
				w.report.Add("trace", "node %d teleported %.1f m between samples %d and %d (limit %.1f m)",
					n, d, k-1, k, w.maxStep)
			}
		}
	}
	w.prev = append(w.prev[:0], row...)
	w.prevK = k
}
