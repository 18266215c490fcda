package scenario

import (
	"fmt"

	"cavenet/internal/exp"
	"cavenet/internal/mobility"
	"cavenet/internal/rng"
	"cavenet/internal/scenario/check"
	"cavenet/internal/sim"
	"cavenet/internal/stats"
)

// SweepConfig spans a scenario × protocol × seed grid — the registry
// generalization of the core package's density sweep: the axis is the
// whole catalogue, not just the vehicle count.
type SweepConfig struct {
	// Scenarios names the registered scenarios to run; default: the whole
	// catalogue in sorted order.
	Scenarios []string
	// Protocols lists the routing protocols; default all three.
	Protocols []Protocol
	// Trials is the number of seeded replications per cell (default 1);
	// trial t of scenario cell i runs with seed root.Fork(i).Fork(t).
	Trials int
	// Seed is the root seed of the grid.
	Seed int64
	// Workers bounds the worker pool; <= 0 uses every core. Output is
	// bit-identical for any worker count.
	Workers int
	// Shrunk runs the test-sized spec variants (see Spec.Shrunk).
	Shrunk bool
	// Checked wraps every run in the invariant harness and reports the
	// violation count per cell.
	Checked bool
	// OverrideTimeSec > 0 replaces every spec's simulated duration, with
	// flow windows re-derived from the new horizon (the CLI's
	// `scenario run -time` semantics, applied grid-wide).
	OverrideTimeSec float64
	// OverrideNodes > 0 rescales every spec to this fleet size at its
	// declared density (Spec.WithVehicles, applied grid-wide).
	OverrideNodes int
}

// SweepRow aggregates the trials of one (scenario, protocol) cell.
type SweepRow struct {
	Scenario string   `json:"scenario"`
	Protocol Protocol `json:"protocol"`
	Trials   int      `json:"trials"`
	// PDR, DelaySec and ControlPackets are mean ± spread across trials.
	PDR            stats.Estimate `json:"pdr"`
	DelaySec       stats.Estimate `json:"delaySec"`
	ControlPackets stats.Estimate `json:"controlPackets"`
	// Delivered totals delivered packets across trials.
	Delivered uint64 `json:"delivered"`
	// Violations totals invariant violations across trials (Checked only).
	Violations int `json:"violations"`
	// DowntimeSec is the fault plan's node-seconds of downtime per trial
	// (zero for fault-free scenarios).
	DowntimeSec stats.Estimate `json:"downtimeSec"`
	// FaultPDR is the delivery ratio of packets originated inside fault
	// windows (zero for fault-free scenarios).
	FaultPDR stats.Estimate `json:"faultPDR"`
}

// TrialResult is the scalarized outcome of one (scenario, protocol,
// trial) run — the unit of work a sweep cell produces per protocol, and
// the value the experiment service's content-addressed result cache
// stores: runs are deterministic, so two runs of the same normalized
// spec produce the same TrialResult bit for bit.
type TrialResult struct {
	PDR            float64 `json:"pdr"`
	DelaySec       float64 `json:"delaySec"`
	ControlPackets float64 `json:"controlPackets"`
	DowntimeSec    float64 `json:"downtimeSec"`
	FaultPDR       float64 `json:"faultPDR"`
	Delivered      uint64  `json:"delivered"`
	Violations     int     `json:"violations"`
}

// Grid is a fully expanded, validated sweep: the ordered (scenario ×
// trial) cell list with its protocol axis. Sweep runs a Grid on the
// parallel engine; the experiment service (internal/serve) runs the same
// cells behind its job queue and result cache. Cell j covers scenario
// j/Trials, trial j%Trials.
type Grid struct {
	// Scenarios, Protocols, Trials, Seed and Checked are the validated
	// axes (defaults applied).
	Scenarios []string
	Protocols []Protocol
	Trials    int
	Seed      int64
	Checked   bool

	specs []Spec
}

// NewGrid validates a sweep config and expands it: scenario names are
// resolved (shrunk and overridden as requested), the protocol axis is
// checked, and the trial count defaulted. The returned grid is
// immutable; its cells can run in any order and still produce identical
// results.
func NewGrid(cfg SweepConfig) (*Grid, error) {
	if len(cfg.Scenarios) == 0 {
		// Heavy catalogue entries (10k-vehicle workloads) join a sweep only
		// when named explicitly.
		for _, name := range Names() {
			if s, ok := Get(name); ok && !s.Heavy {
				cfg.Scenarios = append(cfg.Scenarios, name)
			}
		}
	}
	if len(cfg.Protocols) == 0 {
		cfg.Protocols = AllProtocols()
	}
	// The per-protocol runs below bypass spec re-normalization, so the
	// protocol axis must be validated here — an unknown name would
	// otherwise silently run the default router under the wrong label.
	for _, p := range cfg.Protocols {
		if _, err := ParseProtocol(string(p)); err != nil {
			return nil, err
		}
	}
	if cfg.Trials == 0 {
		cfg.Trials = 1
	}
	if cfg.Trials < 0 {
		return nil, fmt.Errorf("scenario: negative trial count %d", cfg.Trials)
	}
	specs := make([]Spec, len(cfg.Scenarios))
	for i, name := range cfg.Scenarios {
		s, ok := Get(name)
		if !ok {
			return nil, fmt.Errorf("scenario: unknown scenario %q", name)
		}
		if cfg.Shrunk {
			s = s.Shrunk()
		}
		if cfg.OverrideNodes > 0 {
			scaled, err := s.WithVehicles(cfg.OverrideNodes)
			if err != nil {
				return nil, err
			}
			s = scaled
		}
		if cfg.OverrideTimeSec > 0 {
			s = s.WithSimTime(sim.Seconds(cfg.OverrideTimeSec))
			if err := s.Validate(); err != nil {
				return nil, err
			}
		}
		specs[i] = s
	}
	return &Grid{
		Scenarios: cfg.Scenarios,
		Protocols: cfg.Protocols,
		Trials:    cfg.Trials,
		Seed:      cfg.Seed,
		Checked:   cfg.Checked,
		specs:     specs,
	}, nil
}

// Cells reports the number of (scenario, trial) cells in the grid.
func (g *Grid) Cells() int { return len(g.specs) * g.Trials }

// Cell decomposes a cell index into its scenario name and trial.
func (g *Grid) Cell(j int) (scenarioName string, trial int) {
	return g.Scenarios[j/g.Trials], j % g.Trials
}

// CellSpec returns the normalized base spec of cell j: the scenario's
// spec with the cell's forked seed applied and every default made
// explicit. The spec's Protocol field still carries the scenario's own
// default; a run of the cell overrides it per protocol-axis entry — the
// per-(cell, protocol) spec (see RunCell) is the canonical identity a
// content-addressed result cache keys on.
func (g *Grid) CellSpec(j int) (Spec, error) {
	if j < 0 || j >= g.Cells() {
		return Spec{}, fmt.Errorf("scenario: cell %d outside grid of %d", j, g.Cells())
	}
	si, trial := j/g.Trials, j%g.Trials
	base := g.specs[si].clone()
	base.Seed = rng.NewSource(g.Seed).Fork(si).Fork(trial).Seed()
	if err := base.normalize(); err != nil {
		return Spec{}, err
	}
	return base, nil
}

// RunCell executes cell j for the given subset of the grid's protocol
// axis and returns one TrialResult per requested protocol, in argument
// order. Every protocol of the cell sees the same seeded mobility
// pattern (the paper's "same mobility pattern" methodology): normal
// specs record it once and share the trace, Heavy specs stream a fresh
// replay per protocol to keep mobility memory O(nodes) — the
// streamed-vs-recorded differential test proves the two bit-identical.
// Results depend only on (grid, j, protocol), never on which other cells
// ran or in what order — the property that makes per-cell caching sound.
func (g *Grid) RunCell(j int, protocols []Protocol) ([]TrialResult, error) {
	base, err := g.CellSpec(j)
	if err != nil {
		return nil, err
	}
	_, trial := g.Cell(j)
	var shared *mobility.SampledTrace
	if !base.Heavy {
		src, err := buildSource(&base, nil)
		if err != nil {
			return nil, fmt.Errorf("scenario: sweep mobility (%s trial %d): %w", base.Name, trial, err)
		}
		shared = mobility.Record(src)
	}
	out := make([]TrialResult, len(protocols))
	for pi, p := range protocols {
		run := base.clone()
		run.Protocol = p
		var msrc mobility.Source = shared
		if shared == nil {
			s, err := buildSource(&run, nil)
			if err != nil {
				return nil, fmt.Errorf("scenario: sweep mobility (%s trial %d): %w", base.Name, trial, err)
			}
			msrc = s
		}
		var res *Result
		var violations int
		if g.Checked {
			report := check.NewReport()
			r, err := runCheckedOnSource(&run, msrc, report)
			if err != nil {
				return nil, fmt.Errorf("scenario: sweep %s/%s trial %d: %w", base.Name, p, trial, err)
			}
			res, violations = r, report.Total()
		} else {
			r, err := runOnSource(&run, msrc, nil, referencePaths{})
			if err != nil {
				return nil, fmt.Errorf("scenario: sweep %s/%s trial %d: %w", base.Name, p, trial, err)
			}
			res = r
		}
		var delaySum float64
		for _, snd := range res.Senders {
			delaySum += res.MeanDelaySec[snd]
		}
		if len(res.Senders) > 0 {
			delaySum /= float64(len(res.Senders))
		}
		out[pi] = TrialResult{
			PDR:            res.TotalPDR(),
			DelaySec:       delaySum,
			ControlPackets: float64(res.ControlPackets),
			Delivered:      res.TotalDelivered(),
			Violations:     violations,
		}
		if r := res.Resilience; r != nil {
			out[pi].DowntimeSec = r.DowntimeNodeSec
			out[pi].FaultPDR = r.PDRDuring
		}
	}
	return out, nil
}

// Aggregate reduces the per-cell results — cells[j][pi] is cell j under
// the grid's pi-th protocol — into the sweep's (scenario, protocol) rows
// with Student-t confidence intervals, in the same deterministic order
// Sweep emits.
func (g *Grid) Aggregate(cells [][]TrialResult) []SweepRow {
	nt, np := g.Trials, len(g.Protocols)
	out := make([]SweepRow, 0, len(g.specs)*np)
	samples := make([]float64, nt)
	for si, name := range g.Scenarios {
		for pi, p := range g.Protocols {
			row := SweepRow{Scenario: name, Protocol: p, Trials: nt}
			pick := func(f func(TrialResult) float64) stats.Estimate {
				for t := 0; t < nt; t++ {
					samples[t] = f(cells[si*nt+t][pi])
				}
				return stats.EstimateOf(samples)
			}
			row.PDR = pick(func(r TrialResult) float64 { return r.PDR })
			row.DelaySec = pick(func(r TrialResult) float64 { return r.DelaySec })
			row.ControlPackets = pick(func(r TrialResult) float64 { return r.ControlPackets })
			row.DowntimeSec = pick(func(r TrialResult) float64 { return r.DowntimeSec })
			row.FaultPDR = pick(func(r TrialResult) float64 { return r.FaultPDR })
			for t := 0; t < nt; t++ {
				row.Delivered += cells[si*nt+t][pi].Delivered
				row.Violations += cells[si*nt+t][pi].Violations
			}
			out = append(out, row)
		}
	}
	return out
}

// Sweep executes the grid on the deterministic parallel engine. The unit
// of work is one (scenario, trial) cell (see Grid.RunCell); all
// randomness derives from the cell's index, so the output is
// bit-identical for every worker count.
func Sweep(cfg SweepConfig) ([]SweepRow, error) {
	g, err := NewGrid(cfg)
	if err != nil {
		return nil, err
	}
	cells, err := exp.Map(exp.Runner{Workers: cfg.Workers}, g.Cells(), func(j int) ([]TrialResult, error) {
		return g.RunCell(j, g.Protocols)
	})
	if err != nil {
		return nil, err
	}
	return g.Aggregate(cells), nil
}
