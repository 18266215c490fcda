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

// SweepConfig spans a scenario × protocol × seed grid — the one
// experiment shape of the repo. The scenario axis is a list of specs,
// named from the catalogue or given directly: the paper's density sweep
// is Table I at several fleet sizes, an ablation is one spec with a knob
// flipped.
type SweepConfig struct {
	// Scenarios names the registered scenarios to run; default: the whole
	// catalogue in sorted order.
	Scenarios []string
	// Specs is the scenario axis given directly instead of by name
	// (mutually exclusive with Scenarios). Rows are labelled by Spec.Name;
	// each spec's Seed is replaced per cell.
	Specs []Spec
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
	// Nodes is the scenario's fleet size (Spec.TotalVehicles).
	Nodes  int `json:"nodes"`
	Trials int `json:"trials"`
	// PDR, DelaySec and ControlPackets are mean ± spread across trials.
	PDR            stats.Estimate `json:"pdr"`
	DelaySec       stats.Estimate `json:"delaySec"`
	ControlPackets stats.Estimate `json:"controlPackets"`
	// GoodputBPS is the goodput summed over senders, averaged over the
	// run's 1-s bins (Figs. 8–10); MACRetries the link-layer
	// retransmissions per trial.
	GoodputBPS stats.Estimate `json:"goodputBps"`
	MACRetries stats.Estimate `json:"macRetries"`
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
	// FailingCells names the trials that reported invariant violations, in
	// trial order; nil when Violations is 0.
	FailingCells []FailingCell `json:"failingCells,omitempty"`
}

// FailingCell is one trial of a sweep row that violated an invariant,
// with the seed that replays it alone: `cavenet scenario run <scenario>
// -protocol <protocol> -seed <Seed>`, plus the sweep's own -quick, -nodes
// and -time, reproduces the cell's TrialResult exactly.
type FailingCell struct {
	Trial      int   `json:"trial"`
	Seed       int64 `json:"seed"`
	Violations int   `json:"violations"`
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
	GoodputBPS     float64 `json:"goodputBps"`
	MACRetries     float64 `json:"macRetries"`
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

// maxGridRuns bounds a grid's scenarios × protocols × trials.
const maxGridRuns = 1 << 16

// NewGrid validates a sweep config and expands it: the scenario axis is
// resolved to specs (shrunk and overridden as requested) and every one
// normalized, the protocol axis is checked, and the trial count
// defaulted — so a grid that cannot run is rejected here, before its
// first run. The returned grid is immutable; its cells can run in any
// order and still produce identical results.
func NewGrid(cfg SweepConfig) (*Grid, error) {
	var specs []Spec
	switch {
	case len(cfg.Specs) > 0 && len(cfg.Scenarios) > 0:
		return nil, fmt.Errorf("scenario: a sweep takes Scenarios or Specs, not both")
	case len(cfg.Specs) > 0:
		for _, s := range cfg.Specs {
			cfg.Scenarios = append(cfg.Scenarios, s.Name)
			specs = append(specs, s.clone())
		}
	default:
		all := len(cfg.Scenarios) == 0
		names := cfg.Scenarios
		if all {
			names = Names()
		}
		for _, name := range names {
			s, ok := Get(name)
			if !ok {
				return nil, fmt.Errorf("scenario: unknown scenario %q", name)
			}
			if all {
				// Heavy catalogue entries (10k-vehicle workloads) join a
				// sweep only when named explicitly.
				if s.Heavy {
					continue
				}
				cfg.Scenarios = append(cfg.Scenarios, name)
			}
			specs = append(specs, s)
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
	if !(cfg.OverrideTimeSec >= 0) || cfg.OverrideNodes < 0 {
		return nil, fmt.Errorf("scenario: negative override (timeSec %v, nodes %d)", cfg.OverrideTimeSec, cfg.OverrideNodes)
	}
	// Bound the client-controlled run count before any per-cell work.
	if n := len(specs) * len(cfg.Protocols); len(specs) > maxGridRuns/len(cfg.Protocols) || cfg.Trials > maxGridRuns/max(n, 1) {
		return nil, fmt.Errorf("scenario: %d scenarios × %d protocols × %d trials exceed %d runs", len(specs), len(cfg.Protocols), cfg.Trials, maxGridRuns)
	}
	// specs holds the grid's own copies (Get and the Specs case clone), so
	// the rewrites apply in place: one clone per scenario.
	for i := range specs {
		s := &specs[i]
		if cfg.Shrunk {
			s.shrink()
		}
		if cfg.OverrideNodes > 0 {
			if err := s.rescale(cfg.OverrideNodes); err != nil {
				return nil, err
			}
		}
		if cfg.OverrideTimeSec > 0 {
			s.setSimTime(sim.Seconds(cfg.OverrideTimeSec))
		}
		// Stored normalized: cells only fork the seed, rows read the fleet.
		if err := s.normalize(); err != nil {
			return nil, err
		}
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
	base := g.specs[j/g.Trials].clone() // normalized by NewGrid; no default depends on the seed
	base.Seed = g.CellSeed(j)
	return base, nil
}

// SimTime is scenario i's simulated duration, read from the stored spec
// without cloning it: every cell of the scenario runs that long.
func (g *Grid) SimTime(i int) sim.Time { return g.specs[i].SimTime }

// CellSeed is cell j's seed: root -> scenario -> trial.
func (g *Grid) CellSeed(j int) int64 {
	return rng.NewSource(g.Seed).Fork(j / g.Trials).Fork(j % g.Trials).Seed()
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
		if shared, err = buildTrace(&base); err != nil {
			return nil, fmt.Errorf("scenario: sweep mobility (%s trial %d): %w", base.Name, trial, err)
		}
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
			r, _, err := runCheckedOnSource(&run, msrc, report)
			if err != nil {
				return nil, fmt.Errorf("scenario: sweep %s/%s trial %d: %w", base.Name, p, trial, err)
			}
			res, violations = r, report.Total()
		} else {
			r, _, err := runOnSource(&run, msrc, nil, nil)
			if err != nil {
				return nil, fmt.Errorf("scenario: sweep %s/%s trial %d: %w", base.Name, p, trial, err)
			}
			res = r
		}
		out[pi] = TrialOf(res, violations)
	}
	return out, nil
}

// TrialOf scalarizes one finished run into the figures a sweep row
// aggregates: per-sender delays are averaged, per-sender goodput series
// are summed and averaged over the run's 1-s bins.
func TrialOf(res *Result, violations int) TrialResult {
	tr := TrialResult{
		PDR:            res.TotalPDR(),
		ControlPackets: float64(res.ControlPackets),
		MACRetries:     float64(res.MACStats.Retries),
		Delivered:      res.TotalDelivered(),
		Violations:     violations,
	}
	var delaySum, bitsPerSec float64
	bins := 0
	for _, snd := range res.Senders {
		delaySum += res.MeanDelaySec[snd]
		for _, bps := range res.Goodput[snd] {
			bitsPerSec += bps
		}
		bins = max(bins, len(res.Goodput[snd]))
	}
	if n := len(res.Senders); n > 0 {
		tr.DelaySec = delaySum / float64(n)
	}
	if bins > 0 {
		tr.GoodputBPS = bitsPerSec / float64(bins)
	}
	if r := res.Resilience; r != nil {
		tr.DowntimeSec = r.DowntimeNodeSec
		tr.FaultPDR = r.PDRDuring
	}
	return tr
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
			row := SweepRow{Scenario: name, Protocol: p, Nodes: g.specs[si].TotalVehicles(), Trials: nt}
			pick := func(f func(TrialResult) float64) stats.Estimate {
				for t := 0; t < nt; t++ {
					samples[t] = f(cells[si*nt+t][pi])
				}
				return stats.EstimateOf(samples)
			}
			row.PDR = pick(func(r TrialResult) float64 { return r.PDR })
			row.DelaySec = pick(func(r TrialResult) float64 { return r.DelaySec })
			row.ControlPackets = pick(func(r TrialResult) float64 { return r.ControlPackets })
			row.GoodputBPS = pick(func(r TrialResult) float64 { return r.GoodputBPS })
			row.MACRetries = pick(func(r TrialResult) float64 { return r.MACRetries })
			row.DowntimeSec = pick(func(r TrialResult) float64 { return r.DowntimeSec })
			row.FaultPDR = pick(func(r TrialResult) float64 { return r.FaultPDR })
			for t := 0; t < nt; t++ {
				r := cells[si*nt+t][pi]
				row.Delivered += r.Delivered
				row.Violations += r.Violations
				if r.Violations > 0 {
					row.FailingCells = append(row.FailingCells,
						FailingCell{Trial: t, Seed: g.CellSeed(si*nt + t), Violations: r.Violations})
				}
			}
			out = append(out, row)
		}
	}
	return out
}

// Run executes the whole grid on the deterministic parallel engine and
// aggregates it. The unit of work is one (scenario, trial) cell (see
// RunCell); all randomness derives from the cell's index, so the output
// is bit-identical for every worker count (<= 0 uses every core).
func (g *Grid) Run(workers int) ([]SweepRow, error) {
	cells, err := exp.Map(exp.Runner{Workers: workers}, g.Cells(), func(j int) ([]TrialResult, error) {
		return g.RunCell(j, g.Protocols)
	})
	if err != nil {
		return nil, err
	}
	return g.Aggregate(cells), nil
}

// Sweep expands cfg into a Grid and runs it.
func Sweep(cfg SweepConfig) ([]SweepRow, error) {
	g, err := NewGrid(cfg)
	if err != nil {
		return nil, err
	}
	return g.Run(cfg.Workers)
}
