package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// childConfig is one run of one workload: what the benchmark contract's
// command line asks for, plus where the suite wants the fuller report.
type childConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Smoke    bool
	Detail   string // path of the detailed JSON report; "" writes none
	OutDir   string // where the traced pass writes <workload>.trace.json; "" writes none
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childResult is the run's last line of standard output.
type childResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// childDetail is the fuller report the suite builds its record from.
type childDetail struct {
	childResult
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	OpSets      int                `json:"op_sets"`
	OpsPerSet   int                `json:"ops_per_set"`
	WorkUnits   float64            `json:"work_units"`
	Digest      string             `json:"digest"`
	PerSet      map[string]summary `json:"per_set"` // over the run's op sets; setup_s without child start
	CalibBefore float64            `json:"calib_before_s"`
	CalibAfter  float64            `json:"calib_after_s"`
	Errors      []string           `json:"errors,omitempty"`
}

// calibDrift is how far the host calibrations before and after the run
// disagree, as a share of the first.
func (d *childDetail) calibDrift() float64 {
	return math.Abs(d.CalibAfter-d.CalibBefore) / d.CalibBefore
}

// metricDecl is a declared metric's name and unit.
type metricDecl struct{ Name, Unit string }

// declared lists, in declaration order, the metrics a run reports: the
// per-layer ones when traced, the end-to-end ones otherwise.
func declared(trace bool) []metricDecl {
	var out []metricDecl
	if trace {
		for _, m := range layerDecls {
			out = append(out, metricDecl{m.Name, m.Unit})
		}
		return out
	}
	for _, m := range e2eDecls {
		out = append(out, metricDecl{m.Name, m.Unit})
	}
	return out
}

// measure runs op sets until the budget is spent, and at least minSets. A
// further set starts only while at least half of it still fits. A traced
// pass goes on, to at most twice its budget, until the profiler has taken
// minSamples samples. Every set starts from a settled heap, as a fresh
// process would, and is bracketed by short host calibrations.
func measure(w workload, tr *tracer, budget time.Duration, minSets, firstSet int) []setResult {
	var sets []setResult
	start := time.Now()
	for {
		settle()
		calib := calibrate(setCalibSteps)
		begin := time.Now()
		set := w.runSet(tr, firstSet+len(sets))
		last := time.Since(begin)
		set.PeakRSSMB = peakRSSMB()
		set.Host = hostFactor(setCalibSteps, (calib+calibrate(setCalibSteps))/2)
		sets = append(sets, set)
		spent := time.Since(start)
		if tr != nil && tr.samples < minSamples && spent < 2*budget {
			continue
		}
		if len(sets) >= minSets && spent+last/2 >= budget {
			return sets
		}
	}
}

func column(sets []setResult, f func(*setResult) float64) []float64 {
	out := make([]float64, len(sets))
	for i := range sets {
		out[i] = f(&sets[i])
	}
	return out
}

// runChild measures one workload and reports its metrics: the end-to-end
// ones from untraced op sets, or — with Trace — the per-layer ones from a
// traced pass that follows a shorter untraced one.
func runChild(cfg childConfig) (childDetail, error) {
	runtime.GOMAXPROCS(workers())
	d := childDetail{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	steps, spawns, minSets := calibSteps, 7, 3
	if cfg.Smoke {
		steps, spawns, minSets = 1<<20, 1, 1
	}
	d.CalibBefore = calibrate(steps)
	procStart, err := probeProcStart(spawns)
	if err != nil {
		return d, fmt.Errorf("bench: child-start probe: %w", err)
	}
	w, err := newWorkload(cfg.Workload, cfg.Seed, cfg.Smoke)
	if err != nil {
		return d, err
	}

	budget := time.Duration(cfg.Seconds * float64(time.Second))
	untracedBudget := budget
	if cfg.Trace {
		untracedBudget = budget * 35 / 100
	}
	sets := measure(w, nil, untracedBudget, minSets, 0)
	var tr *tracer
	var traced []setResult
	if cfg.Trace {
		tr = newTracer()
		traced = measure(w, tr, budget-untracedBudget, (minSets+1)/2, len(sets))
	}
	d.CalibAfter = calibrate(steps)

	// Everything below is outside the timed phase: replays must agree
	// with the first op set, then the workload verifies its outputs.
	first := &sets[0]
	all := append(append([]setResult(nil), sets...), traced...)
	for i := range all {
		s := &all[i]
		d.Attempted += s.Ops
		d.Failed += s.Failed
		d.Errors = append(d.Errors, s.Errors...)
		if s.Failed == 0 && (s.Digest != first.Digest || s.Counts != first.Counts) {
			d.Failed += s.Ops
			d.Errors = append(d.Errors, fmt.Sprintf("op set %d: result digest or work counts differ from op set 0", i))
		}
	}
	ops, failures := w.verify(first)
	d.Attempted += ops
	d.Failed += len(failures)
	d.Errors = append(d.Errors, failures...)
	d.Correct = d.Failed == 0

	d.OpSets, d.OpsPerSet = len(sets), first.Ops
	d.WorkUnits, d.Digest = first.Work, first.Digest
	// Times are reported in reference-host seconds: each op set's reading
	// scaled by the host calibration taken around it.
	wall := column(sets, func(s *setResult) float64 { return s.WallS * s.Host })
	cpu := column(sets, func(s *setResult) float64 { return s.CPUS * s.Host })
	setup := column(sets, func(s *setResult) float64 { return s.SetupS * s.Host })
	alloc := column(sets, func(s *setResult) float64 { return s.AllocMB })
	rss := column(sets, func(s *setResult) float64 { return s.PeakRSSMB })
	d.PerSet = map[string]summary{
		"wall_s": summarize(wall), "cpu_s": summarize(cpu), "alloc_mb": summarize(alloc),
		"setup_s": summarize(setup), "peak_rss_mb": summarize(rss),
		"wall_raw_s":  summarize(column(sets, func(s *setResult) float64 { return s.WallS })),
		"host_factor": summarize(column(sets, func(s *setResult) float64 { return s.Host })),
	}

	vals := map[string]float64{}
	if !cfg.Trace {
		vals["wall_s"] = median(wall)
		vals["cpu_s"] = median(cpu)
		vals["alloc_mb"] = median(alloc)
		vals["setup_s"] = procStart*hostFactor(steps, d.CalibBefore) + median(setup)
		vals["peak_rss_mb"] = median(rss)
	} else {
		layerValues(vals, w, sets, traced, tr)
		vals["bench.work_units"] = first.Work
		vals["bench.op_sets"] = float64(len(sets) + len(traced))
		vals["host.calib_s"] = (d.CalibBefore + d.CalibAfter) / 2
		vals["host.calib_drift"] = d.calibDrift()
		if cfg.OutDir != "" {
			if err := tr.write(filepath.Join(cfg.OutDir, cfg.Workload+".trace.json")); err != nil {
				return d, fmt.Errorf("bench: writing spans: %w", err)
			}
		}
	}
	d.Metrics = make(map[string]metricValue)
	for _, m := range declared(cfg.Trace) {
		d.Metrics[m.Name] = metricValue{vals[m.Name], m.Unit}
	}
	for name := range vals {
		if _, ok := d.Metrics[name]; !ok {
			return d, fmt.Errorf("bench: metric %q is computed but not declared", name)
		}
	}
	if cfg.Detail != "" {
		if err := writeJSON(cfg.Detail, d); err != nil {
			return d, err
		}
	}
	return d, nil
}

// layerValues fills the per-layer metrics. Self times and spans come from
// the traced op sets and are reported per op set, so they add up against
// wall_s; exact counts and runtime figures come from the untraced ones.
func layerValues(vals map[string]float64, w workload, sets, traced []setResult, tr *tracer) {
	n := float64(len(traced))
	secs := layerSeconds(tr.stacks)
	for _, layer := range profileLayers {
		vals[layer+".self_s"] = secs[layer] / n
	}
	vals["runtime.gc_self_s"] = secs[layerGC] / n
	vals["other.self_s"] = secs[layerOther] / n
	vals["trace.samples"] = float64(tr.samples)
	// Both passes in reference-host seconds: they run one after the other,
	// and the host does not hold its speed that long.
	refWall := func(s *setResult) float64 { return s.WallS * s.Host }
	if untraced := median(column(sets, refWall)); untraced > 0 {
		vals["trace.overhead_ratio"] = median(column(traced, refWall))/untraced - 1
	}
	wall := median(column(sets, func(s *setResult) float64 { return s.WallS }))

	perSet := func(span string) float64 { return tr.total(span) / n }
	vals["scenario.build_source_s"] = perSet("scenario.build_source")
	vals["scenario.world_setup_s"] = perSet("scenario.world_setup")
	vals["scenario.event_loop_s"] = perSet("scenario.event_loop")
	vals["scenario.run_cell_busy_s"] = perSet("scenario.run_cell")
	vals["scenario.aggregate_s"] = perSet("scenario.aggregate")
	vals["scenario.render_s"] = perSet("scenario.render")
	vals["core.fundamental_s"] = perSet("core.fundamental")
	obs := func(f func(*layerObs) float64) float64 {
		return median(column(traced, func(s *setResult) float64 { return f(&s.Obs) }))
	}
	vals["mobility.at_busy_s"] = obs(func(o *layerObs) float64 { return o.AtBusyS })
	vals["mobility.at_calls"] = obs(func(o *layerObs) float64 { return o.AtCalls })
	vals["mobility.ticks"] = obs(func(o *layerObs) float64 { return o.Ticks })

	// Parallel efficiency: busy time of the engine's jobs over the wall
	// they could have filled. The sweep's jobs are spans of this
	// benchmark; the diagram's are inside core, so there the process's CPU
	// time stands in for their sum.
	last := &traced[len(traced)-1]
	if workers := last.Obs.Workers; workers > 0 {
		if mapWall := tr.total("exp.map"); mapWall > 0 {
			vals["exp.parallel_efficiency"] = tr.total("scenario.run_cell") / (mapWall * workers)
		} else if last.WallS > 0 {
			vals["exp.parallel_efficiency"] = last.CPUS / (last.WallS * workers)
		}
	}
	if steps := last.Obs.VehicleSteps; steps > 0 {
		vals["ca.vehicle_steps"] = steps
		vals["ca.ns_per_vehicle_step"] = median(column(sets, func(s *setResult) float64 { return s.CPUS })) * 1e9 / steps
	}

	if sw, ok := w.(*serveWorkload); ok {
		var submit, stream, artifact, trips []float64
		for i := range traced {
			o := &traced[i].Obs
			submit = append(submit, o.SubmitMS...)
			stream = append(stream, o.StreamMS...)
			artifact = append(artifact, o.ArtifactMS...)
		}
		for i := range sets { // the untraced trips: what a client sees
			trips = append(trips, sets[i].Obs.RoundTripMS...)
		}
		vals["serve.submit_ms_p50"] = median(submit)
		vals["serve.stream_ms_p50"] = median(stream)
		vals["serve.artifact_ms_p50"] = median(artifact)
		vals["serve.roundtrip_p99_ms"] = percentile(trips, 99)
		vals["serve.cold_overhead_s"] = median(column(sets, func(s *setResult) float64 { return s.SetupS })) - sw.refSweepS
		vals["serve.heap_growth_kb_per_op"] = obs(func(o *layerObs) float64 { return o.HeapGrowthKB })
		m := last.Obs.Serve
		vals["serve.cache_hits"] = float64(m.CacheHits)
		vals["serve.cache_misses"] = float64(m.CacheMisses)
		if total := m.CacheHits + m.CacheMisses; total > 0 {
			vals["serve.cache_hit_ratio"] = float64(m.CacheHits) / float64(total)
		}
		vals["serve.jobs_done"] = float64(m.JobsDone)
	}

	first := &sets[0]
	c := first.Counts
	vals["traffic.sent"] = float64(c.Sent)
	vals["traffic.delivered"] = float64(c.Delivered)
	vals["mac.data_tx"] = float64(c.DataTx)
	vals["mac.ack_tx"] = float64(c.AckTx)
	vals["mac.retries"] = float64(c.Retries)
	vals["mac.failures"] = float64(c.Failures)
	vals["mac.queue_drops"] = float64(c.QueueDrops)
	vals["mac.bytes_tx"] = float64(c.BytesTx)
	vals["routing.ctrl_packets"] = float64(c.CtrlPackets)
	vals["routing.ctrl_bytes"] = float64(c.CtrlBytes)
	vals["metrics.drops"] = float64(c.Drops)
	vals["metrics.unreachable"] = float64(c.Unreachable)
	vals["scenario.check.violations"] = float64(c.Violations)
	if c.Sent > 0 {
		vals["traffic.pdr"] = float64(c.Delivered) / float64(c.Sent)
	}
	if c.DataTx > 0 {
		vals["mac.retry_ratio"] = float64(c.Retries) / float64(c.DataTx)
	}
	if c.Delivered > 0 {
		vals["routing.ctrl_per_delivered"] = float64(c.CtrlPackets) / float64(c.Delivered)
	}
	if frames := c.frames(); frames > 0 {
		vals["scenario.wall_us_per_frame"] = wall * 1e6 / frames
	}

	vals["runtime.mallocs"] = median(column(sets, func(s *setResult) float64 { return s.Mallocs }))
	vals["runtime.gc_cycles"] = median(column(sets, func(s *setResult) float64 { return s.GCCycles }))
	vals["runtime.gc_pause_ms"] = median(column(sets, func(s *setResult) float64 { return s.GCPauseMS }))
	for i := range sets {
		vals["runtime.heap_inuse_peak_mb"] = math.Max(vals["runtime.heap_inuse_peak_mb"], sets[i].HeapInuseMB)
	}
}

// printChild writes every metric by name with its unit, then the result
// line the benchmark contract specifies — the last line of the output.
func printChild(out io.Writer, d childDetail) error {
	fmt.Fprintf(out, "workload %s seed %d: %d op sets of %d ops, %g work units, GOMAXPROCS %d\n",
		d.Workload, d.Seed, d.OpSets, d.OpsPerSet, d.WorkUnits, d.GOMAXPROCS)
	for _, m := range declared(d.Trace) {
		fmt.Fprintf(out, "%-32s %14.6g %s\n", m.Name, d.Metrics[m.Name].Value, m.Unit)
	}
	fmt.Fprintf(out, "%-32s %14.6g (%d failed of %d ops)\n", "error_rate", float64(d.Failed)/float64(d.Attempted), d.Failed, d.Attempted)
	for _, e := range d.Errors {
		fmt.Fprintln(out, "FAIL:", e)
	}
	line, err := json.Marshal(d.childResult)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
