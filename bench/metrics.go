package main

import (
	"encoding/json"
	"strings"
)

// This file declares the benchmark: its workloads, its end-to-end metrics
// with their bounds, and every per-layer metric. BENCHMARK.json at the root
// of the repository is generated from these tables (`go run ./bench -spec`)
// and a self-test keeps the two identical. Which layer a metric belongs to
// and which end-to-end metric it is predicted to move is in README.md.

// runSeconds is how long one run measures.
const runSeconds = 10

// workloadDecl names a workload and records why it is in the benchmark.
// Reps is how many untraced runs of it the suite makes: five, and three
// for the workload with the fewest op sets per second of budget.
type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	Reps int    `json:"-"`
}

var workloadDecls = []workloadDecl{
	{"table1", "the paper's Table I run (30 vehicles, 3 km, AODV/OLSR/DYMO): small-N regime where per-event kernel and PHY costs dominate", 5},
	{"metro2k", "metro rescaled to 2000 vehicles under AODV: the scale regime, RREQ floods over thousands of radios and pending events", 3},
	{"urban_olsr", "manhattan and downtown forced to OLSR: the one place a routing control plane dominates the profile", 5},
	{"ba_fundamental", "Fig. 4 fundamental diagram: pure CA stepping with no network stack, the bypass for every sim/phy/mac/routing change", 5},
	{"sweep_quick", "checked quick sweep of the catalogue x 4 protocols: short-lived worlds, faults, the invariant harness and exp.Map parallelism", 5},
	{"serve_warm", "warm submit-stream-artifact round trips against the in-process daemon over loopback: admission, cache, aggregate, render", 5},
}

// e2eDecl is one end-to-end metric with its two bounds, each the share of
// the parent's median by which the metric may worsen before a change
// counts as a regression, and each beside the widest quartile spread seen
// on any workload when it was calibrated on the seed commit (see
// "Calibration of the bounds" in README.md).
//
// Bound and Spread are for runs of one seed — the same inputs, so only the
// host differs: what -compare and -sets judge by. DriverBound is the
// `bound` of BENCHMARK.json, which the benchmark contract holds against
// runs that each take another seed — other inputs, other amounts of work —
// and so cannot be tighter than SeedSpread, the spread across seeds.
type e2eDecl struct {
	Name        string
	Unit        string
	Better      string
	Bound       float64
	Spread      float64
	DriverBound float64
	SeedSpread  float64
}

var e2eDecls = []e2eDecl{
	{"wall_s", "s", "lower", 0.25, 0.116, 0.25, 0.206},
	{"cpu_s", "s", "lower", 0.25, 0.119, 0.25, 0.176},
	{"setup_s", "s", "lower", 0.25, 0.156, 0.25, 0.160},
	{"alloc_mb", "MB", "lower", 0.03, 0.0002, 0.25, 0.077},
	{"peak_rss_mb", "MB", "lower", 0.16, 0.077, 0.25, 0.130},
}

// layerDecl is one per-layer metric. Exact marks the work counts: a
// deterministic simulator repeats them exactly, so they identify the
// simulated model, not its speed.
type layerDecl struct {
	Name   string
	Unit   string
	Better string
	Exact  bool
}

var layerDecls = func() []layerDecl {
	var d []layerDecl
	add := func(unit, better string, exact bool, names ...string) {
		for _, name := range names {
			d = append(d, layerDecl{name, unit, better, exact})
		}
	}
	// Sampled self time: CPU samples charged to the innermost layer frame.
	for _, layer := range profileLayers {
		add("s", "lower", false, layer+".self_s")
	}
	add("s", "lower", false, "runtime.gc_self_s", "other.self_s")
	add("count", "higher", false, "trace.samples")
	add("ratio", "lower", false, "trace.overhead_ratio")

	// Spans around the benchmark's own calls into the layers.
	add("s", "lower", false, "scenario.build_source_s", "scenario.world_setup_s", "scenario.event_loop_s", "mobility.at_busy_s")
	add("count", "lower", false, "mobility.at_calls", "mobility.ticks")
	add("s", "lower", false, "scenario.run_cell_busy_s", "scenario.aggregate_s", "scenario.render_s")
	add("ratio", "higher", false, "exp.parallel_efficiency")
	add("s", "lower", false, "core.fundamental_s")
	add("count", "lower", true, "ca.vehicle_steps")
	add("ns", "lower", false, "ca.ns_per_vehicle_step")
	add("ms", "lower", false, "serve.submit_ms_p50", "serve.stream_ms_p50", "serve.artifact_ms_p50", "serve.roundtrip_p99_ms")
	add("s", "lower", false, "serve.cold_overhead_s")
	add("kB", "lower", false, "serve.heap_growth_kb_per_op")

	// Exact work counts.
	add("count", "higher", true, "serve.cache_hits")
	add("count", "lower", true, "serve.cache_misses")
	add("ratio", "higher", true, "serve.cache_hit_ratio")
	add("count", "lower", true, "serve.jobs_done")
	add("count", "higher", true, "traffic.sent", "traffic.delivered")
	add("ratio", "higher", true, "traffic.pdr")
	add("count", "lower", true, "mac.data_tx", "mac.ack_tx", "mac.retries")
	add("ratio", "lower", true, "mac.retry_ratio")
	add("count", "lower", true, "mac.failures", "mac.queue_drops", "mac.bytes_tx", "routing.ctrl_packets", "routing.ctrl_bytes")
	add("ratio", "lower", true, "routing.ctrl_per_delivered")
	add("count", "lower", true, "metrics.drops", "metrics.unreachable", "scenario.check.violations")
	add("us", "lower", false, "scenario.wall_us_per_frame")
	add("count", "higher", true, "bench.work_units")
	add("count", "higher", false, "bench.op_sets")

	// Runtime and host.
	add("count", "lower", false, "runtime.mallocs", "runtime.gc_cycles")
	add("ms", "lower", false, "runtime.gc_pause_ms")
	add("MB", "lower", false, "runtime.heap_inuse_peak_mb")
	add("s", "lower", false, "host.calib_s")
	add("ratio", "lower", false, "host.calib_drift")
	return d
}()

// benchmarkSpec renders BENCHMARK.json: the contract's keys and nothing
// else.
func benchmarkSpec() ([]byte, error) {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	spec := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadDecl `json:"workloads"`
		EndToEnd   []metric       `json:"end_to_end"`
		PerLayer   []metric       `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDecls,
	}
	for _, m := range e2eDecls {
		bound := m.DriverBound
		spec.EndToEnd = append(spec.EndToEnd, metric{m.Name, m.Unit, m.Better, &bound})
	}
	for _, m := range layerDecls {
		spec.PerLayer = append(spec.PerLayer, metric{m.Name, m.Unit, m.Better, nil})
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(spec); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}
