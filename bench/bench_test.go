package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"cavenet/internal/geometry"
	"cavenet/internal/mobility"
	"cavenet/internal/scenario"
	"cavenet/internal/sim"
)

func TestMain(m *testing.M) {
	if os.Getenv(noopEnv) != "" {
		os.Exit(0) // child-start probe re-executing the test binary
	}
	os.Exit(m.Run())
}

// TestBenchmarkJSON holds the committed BENCHMARK.json to the contract's
// limits and to the declarations in metrics.go it is generated from.
func TestBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := benchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, want) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with `go run ./bench -spec > BENCHMARK.json`")
	}
	if len(committed) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, limit 64 KiB", len(committed))
	}

	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              *float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
			Bound              *float64
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(committed))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	direction := func(n, b string) {
		t.Helper()
		if b != "lower" && b != "higher" {
			t.Errorf("%s: better = %q", n, b)
		}
	}

	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.ContainsRune(w.Why, '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
		if _, err := newWorkload(w.Name, 1, true); err != nil {
			t.Errorf("declared workload %s cannot be prepared: %v", w.Name, err)
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		name(m.Name)
		hasSetup = hasSetup || m.Name == "setup_s"
		direction(m.Name, m.Better)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better")
		}
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric")
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		direction(m.Name, m.Better)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound != nil {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}

	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", spec.RunSeconds)
	}
	if len(spec.Command) == 0 || len(spec.Command) > 32 {
		t.Errorf("command has %d strings", len(spec.Command))
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", spec.Paths)
	}
}

// ---- profile attribution ----

// protoBuilder writes just enough protobuf to synthesize a profile.
type protoBuilder struct{ bytes.Buffer }

func (p *protoBuilder) varint(v uint64) {
	for v >= 0x80 {
		p.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	p.WriteByte(byte(v))
}

func (p *protoBuilder) uintField(num int, v uint64) {
	p.varint(uint64(num)<<3 | 0)
	p.varint(v)
}

func (p *protoBuilder) bytesField(num int, b []byte) {
	p.varint(uint64(num)<<3 | 2)
	p.varint(uint64(len(b)))
	p.Write(b)
}

func (p *protoBuilder) packed(num int, vs ...uint64) {
	var inner protoBuilder
	for _, v := range vs {
		inner.varint(v)
	}
	p.bytesField(num, inner.Bytes())
}

// syntheticProfile encodes stacks (innermost frame first) as a gzipped
// profile.proto; each location holds its frames as inlined lines, so
// frames[i] may list several functions, innermost first.
func syntheticProfile(stacks [][][]string, cpuNs uint64) []byte {
	var prof protoBuilder
	strIdx := map[string]uint64{"": 0}
	strs := []string{""}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	funcID := map[string]uint64{}
	var funcs, locs protoBuilder
	nextLoc := uint64(1)
	for _, stack := range stacks {
		var locIDs []uint64
		for _, frames := range stack {
			var loc protoBuilder
			loc.uintField(1, nextLoc)
			for _, fn := range frames {
				id, ok := funcID[fn]
				if !ok {
					id = uint64(len(funcID) + 1)
					funcID[fn] = id
					var f protoBuilder
					f.uintField(1, id)
					f.uintField(2, intern(fn))
					funcs.bytesField(5, f.Bytes())
				}
				var line protoBuilder
				line.uintField(1, id)
				loc.bytesField(4, line.Bytes())
			}
			locs.bytesField(4, loc.Bytes())
			locIDs = append(locIDs, nextLoc)
			nextLoc++
		}
		var sample protoBuilder
		sample.packed(1, locIDs...)
		sample.packed(2, 1, cpuNs)
		prof.bytesField(2, sample.Bytes())
	}
	prof.Write(locs.Bytes())
	prof.Write(funcs.Bytes())
	for _, s := range strs {
		prof.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	_, _ = zw.Write(prof.Bytes())
	_ = zw.Close()
	return gz.Bytes()
}

func TestProfileAttribution(t *testing.T) {
	one := func(fn string) []string { return []string{fn} }
	stacks := [][][]string{
		// runtime work called from phy counts as phy, not as its callers.
		{one("runtime.mallocgc"), one("sort.Slice"), one("cavenet/internal/phy.(*Channel).signalEnd"),
			one("cavenet/internal/sim.(*Kernel).RunUntil"), one("main.main"), one("runtime.main")},
		// an inlined support-package frame is charged to its caller's layer.
		{{"cavenet/internal/geometry.Vec2.Dist", "cavenet/internal/routing/aodv.(*Router).forward"},
			one("cavenet/internal/mac.(*DCF).deliver")},
		// sub-packages and generic instantiations.
		{one("cavenet/internal/scenario/check.(*Ledger).sent"), one("cavenet/internal/scenario.runOnSource")},
		{one("cavenet/internal/exp.Map[go.shape.[]cavenet/internal/scenario.TrialResult].func3")},
		// background GC: the runtime's frames and nothing else.
		{one("runtime.scanobject"), one("runtime.gcDrain"), one("runtime.gcBgMarkWorker")},
		// no layer frame, not all runtime: other.
		{one("runtime.memmove"), one("encoding/json.(*encodeState).marshal"), one("net/http.(*conn).serve")},
		{one("cavenet/bench.(*timedSource).At"), one("runtime.main")},
	}
	want := map[string]float64{
		"phy": 0.01, "routing.aodv": 0.01, "scenario.check": 0.01, "exp": 0.01,
		layerGC: 0.01, layerOther: 0.02,
	}
	samples, err := parseProfile(syntheticProfile(stacks, 10_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Errorf("%d samples, want %d", len(samples), len(stacks))
	}
	got := layerSeconds(samples)
	for layer, secs := range want {
		if d := got[layer] - secs; d > 1e-9 || d < -1e-9 {
			t.Errorf("layer %s: %.3f s, want %.3f", layer, got[layer], secs)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers charged: %v, want %v", got, want)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

// TestProfileFromRuntime reads a profile runtime/pprof really wrote.
func TestProfileFromRuntime(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	calibrate(1 << 26)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		for _, fn := range s.Stack {
			if strings.HasSuffix(fn, "bench.calibrate") {
				return
			}
		}
	}
	t.Errorf("no sample of %d shows the calibration loop", len(samples))
}

func TestStats(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if m := median(ten); m != 5.5 {
		t.Errorf("median = %v", m)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v", q1, q3)
	}
	if s := spread(ten); s != 1 {
		t.Errorf("spread = %v", s)
	}
	if p := percentile(ten, 99); p != 10 {
		t.Errorf("p99 = %v", p)
	}
	if p := percentile(ten, 50); p != 5 {
		t.Errorf("p50 = %v", p)
	}
	s := summarize(ten)
	if s.N != 10 || s.Min != 1 || s.Max != 10 || s.Median != 5.5 {
		t.Errorf("summary = %+v", s)
	}
	if median(nil) != 0 || spread(nil) != 0 || percentile(nil, 50) != 0 {
		t.Error("empty input must read 0")
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{1.00, 1.01, 0.99}
	cases := []struct {
		change []float64
		want   string
	}{
		{[]float64{1.00, 1.02, 0.98}, verdictWithin},
		{[]float64{1.30, 1.31, 1.29}, verdictRegressed},
		{[]float64{0.80, 0.81, 0.79}, verdictImproved},
		{[]float64{0.70, 1.40, 1.00}, verdictUnresolved},
		{[]float64{2.00, 3.00, 4.00}, verdictRegressed}, // wide but every run worse
	}
	for _, c := range cases {
		if got, _ := verdict(parent, c.change, true, 0.15); got != c.want {
			t.Errorf("change %v: %s, want %s", c.change, got, c.want)
		}
	}
	if got, _ := verdict(parent, []float64{1.3, 1.31, 1.29}, false, 0.15); got != verdictImproved {
		t.Errorf("higher-is-better: %s", got)
	}
}

// ---- the timing mobility.Source wrapper ----

// queryLog records the queries a source receives, in order.
type queryLog struct {
	mobility.Source
	nodes []int
	times []float64
}

func (q *queryLog) At(node int, tsec float64) geometry.Vec2 {
	q.nodes = append(q.nodes, node)
	q.times = append(q.times, tsec)
	return q.Source.At(node, tsec)
}

func TestTimedSourcePreservesRun(t *testing.T) {
	spec, err := catalogue("highway")
	if err != nil {
		t.Fatal(err)
	}
	spec = withSimTime(spec, 10*sim.Second)
	spec.Seed = 7
	run := func(wrap func(mobility.Source) mobility.Source) (*scenario.Result, *queryLog) {
		src, err := scenario.BuildSource(spec)
		if err != nil {
			t.Fatal(err)
		}
		log := &queryLog{Source: src}
		res, err := scenario.RunOnSource(spec, wrap(log))
		if err != nil {
			t.Fatal(err)
		}
		return res, log
	}
	plain, plainLog := run(func(s mobility.Source) mobility.Source { return s })
	for _, timing := range []bool{false, true} {
		var ts *timedSource
		wrapped, log := run(func(s mobility.Source) mobility.Source {
			ts = &timedSource{src: s, timing: timing}
			return ts
		})
		if !reflect.DeepEqual(plain, wrapped) {
			t.Fatalf("timing=%t: result differs from the unwrapped run", timing)
		}
		// The inner source sees the same queries in the same order, so its
		// forward-only cursor advances exactly as in the unwrapped run.
		if !reflect.DeepEqual(plainLog.nodes, log.nodes) || !reflect.DeepEqual(plainLog.times, log.times) {
			t.Fatalf("timing=%t: the wrapper changed the query sequence", timing)
		}
		for i := 1; i < len(log.times); i++ {
			if log.times[i] < log.times[i-1] {
				t.Fatalf("query %d rewinds time", i)
			}
		}
		if ts.loopStart.IsZero() || ts.ticks != 101 {
			t.Errorf("timing=%t: %d mobility ticks seen (want 101: every 100 ms of 10 s), loop start %v", timing, ts.ticks, ts.loopStart)
		}
		if timing && (ts.calls != int64(len(log.nodes)) || ts.busy <= 0) {
			t.Errorf("timed %d of %d calls, busy %v", ts.calls, len(log.nodes), ts.busy)
		}
	}
}

// ---- the whole benchmark at smoke size ----

// TestSmoke runs every workload both ways at tiny sizes: every declared
// metric is emitted, every end-to-end metric is positive, every output
// verifies, and the result line has exactly the contract's keys.
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, decl := range workloadDecls {
		for _, trace := range []bool{false, true} {
			dir := t.TempDir()
			d, err := runChild(childConfig{Workload: decl.Name, Seed: 3, Seconds: 0.05, Trace: trace, Smoke: true, OutDir: dir})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", decl.Name, trace, err)
			}
			if !d.Correct || d.Failed != 0 || d.Attempted < 1 {
				t.Errorf("%s trace=%t: %d of %d ops failed: %v", decl.Name, trace, d.Failed, d.Attempted, d.Errors)
			}
			if trace {
				if len(d.Metrics) != len(layerDecls) {
					t.Errorf("%s: %d per-layer metrics emitted, %d declared", decl.Name, len(d.Metrics), len(layerDecls))
				}
				for _, m := range layerDecls {
					if v, ok := d.Metrics[m.Name]; !ok || v.Unit != m.Unit {
						t.Errorf("%s: per-layer metric %s missing or in the wrong unit", decl.Name, m.Name)
					}
				}
				if _, err := os.Stat(dir + "/" + decl.Name + ".trace.json"); err != nil {
					t.Errorf("%s: no span dump: %v", decl.Name, err)
				}
			} else {
				if len(d.Metrics) != len(e2eDecls) {
					t.Errorf("%s: %d end-to-end metrics emitted, %d declared", decl.Name, len(d.Metrics), len(e2eDecls))
				}
				for _, m := range e2eDecls {
					if v := d.Metrics[m.Name]; v.Value <= 0 || v.Unit != m.Unit {
						t.Errorf("%s: end-to-end metric %s = %v %q", decl.Name, m.Name, v.Value, v.Unit)
					}
				}
			}
			var out bytes.Buffer
			if err := printChild(&out, d); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", decl.Name, err)
			}
			if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
				t.Errorf("%s: result line keys = %v", decl.Name, last)
			}
		}
	}
	t.Logf("smoke pass took %v", time.Since(start))
}

// TestWorkloadsDeriveFromSeed: the same seed prepares the same inputs, a
// different seed different ones.
func TestWorkloadsDeriveFromSeed(t *testing.T) {
	for _, decl := range workloadDecls {
		a, _ := newWorkload(decl.Name, 1, true)
		b, _ := newWorkload(decl.Name, 1, true)
		c, _ := newWorkload(decl.Name, 2, true)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 prepared two different workloads", decl.Name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 prepared the same workload", decl.Name)
		}
	}
}

// TestInputSets: every seed selects one of the verified input sets, and
// never a sweep grid known to hold an invariant violation.
func TestInputSets(t *testing.T) {
	for _, c := range []struct {
		name       string
		seed, want int64
	}{
		{"table1", 1, 1}, {"table1", 64, 64}, {"table1", 65, 1}, {"table1", 0, 64}, {"table1", -1, 63},
		{"table1", 20, 20}, {"sweep_quick", 20, 84}, {"sweep_quick", 20100628, 84}, {"sweep_quick", 21, 21},
	} {
		if got := inputSet(c.name, c.seed); got != c.want {
			t.Errorf("inputSet(%s, %d) = %d, want %d", c.name, c.seed, got, c.want)
		}
	}
	for i := range dirtySweepInputs {
		if dirtySweepInputs[i+inputSets] {
			t.Errorf("input set %d is moved onto %d, which is listed too", i, i+inputSets)
		}
	}
}

// TestViolationFailsOp: a checked re-run that misses a floor of its spec
// (reported by the invariant harness like any violation) fails that op.
func TestViolationFailsOp(t *testing.T) {
	w, err := newWorkload("table1", 1, true)
	if err != nil {
		t.Fatal(err)
	}
	sim := w.(*simWorkload)
	first := sim.runSet(nil, 0)
	if ops, failures := sim.verify(&first); ops != len(sim.specs) || len(failures) != 0 {
		t.Fatalf("clean specs: %d ops, failures %v", ops, failures)
	}
	sim.specs[1].Expect.MinDelivered = 1 << 40
	_, failures := sim.verify(&first)
	if len(failures) != 1 || !strings.Contains(failures[0], "expect") || first.Counts.Violations != 1 {
		t.Errorf("one spec misses its floor: failures %v, %d violations counted", failures, first.Counts.Violations)
	}
}

func TestCompareRecords(t *testing.T) {
	mk := func(wall []float64, sent float64) record {
		w := &workloadRecord{
			Name: "table1", E2E: map[string]*e2eRecord{}, Ops: 10, Digest: "d",
			Layers: map[string]metricValue{"traffic.sent": {sent, "count"}},
		}
		for _, m := range e2eDecls {
			w.E2E[m.Name] = &e2eRecord{Unit: m.Unit, summary: summarize([]float64{1, 1, 1}), Values: []float64{1, 1, 1}}
		}
		w.E2E["wall_s"] = &e2eRecord{Unit: "s", summary: summarize(wall), Values: wall}
		return record{Schema: 1, Sets: []recordSet{{Seed: 1, Workloads: []*workloadRecord{w}}}}
	}
	dir := t.TempDir()
	write := func(name string, r record) string {
		path := dir + "/" + name
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("a.json", mk([]float64{1, 1.01, 0.99}, 100))
	same := write("b.json", mk([]float64{1.02, 1.0, 1.01}, 100))
	slow := write("c.json", mk([]float64{1.5, 1.51, 1.49}, 100))
	model := write("d.json", mk([]float64{1, 1.01, 0.99}, 101))

	var out bytes.Buffer
	regressed, err := compareRecords(&out, parent, same)
	if err != nil || regressed {
		t.Fatalf("same code: regressed=%t err=%v\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), "none") {
		t.Errorf("identical counts not reported as such:\n%s", out.String())
	}
	out.Reset()
	regressed, err = compareRecords(&out, parent, slow)
	if err != nil || !regressed {
		t.Fatalf("slower change: regressed=%t err=%v", regressed, err)
	}
	if !strings.Contains(out.String(), verdictRegressed) || !strings.Contains(out.String(), "none") {
		t.Errorf("missing verdict, or a count diff where there is none:\n%s", out.String())
	}
	// The same speed but another exact count: the change altered the model.
	out.Reset()
	regressed, err = compareRecords(&out, parent, model)
	if err != nil || !regressed {
		t.Fatalf("changed work count: regressed=%t err=%v", regressed, err)
	}
	if !strings.Contains(out.String(), "traffic.sent") {
		t.Errorf("count diff not listed:\n%s", out.String())
	}
}
