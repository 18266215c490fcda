package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"time"

	"cavenet/internal/ca"
	"cavenet/internal/core"
	"cavenet/internal/exp"
	"cavenet/internal/rng"
	"cavenet/internal/scenario"
	"cavenet/internal/serve"
	"cavenet/internal/sim"
)

// workCounts are the exact work counts of an op set, summed over its
// runs. Runs are deterministic, so every replay of an op set must report
// the same counts.
type workCounts struct {
	Sent, Delivered                 uint64
	DataTx, AckTx, RTSTx, CTSTx     uint64
	Retries, Failures, QueueDrops   uint64
	BytesTx, CtrlPackets, CtrlBytes uint64
	Drops, Unreachable              uint64
	Violations                      uint64
}

func (c *workCounts) addResult(r *scenario.Result) {
	for _, snd := range r.Senders {
		c.Sent += r.Sent[snd]
		c.Delivered += r.Delivered[snd]
		c.Unreachable += r.Unreachable[snd]
	}
	m := r.MACStats
	c.DataTx += m.DataTx
	c.AckTx += m.AckTx
	c.RTSTx += m.RTSTx
	c.CTSTx += m.CTSTx
	c.Retries += m.Retries
	c.Failures += m.Failures
	c.QueueDrops += m.QueueDrops
	c.BytesTx += m.BytesTx
	c.CtrlPackets += r.ControlPackets
	c.CtrlBytes += r.ControlBytes
	for _, n := range r.Drops {
		c.Drops += n
	}
}

// frames is every MAC frame put on the air: the unit of simulated work
// of the network workloads until the kernel counts its own events.
func (c workCounts) frames() float64 {
	return float64(c.DataTx + c.AckTx + c.RTSTx + c.CTSTx)
}

// layerObs is what the benchmark's own spans and wrappers saw inside one
// op set; the traced pass reports it.
type layerObs struct {
	AtBusyS, AtCalls, Ticks float64 // timing mobility.Source wrapper
	Workers                 float64 // of the parallel engine
	VehicleSteps            float64
	SubmitMS, StreamMS      []float64 // per warm round trip
	ArtifactMS, RoundTripMS []float64
	HeapGrowthKB            float64
	Serve                   serve.Metrics
}

// setResult is what one execution of a workload's op set observed.
type setResult struct {
	cost           // of the timed part
	SetupS float64 // set-up before steady work, without child start
	Ops    int
	Failed int
	// Work counts the op set's work units: MAC frames put on the air,
	// vehicle steps, runs, round trips.
	Work float64
	// PeakRSSMB is VmHWM when the set ended (see settle).
	PeakRSSMB float64
	// Host converts the set's seconds into reference-host seconds: the
	// host calibration read just before and just after it (see hostFactor).
	Host   float64
	Digest string
	Counts workCounts
	Obs    layerObs
	Errors []string
	keep   any // workload-private outputs that verify compares against
}

func (r *setResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

func digestOf(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return digestBytes(b), nil
}

func digestBytes(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// workload is one of the benchmark's named input sets, prepared from a
// seed. runSet executes its op set once, verify re-checks the outputs
// outside the timed phase.
type workload interface {
	runSet(tr *tracer, set int) setResult
	// verify reports how many ops it checked and what failed; invariant
	// violations it finds are also added to first.Counts.
	verify(first *setResult) (ops int, failures []string)
}

func workers() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// inputSets is how many input sets a workload has: seeds 1 to 64 each name
// one, any other seed is folded onto them. A failed op has to mean that
// the change under test broke something, so every input set was verified
// on the seed commit — and checked runs of arbitrary seeds are not clean
// there: about one shrunk fault-scenario run in 2 300 ends in a routing
// loop (see "Verification pass" in README.md).
const inputSets = 64

// dirtySweepInputs are the input sets whose sweep_quick grid holds such a
// run on the seed commit; they are moved past the fold.
var dirtySweepInputs = map[int64]bool{20: true, 26: true}

// inputSet maps a seed to the workload's input set it selects.
func inputSet(name string, seed int64) int64 {
	i := int64(uint64(seed) % inputSets)
	if i == 0 {
		i = inputSets
	}
	if name == "sweep_quick" && dirtySweepInputs[i] {
		i += inputSets
	}
	return i
}

// newWorkload prepares the named workload's inputs from the seed. The
// program under test only ever receives the generated specs, configs and
// HTTP bodies. smoke shrinks every size to a self-test's budget.
func newWorkload(name string, seed int64, smoke bool) (workload, error) {
	root := rng.NewSource(inputSet(name, seed))
	switch name {
	case "table1":
		base, err := catalogue("highway")
		if err != nil {
			return nil, err
		}
		// Every run gets its own mobility pattern. The paper runs its three
		// protocols over one pattern to compare them; the benchmark times
		// runs, and 24 independent patterns halve how far an op set's work
		// (±19 % of MAC frames with shared patterns) swings with the seed.
		seeds, simTime := 8, 50*sim.Second
		if smoke {
			seeds, simTime = 1, 10*sim.Second
		}
		w := &simWorkload{}
		for pi, p := range []scenario.Protocol{scenario.AODV, scenario.OLSR, scenario.DYMO} {
			for i := 0; i < seeds; i++ {
				s := withSimTime(base, simTime)
				s.Protocol = p
				s.Seed = root.Fork(0).Fork(pi).Fork(i).Seed()
				w.specs = append(w.specs, s)
			}
		}
		return w, nil
	case "metro2k":
		base, err := catalogue("metro")
		if err != nil {
			return nil, err
		}
		vehicles, simTime := 2000, 4*sim.Second
		if smoke {
			vehicles, simTime = 200, 2*sim.Second
		}
		s, err := base.WithVehicles(vehicles)
		if err != nil {
			return nil, err
		}
		s = withSimTime(s, simTime)
		s.Protocol = scenario.AODV
		s.Seed = root.Fork(1).Seed()
		return &simWorkload{specs: []scenario.Spec{s}}, nil
	case "urban_olsr":
		seeds, simTime := 2, 25*sim.Second
		if smoke {
			seeds, simTime = 1, 5*sim.Second
		}
		w := &simWorkload{}
		for ni, name := range []string{"manhattan", "downtown"} {
			base, err := catalogue(name)
			if err != nil {
				return nil, err
			}
			for i := 0; i < seeds; i++ {
				s := withSimTime(base, simTime)
				s.Protocol = scenario.OLSR
				s.Seed = root.Fork(2).Fork(ni).Fork(i).Seed()
				w.specs = append(w.specs, s)
			}
		}
		return w, nil
	case "ba_fundamental":
		cfg := core.FundamentalConfig{
			LaneLength: 2000, SlowdownP: 0.3, Trials: 20, Iterations: 500, Warmup: 100,
			Seed: root.Fork(3).Seed(),
		}
		if smoke {
			cfg.LaneLength, cfg.Trials, cfg.Iterations, cfg.Warmup = 200, 2, 50, 10
		}
		for i := 1; i <= 20; i++ {
			cfg.Densities = append(cfg.Densities, 0.025*float64(i))
		}
		return &baWorkload{cfg: cfg}, nil
	case "sweep_quick":
		return &sweepWorkload{cfg: quickGrid(root.Fork(4).Seed(), 2, smoke)}, nil
	case "serve_warm":
		// The daemon's warm path does not depend on how long the cached
		// runs simulated, so the cold fill uses a short horizon and one
		// trial: more fresh daemons — more set-up and warm samples — fit
		// in a run.
		cfg := quickGrid(root.Fork(5).Seed(), 1, smoke)
		cfg.OverrideTimeSec = 6
		warm := 400
		if smoke {
			warm = 10
		}
		return newServeWorkload(cfg, warm)
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

func catalogue(name string) (scenario.Spec, error) {
	s, ok := scenario.Get(name)
	if !ok {
		return scenario.Spec{}, fmt.Errorf("bench: scenario %q is not in the catalogue", name)
	}
	return s, nil
}

// withSimTime shortens a spec's horizon and lets its flow windows follow
// (zero windows re-derive from the horizon on normalization).
func withSimTime(s scenario.Spec, t sim.Time) scenario.Spec {
	s.SimTime = t
	s.Flows = append([]scenario.Flow(nil), s.Flows...)
	for i := range s.Flows {
		s.Flows[i].Start, s.Flows[i].Stop = 0, 0
	}
	return s
}

// quickGrid is the grid sweep_quick runs and serve_warm submits: the
// non-heavy catalogue in its shrunk, checked form under all four
// protocols.
func quickGrid(seed int64, trials int, smoke bool) scenario.SweepConfig {
	cfg := scenario.SweepConfig{
		Protocols: scenario.AllProtocols(),
		Trials:    trials,
		Seed:      seed,
		Workers:   workers(),
		Shrunk:    true,
		Checked:   true,
	}
	if smoke {
		cfg.Scenarios = []string{"highway", "blackout"}
		cfg.Protocols = []scenario.Protocol{scenario.AODV, scenario.OLSR}
	}
	return cfg
}

// ---- table1, metro2k, urban_olsr: protocol runs over CA mobility ----

type simWorkload struct {
	specs []scenario.Spec
}

func (w *simWorkload) runSet(tr *tracer, set int) setResult {
	var r setResult
	results := make([]*scenario.Result, len(w.specs))
	var clock time.Duration
	if tr != nil {
		clock = timerCost()
	}
	err := tr.profile(func() {
		start := readUsage()
		root := tr.start("op_set", 0, set)
		for i, spec := range w.specs {
			op := set*len(w.specs) + i
			run := tr.start("scenario.run", root, op)
			begin := time.Now()
			sp := tr.start("scenario.build_source", run, op)
			src, err := scenario.BuildSource(spec)
			tr.end(sp)
			if err != nil {
				tr.end(run)
				r.Ops++
				r.fail("%s/%s: %v", spec.Name, spec.Protocol, err)
				continue
			}
			built := time.Now()
			ts := &timedSource{src: src, timing: tr != nil}
			res, err := scenario.RunOnSource(spec, ts)
			end := time.Now()
			tr.end(run)
			r.Ops++
			if err != nil {
				r.fail("%s/%s: %v", spec.Name, spec.Protocol, err)
				continue
			}
			loop := ts.loopStart
			if loop.IsZero() {
				loop = end
			}
			tr.add("scenario.world_setup", run, op, built, loop)
			tr.add("scenario.event_loop", run, op, loop, end)
			r.SetupS += loop.Sub(begin).Seconds()
			r.Obs.AtBusyS += (ts.busy - time.Duration(ts.calls)*clock).Seconds()
			r.Obs.AtCalls += float64(ts.calls)
			r.Obs.Ticks += float64(ts.ticks)
			results[i] = res
			r.Counts.addResult(res)
		}
		tr.end(root)
		r.cost = readUsage().since(start)
	})
	if err != nil {
		r.fail("profiling: %v", err)
	}
	r.Work = r.Counts.frames()
	digest, err := digestOf(results)
	if err != nil {
		r.fail("encoding results: %v", err)
	}
	r.Digest = digest
	r.keep = results
	return r
}

// verify re-runs every spec once under the invariant harness: no
// invariant violated, no Expect floor of the spec missed, and the same
// traffic, MAC and routing counters as the timed run.
func (w *simWorkload) verify(first *setResult) (int, []string) {
	timed, _ := first.keep.([]*scenario.Result)
	var failures []string
	for i, spec := range w.specs {
		name := fmt.Sprintf("%s/%s seed %d", spec.Name, spec.Protocol, spec.Seed)
		src, err := scenario.BuildSource(spec)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		res, report, err := scenario.RunCheckedOnSource(spec, src)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		if n := report.Total(); n > 0 {
			first.Counts.Violations += uint64(n)
			failures = append(failures, fmt.Sprintf("%s: %d invariant violations, the first: %s", name, n, report.Violations()[0]))
			continue
		}
		if i >= len(timed) || timed[i] == nil {
			continue // the timed op already failed and was counted
		}
		t := timed[i]
		if !reflect.DeepEqual(res.Sent, t.Sent) || !reflect.DeepEqual(res.Delivered, t.Delivered) ||
			res.MACStats != t.MACStats || res.ControlPackets != t.ControlPackets || res.ControlBytes != t.ControlBytes {
			failures = append(failures, fmt.Sprintf("%s: checked run's counters differ from the timed run's", name))
		}
	}
	return len(w.specs), failures
}

// ---- ba_fundamental: the Behavioural Analyzer's Fig. 4 ----

type baWorkload struct {
	cfg core.FundamentalConfig
}

func (w *baWorkload) vehicles(rho float64) int {
	n := int(math.Round(rho * float64(w.cfg.LaneLength)))
	if n < 1 {
		n = 1
	}
	return n
}

func (w *baWorkload) runSet(tr *tracer, set int) setResult {
	r := setResult{Ops: 1}
	// Set-up probe: building the ensemble's lanes (random placement of
	// every vehicle) is the part of the diagram before any CA step; the
	// call below repeats it internally, so it is timed here on its own.
	begin := time.Now()
	src := rng.NewSource(w.cfg.Seed)
	for di, rho := range w.cfg.Densities {
		n := w.vehicles(rho)
		r.Work += float64(n * w.cfg.Trials * (w.cfg.Warmup + w.cfg.Iterations))
		for trial := 0; trial < w.cfg.Trials; trial++ {
			_, err := ca.NewLane(ca.Config{
				Length: w.cfg.LaneLength, Vehicles: n, SlowdownP: w.cfg.SlowdownP, Placement: ca.RandomPlacement,
			}, src.Fork(di).Fork(trial).Stream("fundamental"))
			if err != nil {
				r.fail("lane at rho=%v: %v", rho, err)
				return r
			}
		}
	}
	r.SetupS = time.Since(begin).Seconds()
	r.Obs.VehicleSteps = r.Work
	r.Obs.Workers = float64(runtime.GOMAXPROCS(0))

	var points []core.FundamentalPoint
	var runErr error
	err := tr.profile(func() {
		start := readUsage()
		sp := tr.start("core.fundamental", 0, set)
		points, runErr = core.FundamentalDiagram(w.cfg)
		tr.end(sp)
		r.cost = readUsage().since(start)
	})
	if err == nil {
		err = runErr
	}
	if err != nil {
		r.fail("fundamental diagram: %v", err)
		return r
	}
	if r.Digest, err = digestOf(points); err != nil {
		r.fail("encoding points: %v", err)
	}
	return r
}

// verify re-runs the diagram on one worker: the engine's contract is a
// bit-identical result for every worker count.
func (w *baWorkload) verify(first *setResult) (int, []string) {
	prev := runtime.GOMAXPROCS(1)
	points, err := core.FundamentalDiagram(w.cfg)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return 1, []string{fmt.Sprintf("1-worker fundamental diagram: %v", err)}
	}
	digest, err := digestOf(points)
	if err != nil || digest != first.Digest {
		return 1, []string{"1-worker fundamental diagram differs from the parallel result"}
	}
	return 1, nil
}

// ---- sweep_quick: the checked catalogue sweep ----

type sweepWorkload struct {
	cfg scenario.SweepConfig
}

func (w *sweepWorkload) runSet(tr *tracer, set int) setResult {
	var r setResult
	// Set-up probe: resolving, shrinking and normalizing every cell's
	// spec is what a sweep does before its first run starts.
	begin := time.Now()
	grid, err := scenario.NewGrid(w.cfg)
	if err != nil {
		r.Ops = 1
		r.fail("grid: %v", err)
		return r
	}
	for j := 0; j < grid.Cells(); j++ {
		if _, err := grid.CellSpec(j); err != nil {
			r.Ops = 1
			r.fail("cell %d: %v", j, err)
			return r
		}
	}
	r.SetupS = time.Since(begin).Seconds()
	r.Ops = grid.Cells() * len(grid.Protocols)
	r.Work = float64(r.Ops)
	r.Obs.Workers = float64(w.cfg.Workers)

	var rows []scenario.SweepRow
	var csv bytes.Buffer
	var runErr error
	err = tr.profile(func() {
		start := readUsage()
		if tr == nil {
			rows, runErr = scenario.Sweep(w.cfg)
		} else {
			rows, runErr = w.tracedSweep(tr, set, grid)
		}
		if runErr == nil {
			sp := tr.start("scenario.render", 0, set)
			runErr = scenario.WriteSweepCSV(&csv, rows)
			tr.end(sp)
		}
		r.cost = readUsage().since(start)
	})
	if err == nil {
		err = runErr
	}
	if err != nil {
		r.Failed = r.Ops
		r.Errors = append(r.Errors, err.Error())
		return r
	}
	for _, row := range rows {
		r.Counts.Delivered += row.Delivered
		r.Counts.CtrlPackets += uint64(math.Round(row.ControlPackets.Mean * float64(row.Trials)))
		r.Counts.Violations += uint64(row.Violations)
		if row.Violations > 0 {
			r.fail("%s/%s: %d invariant violations", row.Scenario, row.Protocol, row.Violations)
		}
	}
	r.Digest = digestBytes(csv.Bytes())
	return r
}

// tracedSweep is scenario.Sweep with a span around each of its steps:
// the same grid, engine, aggregation and cell function, called from here
// so their boundaries can be timed.
func (w *sweepWorkload) tracedSweep(tr *tracer, set int, grid *scenario.Grid) ([]scenario.SweepRow, error) {
	root := tr.start("exp.map", 0, set)
	cells, err := exp.Map(exp.Runner{Workers: w.cfg.Workers}, grid.Cells(), func(j int) ([]scenario.TrialResult, error) {
		sp := tr.start("scenario.run_cell", root, set*grid.Cells()+j)
		defer tr.end(sp)
		return grid.RunCell(j, grid.Protocols)
	})
	tr.end(root)
	if err != nil {
		return nil, err
	}
	sp := tr.start("scenario.aggregate", 0, set)
	rows := grid.Aggregate(cells)
	tr.end(sp)
	return rows, nil
}

// verify re-runs the sweep on one worker: byte-identical CSV.
func (w *sweepWorkload) verify(first *setResult) (int, []string) {
	cfg := w.cfg
	cfg.Workers = 1
	csv, err := sweepCSV(cfg)
	if err != nil {
		return 1, []string{fmt.Sprintf("1-worker sweep: %v", err)}
	}
	if digestBytes(csv) != first.Digest {
		return 1, []string{"1-worker sweep CSV differs from the parallel result"}
	}
	return 1, nil
}

func sweepCSV(cfg scenario.SweepConfig) ([]byte, error) {
	rows, err := scenario.Sweep(cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := scenario.WriteSweepCSV(&buf, rows); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ---- serve_warm: the daemon's own layers over loopback ----

type serveWorkload struct {
	cfg  scenario.SweepConfig
	body []byte
	warm int
	// refSweepS is the wall-clock of the same grid run in process by
	// verify; serve.cold_overhead_s is the cold fill beyond it.
	refSweepS float64
}

func newServeWorkload(cfg scenario.SweepConfig, warm int) (*serveWorkload, error) {
	protocols := make([]string, len(cfg.Protocols))
	for i, p := range cfg.Protocols {
		protocols[i] = string(p)
	}
	body, err := json.Marshal(map[string]any{
		"scenarios": cfg.Scenarios,
		"protocols": protocols,
		"trials":    cfg.Trials,
		"seed":      cfg.Seed,
		"quick":     cfg.Shrunk,
		"checked":   cfg.Checked,
		"overrides": map[string]any{"timeSec": cfg.OverrideTimeSec},
	})
	if err != nil {
		return nil, err
	}
	return &serveWorkload{cfg: cfg, body: body, warm: warm}, nil
}

// roundTrip is one client interaction with the daemon: submit the grid,
// follow its stream to "done", fetch the CSV artifact.
type roundTrip struct {
	submitS, streamS, artifactS float64
	total, fresh                int
	artifact                    []byte
}

func (w *serveWorkload) roundTrip(tr *tracer, parent, op int, client *http.Client, url string) (roundTrip, error) {
	var rt roundTrip
	t0 := time.Now()
	sp := tr.start("serve.submit", parent, op)
	resp, err := client.Post(url+"/sweeps", "application/json", bytes.NewReader(w.body))
	if err != nil {
		return rt, err
	}
	var sub struct {
		ID    string `json:"id"`
		Total int    `json:"totalRuns"`
		Fresh int    `json:"freshRuns"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	tr.end(sp)
	if resp.StatusCode != http.StatusAccepted {
		return rt, fmt.Errorf("submit: status %d", resp.StatusCode)
	}
	if err != nil {
		return rt, fmt.Errorf("submit: %w", err)
	}
	rt.total, rt.fresh = sub.Total, sub.Fresh
	t1 := time.Now()

	sp = tr.start("serve.stream", parent, op)
	resp, err = client.Get(url + "/sweeps/" + sub.ID + "/stream")
	if err != nil {
		return rt, err
	}
	done, results := false, 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Type  string `json:"type"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			resp.Body.Close()
			return rt, fmt.Errorf("stream: %w", err)
		}
		switch {
		case ev.Type == "done" && ev.Error != "":
			resp.Body.Close()
			return rt, fmt.Errorf("sweep failed: %s", ev.Error)
		case ev.Type == "done":
			done = true
		default:
			results++
		}
	}
	resp.Body.Close()
	tr.end(sp)
	if resp.StatusCode != http.StatusOK || !done || results != sub.Total {
		return rt, fmt.Errorf("stream: status %d, %d of %d results, done=%t", resp.StatusCode, results, sub.Total, done)
	}
	t2 := time.Now()

	sp = tr.start("serve.artifact", parent, op)
	resp, err = client.Get(url + "/sweeps/" + sub.ID + "/artifact?format=csv")
	if err != nil {
		return rt, err
	}
	rt.artifact, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(sp)
	if resp.StatusCode != http.StatusOK {
		return rt, fmt.Errorf("artifact: status %d", resp.StatusCode)
	}
	if err != nil {
		return rt, fmt.Errorf("artifact: %w", err)
	}
	t3 := time.Now()
	rt.submitS, rt.streamS, rt.artifactS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	return rt, nil
}

func heapAllocKB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1024
}

func (w *serveWorkload) runSet(tr *tracer, set int) setResult {
	var r setResult
	// Set-up: a fresh daemon and the cold submit that fills its cache —
	// the cache-write path of the code the warm ops then read.
	begin := time.Now()
	srv := serve.New(serve.Config{Workers: w.cfg.Workers})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	op := set * (w.warm + 1)
	root := tr.start("serve.cold_fill", 0, op)
	cold, err := w.roundTrip(tr, root, op, client, ts.URL)
	tr.end(root)
	r.SetupS = time.Since(begin).Seconds()
	r.Ops = 1
	if err != nil {
		r.fail("cold submit: %v", err)
		return r
	}
	if cold.fresh != cold.total {
		r.fail("cold submit ran %d of %d runs fresh on an empty cache", cold.fresh, cold.total)
	}
	r.Digest = digestBytes(cold.artifact)
	r.keep = cold.artifact

	var heapBefore float64
	if tr != nil {
		heapBefore = heapAllocKB()
	}
	err = tr.profile(func() {
		start := readUsage()
		root := tr.start("op_set", 0, set)
		for i := 1; i <= w.warm; i++ {
			r.Ops++
			rt, err := w.roundTrip(tr, root, op+i, client, ts.URL)
			switch {
			case err != nil:
				r.fail("warm op %d: %v", i, err)
				continue
			case rt.fresh != 0:
				r.fail("warm op %d simulated %d runs", i, rt.fresh)
			case !bytes.Equal(rt.artifact, cold.artifact):
				r.fail("warm op %d: artifact differs from the cold one", i)
			}
			r.Obs.SubmitMS = append(r.Obs.SubmitMS, rt.submitS*1e3)
			r.Obs.StreamMS = append(r.Obs.StreamMS, rt.streamS*1e3)
			r.Obs.ArtifactMS = append(r.Obs.ArtifactMS, rt.artifactS*1e3)
			r.Obs.RoundTripMS = append(r.Obs.RoundTripMS, (rt.submitS+rt.streamS+rt.artifactS)*1e3)
		}
		tr.end(root)
		r.cost = readUsage().since(start)
	})
	if err != nil {
		r.fail("profiling: %v", err)
	}
	if tr != nil {
		r.Obs.HeapGrowthKB = (heapAllocKB() - heapBefore) / float64(w.warm)
	}
	r.Work = float64(w.warm)
	r.Obs.Serve = srv.SnapshotMetrics()
	return r
}

// verify runs the same grid in process: the daemon's artifact must be
// byte-identical to scenario.Sweep + WriteSweepCSV.
func (w *serveWorkload) verify(first *setResult) (int, []string) {
	begin := time.Now()
	want, err := sweepCSV(w.cfg)
	w.refSweepS = time.Since(begin).Seconds()
	if err != nil {
		return 1, []string{fmt.Sprintf("in-process sweep: %v", err)}
	}
	got, _ := first.keep.([]byte)
	if !bytes.Equal(got, want) {
		return 1, []string{"daemon artifact differs from the in-process sweep CSV"}
	}
	return 1, nil
}
