package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"cavenet/internal/serve"
)

// outDir is where runs leave their by-products (records, span dumps); it
// is git-ignored.
const outDir = "bench/out"

// driftLimit is the noise guard: a run whose calibrations before and
// after disagree by more than this is re-run once and flagged.
const driftLimit = 0.10

type suiteConfig struct {
	Seed    int64
	Seconds float64
	Sets    int
	Smoke   bool
	Out     string
}

// record is the machine-readable result of one suite invocation: what a
// later change's record is diffed against (-compare).
type record struct {
	Schema      int                  `json:"schema"`
	Commit      string               `json:"commit"`
	CodeVersion string               `json:"code_version"` // serve.CodeVersion()
	GoVersion   string               `json:"go_version"`
	Host        hostInfo             `json:"host"`
	Transport   string               `json:"transport"`
	Seconds     float64              `json:"seconds"`
	Bounds      map[string]boundInfo `json:"bounds"`
	Sets        []recordSet          `json:"sets"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// boundInfo is an end-to-end metric's two regression bounds, each beside
// the spread it was calibrated against: for runs of one seed (what
// -compare and -sets judge by) and across seeds (BENCHMARK.json's bound).
type boundInfo struct {
	Bound           float64 `json:"bound"`
	ObservedSpread  float64 `json:"observed_spread"`
	DriverBound     float64 `json:"driver_bound"`
	CrossSeedSpread float64 `json:"cross_seed_spread"`
}

// recordSet is one pass over every workload at one seed.
type recordSet struct {
	Seed      int64             `json:"seed"`
	CalibS    summary           `json:"host_calib_s"`
	Workloads []*workloadRecord `json:"workloads"`
}

type e2eRecord struct {
	Unit string `json:"unit"`
	summary
	Values []float64 `json:"values"`
}

type workloadRecord struct {
	Name      string                 `json:"name"`
	Why       string                 `json:"why"`
	E2E       map[string]*e2eRecord  `json:"end_to_end"`
	Ops       int                    `json:"ops"`
	Failed    int                    `json:"failed"`
	ErrorRate float64                `json:"error_rate"`
	OpsPerSet int                    `json:"ops_per_set"`
	WorkUnits float64                `json:"work_units"`
	Digest    string                 `json:"digest"`
	Layers    map[string]metricValue `json:"per_layer"`
	Flags     []string               `json:"flags,omitempty"`
	Errors    []string               `json:"errors,omitempty"`
}

func (s *recordSet) workload(name string) *workloadRecord {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// spawn runs one workload in a child process — its own heap, GC state and
// resident set — and reads back the detailed report.
func spawn(cfg suiteConfig, name string, seed int64, trace bool, stderr io.Writer) (childDetail, error) {
	var d childDetail
	exe, err := os.Executable()
	if err != nil {
		return d, err
	}
	detail := filepath.Join(outDir, "child.json")
	args := []string{
		"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64), "-detail", detail,
	}
	if trace {
		args = append(args, "-trace", "1")
	}
	if cfg.Smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	var childOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &childOut, stderr
	runErr := cmd.Run()
	data, err := os.ReadFile(detail)
	if err != nil {
		return d, fmt.Errorf("bench: workload %s left no report (%v):\n%s", name, runErr, childOut.String())
	}
	_ = os.Remove(detail)
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("bench: workload %s report: %w", name, err)
	}
	return d, nil
}

// spawnGuarded is spawn behind the noise guard.
func spawnGuarded(cfg suiteConfig, name string, seed int64, trace bool, stderr io.Writer) (childDetail, string, error) {
	d, err := spawn(cfg, name, seed, trace, stderr)
	if err != nil {
		return d, "", err
	}
	drift := d.calibDrift()
	if drift <= driftLimit || cfg.Smoke {
		return d, "", nil
	}
	flag := fmt.Sprintf("re-run: host calibration drifted %.0f%% across a run (trace=%t)", drift*100, trace)
	d, err = spawn(cfg, name, seed, trace, stderr)
	if again := d.calibDrift(); err == nil && again > driftLimit {
		flag += fmt.Sprintf("; the re-run kept drifted %.0f%% too", again*100)
	}
	return d, flag, err
}

// runSet runs every workload at one seed: its Reps untraced runs,
// interleaved round-robin so a noisy-neighbour burst does not land on one
// workload, then one traced run each for the per-layer numbers.
func runSet(cfg suiteConfig, seed int64, stderr io.Writer) (recordSet, error) {
	set := recordSet{Seed: seed}
	for _, decl := range workloadDecls {
		w := &workloadRecord{Name: decl.Name, Why: decl.Why, E2E: map[string]*e2eRecord{}}
		for _, m := range e2eDecls {
			w.E2E[m.Name] = &e2eRecord{Unit: m.Unit}
		}
		set.Workloads = append(set.Workloads, w)
	}
	var calib []float64
	absorb := func(w *workloadRecord, d childDetail, flag string) {
		w.Ops += d.Attempted
		w.Failed += d.Failed
		w.Errors = append(w.Errors, d.Errors...)
		if flag != "" {
			w.Flags = append(w.Flags, flag)
		}
		if w.Digest != "" && d.Digest != w.Digest {
			w.Failed += d.OpsPerSet
			w.Errors = append(w.Errors, "result digest differs between runs of the same seed")
		}
		w.Digest, w.OpsPerSet, w.WorkUnits = d.Digest, d.OpsPerSet, d.WorkUnits
		calib = append(calib, d.CalibBefore, d.CalibAfter)
	}
	for rep := 0; ; rep++ {
		ran := false
		for i, w := range set.Workloads {
			reps := workloadDecls[i].Reps
			if rep >= reps {
				continue
			}
			ran = true
			fmt.Fprintf(stderr, "seed %d rep %d/%d %s\n", seed, rep+1, reps, w.Name)
			d, flag, err := spawnGuarded(cfg, w.Name, seed, false, stderr)
			if err != nil {
				return set, err
			}
			absorb(w, d, flag)
			for name, e := range w.E2E {
				e.Values = append(e.Values, d.Metrics[name].Value)
			}
		}
		if !ran {
			break
		}
	}
	for _, w := range set.Workloads {
		fmt.Fprintf(stderr, "seed %d traced %s\n", seed, w.Name)
		d, flag, err := spawnGuarded(cfg, w.Name, seed, true, stderr)
		if err != nil {
			return set, err
		}
		absorb(w, d, flag)
		w.Layers = d.Metrics
		if n := d.Metrics["trace.samples"].Value; n < minSamples && !cfg.Smoke {
			w.Flags = append(w.Flags, fmt.Sprintf("the traced run's layer shares rest on %.0f CPU samples, fewer than %d", n, minSamples))
		}
		for _, e := range w.E2E {
			e.summary = summarize(e.Values)
		}
		w.ErrorRate = float64(w.Failed) / float64(w.Ops)
	}
	set.CalibS = summarize(calib)
	return set, nil
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runSuite runs the whole benchmark, prints every metric and writes the
// record. It reports false when an op failed verification or two sets of
// the same seed disagree by more than a bound.
func runSuite(cfg suiteConfig, stdout, stderr io.Writer) (bool, error) {
	if cfg.Sets < 1 {
		return false, fmt.Errorf("bench: -sets must be at least 1")
	}
	rec := record{
		Schema:      1,
		Commit:      commit(),
		CodeVersion: serve.CodeVersion(),
		GoVersion:   runtime.Version(),
		Host:        hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: workers(), OS: runtime.GOOS, Arch: runtime.GOARCH},
		Transport:   "serve_warm: in-process serve.New behind httptest.NewServer, loopback TCP",
		Seconds:     cfg.Seconds,
		Bounds:      map[string]boundInfo{},
	}
	for _, m := range e2eDecls {
		rec.Bounds[m.Name] = boundInfo{m.Bound, m.Spread, m.DriverBound, m.SeedSpread}
	}
	for i := 0; i < cfg.Sets; i++ {
		set, err := runSet(cfg, cfg.Seed, stderr)
		if err != nil {
			return false, err
		}
		rec.Sets = append(rec.Sets, set)
	}

	ok := true
	for i := range rec.Sets {
		printSet(stdout, &rec.Sets[i])
		for _, w := range rec.Sets[i].Workloads {
			ok = ok && w.Failed == 0
		}
	}
	for i := 1; i < cfg.Sets; i++ {
		fmt.Fprintf(stdout, "\nset %d against set 0 (seed %d):\n", i, cfg.Seed)
		if !setsAgree(stdout, &rec.Sets[0], &rec.Sets[i]) {
			ok = false
		}
	}
	path := cfg.Out
	if path == "" {
		path = filepath.Join(outDir, "record.json")
	}
	if err := writeJSON(path, rec); err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "\nrecord written to %s\n", path)
	return ok, nil
}

func printSet(out io.Writer, set *recordSet) {
	fmt.Fprintf(out, "\n== seed %d (host calibration %.4f s, min %.4f) ==\n", set.Seed, set.CalibS.Median, set.CalibS.Min)
	for _, w := range set.Workloads {
		fmt.Fprintf(out, "\n%s — %d ops per set, %g work units\n", w.Name, w.OpsPerSet, w.WorkUnits)
		for _, m := range e2eDecls {
			e := w.E2E[m.Name]
			fmt.Fprintf(out, "  %-28s %12.6g %-5s  [q1 %.6g q3 %.6g min %.6g n=%d]\n", m.Name, e.Median, m.Unit, e.Q1, e.Q3, e.Min, e.N)
		}
		fmt.Fprintf(out, "  %-28s %12.6g        (%d failed of %d ops)\n", "error_rate", w.ErrorRate, w.Failed, w.Ops)
		for _, m := range layerDecls {
			if v := w.Layers[m.Name]; v.Value != 0 {
				fmt.Fprintf(out, "  %-28s %12.6g %s\n", m.Name, v.Value, m.Unit)
			}
		}
		for _, f := range w.Flags {
			fmt.Fprintln(out, "  flag:", f)
		}
		for _, e := range w.Errors {
			fmt.Fprintln(out, "  FAIL:", e)
		}
	}
}

// setsAgree checks two sets of the same code and seed against the
// benchmark's own bounds, in both directions.
func setsAgree(out io.Writer, a, b *recordSet) bool {
	ok := true
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		for _, m := range e2eDecls {
			ma, mb := wa.E2E[m.Name].Median, wb.E2E[m.Name].Median
			gap := math.Abs(mb-ma) / ma
			verdict := "agree"
			if gap > m.Bound {
				verdict, ok = "DISAGREE", false
			}
			fmt.Fprintf(out, "  %-16s %-12s %12.6g %12.6g  %+6.1f%% (bound %.0f%%) %s\n",
				wa.Name, m.Name, ma, mb, (mb-ma)/ma*100, m.Bound*100, verdict)
		}
	}
	return ok
}
