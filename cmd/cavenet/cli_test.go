package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"cavenet/internal/rng"
	"cavenet/internal/scenario"
)

// TestExitCodes pins the single-exit-path contract: 0 for success and
// -h, 2 for usage mistakes, 1 for runtime failures — with no os.Exit
// anywhere below main, which is what lets these tests (and the serve
// daemon) call command code without the process dying under them.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no args", nil, 2},
		{"unknown experiment", []string{"frobnicate"}, 2},
		{"help", []string{"help"}, 0},
		{"help flag", []string{"--help"}, 0},
		{"subcommand help", []string{"sweep", "-h"}, 0},
		{"bad flag", []string{"sweep", "-no-such-flag"}, 2},
		{"bad flag value", []string{"protocols", "-nodes", "many"}, 2},
		{"scenario no subcommand", []string{"scenario"}, 2},
		{"scenario unknown subcommand", []string{"scenario", "frobnicate"}, 2},
		{"scenario run no name", []string{"scenario", "run"}, 2},
		{"scenario run unknown name", []string{"scenario", "run", "motorway9"}, 1},
		// Out-of-range overrides are usage errors, not silently ignored
		// (a `> 0` guard alone runs the unmodified spec).
		{"scenario run negative time", []string{"scenario", "run", "highway", "-time", "-5"}, 2},
		{"scenario run negative duration", []string{"scenario", "run", "highway", "-duration", "-5"}, 2},
		{"scenario run negative nodes", []string{"scenario", "run", "highway", "-nodes", "-3"}, 2},
		{"scenario run negative churn", []string{"scenario", "run", "highway", "-churn", "-1"}, 2},
		{"scenario run NaN time", []string{"scenario", "run", "highway", "-time", "NaN"}, 2},
		{"scenario sweep negative time", []string{"scenario", "sweep", "-time", "-5"}, 2},
		{"scenario sweep negative nodes", []string{"scenario", "sweep", "-nodes", "-3"}, 2},
		// The reference-path flags are gone: a reference is chosen by a
		// test inside internal/, never from the command line.
		{"scenario run -kernel-oracle", []string{"scenario", "run", "highway", "-kernel-oracle"}, 2},
		{"scenario run -dataplane-oracle", []string{"scenario", "run", "highway", "-dataplane-oracle"}, 2},
		{"scenario run -gpsr-oracle", []string{"scenario", "run", "manhattan", "-gpsr-oracle"}, 2},
		// The Table I commands validate the whole grid before its first
		// run, so an unrunnable one is a usage error, not a worker failure.
		{"sweep negative trials", []string{"sweep", "-trials", "-1"}, 2},
		{"sweep zero nodes", []string{"sweep", "-nodes", "0"}, 2},
		{"sweep empty node count", []string{"sweep", "-nodes", "10,,14"}, 2},
		{"sweep negative time", []string{"sweep", "-time", "-5"}, 2},
		{"sweep sender beyond fleet", []string{"sweep", "-senders", "9", "-nodes", "5"}, 2},
		{"protocols sender beyond fleet", []string{"protocols", "-nodes", "5"}, 2},
		{"protocols negative time", []string{"protocols", "-time", "-3"}, 2},
		{"sweep unknown protocol", []string{"sweep", "-protocols", "dsr"}, 2},
		// A run that ends before Table I's traffic starts (10 s) sends
		// nothing; it must not succeed with PDR 0.0000.
		{"sweep ends before traffic", []string{"sweep", "-time", "5"}, 2},
		{"protocols ends before traffic", []string{"protocols", "-time", "5"}, 2},
		// The Behavioural-Analyzer commands: a negative count used to reach
		// make() and die with a stack trace, or run nothing and exit 0.
		{"velocity negative steps", []string{"velocity", "-steps", "-5"}, 2},
		{"spacetime negative steps", []string{"spacetime", "-steps", "-1"}, 2},
		{"spacetime negative warmup", []string{"spacetime", "-warmup", "-1"}, 2},
		{"transient negative steps", []string{"transient", "-steps", "-1"}, 2},
		{"periodogram negative steps", []string{"periodogram", "-steps", "-9000"}, 2},
		{"fundamental negative trials", []string{"fundamental", "-trials", "-1"}, 2},
		{"fundamental negative iters", []string{"fundamental", "-iters", "-5"}, 2},
		{"fundamental negative warmup", []string{"fundamental", "-warmup", "-1"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Every row fails (or helps) before any simulation runs; the
			// bound catches a rejection that ran the experiment first.
			start := time.Now()
			if got := run(tc.args); got != tc.want {
				t.Fatalf("run(%q) = %d, want %d", tc.args, got, tc.want)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("run(%q) took %v — it ran an experiment first", tc.args, d)
			}
		})
	}
}

// TestUnknownFormatRejectedUpFront: a bad -format must exit 2 before any
// simulation runs. Each of these would otherwise burn a full sweep or a
// 100-simulated-second run before noticing; the time bound catches a
// regression to validate-after-run.
func TestUnknownFormatRejectedUpFront(t *testing.T) {
	cases := [][]string{
		{"sweep", "-format", "xml"},
		{"scenario", "sweep", "-format", "xml"},
		{"scenario", "run", "highway", "-format", "xml"},
	}
	for _, args := range cases {
		t.Run(args[0]+"/"+args[len(args)-1], func(t *testing.T) {
			start := time.Now()
			if got := run(args); got != 2 {
				t.Fatalf("run(%q) = %d, want 2", args, got)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("format rejection took %v — it ran the experiment first", d)
			}
		})
	}
}

// TestSweepOutputFile: -o writes the same bytes stdout gets, locked to
// the golden file.
func TestSweepOutputFile(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "sweep.golden"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.csv")
	args := []string{
		"sweep", "-nodes", "10,14", "-senders", "2", "-circuit", "1000",
		"-trials", "2", "-time", "20", "-protocols", "aodv,dymo", "-seed", "1",
		"-o", path,
	}
	if got := run(args); got != 0 {
		t.Fatalf("run(%q) = %d", args, got)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("-o file differs from golden stdout output:\n%s", got)
	}
}

// TestScenarioSweepOutputFile: scenario sweep -o matches its golden too.
func TestScenarioSweepOutputFile(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "scenario_sweep.golden"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scenario_sweep.csv")
	args := []string{
		"scenario", "sweep", "-scenarios", "highway,sparse",
		"-protocols", "aodv,dymo", "-trials", "2", "-seed", "1", "-quick",
		"-o", path,
	}
	if got := run(args); got != 0 {
		t.Fatalf("run(%q) = %d", args, got)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("-o file differs from golden stdout output:\n%s", got)
	}
}

// TestVelocityZeroStepsPrintsDefaultRun: -steps 0 means core's default
// length; the command used to size its time column from the flag and
// print a header with no rows under it.
func TestVelocityZeroStepsPrintsDefaultRun(t *testing.T) {
	out := captureStdout(t, func() error { return cmdVelocity([]string{"-steps", "0", "-L", "40"}) })
	if rows := bytes.Count(out, []byte("\n")) - 1; rows != 5000 {
		t.Fatalf("velocity -steps 0 printed %d rows, want the default 5000", rows)
	}
}

// TestScenarioRunQuickReplaysSweepCell: `scenario run -quick` with a sweep
// cell's protocol and forked seed is that cell's run — the way to replay a
// `sweep -quick` row that reported violations as a single run. (-time 20
// is not: Shrunk also caps the CA warm-up, so the mobility differs.)
func TestScenarioRunQuickReplaysSweepCell(t *testing.T) {
	const root = 9
	var buf bytes.Buffer
	err := scenarioSweep(&buf, []string{
		"-scenarios", "churn", "-protocols", "dymo", "-trials", "1",
		"-seed", strconv.Itoa(root), "-quick", "-format", "json",
	})
	if err != nil {
		t.Fatal(err)
	}
	var rows []scenario.SweepRow
	if err := json.Unmarshal(buf.Bytes(), &rows); err != nil || len(rows) != 1 {
		t.Fatalf("sweep output: %v (%d rows)\n%s", err, len(rows), buf.Bytes())
	}

	// Cell (scenario 0, trial 0) of the grid: root -> scenario -> trial.
	cellSeed := rng.NewSource(root).Fork(0).Fork(0).Seed()
	buf.Reset()
	err = scenarioRun(&buf, []string{
		"churn", "-quick", "-protocol", "dymo",
		"-seed", strconv.FormatInt(cellSeed, 10), "-format", "json",
	})
	if err != nil {
		t.Fatal(err)
	}
	var res scenario.Result
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("run output: %v\n%s", err, buf.Bytes())
	}
	if got, want := res.TotalPDR(), rows[0].PDR.Mean; got != want || want == 0 {
		t.Fatalf("run -quick PDR %v, sweep -quick cell PDR %v", got, want)
	}
	if got, want := res.TotalDelivered(), rows[0].Delivered; got != want {
		t.Fatalf("run -quick delivered %d, sweep -quick cell %d", got, want)
	}
}
