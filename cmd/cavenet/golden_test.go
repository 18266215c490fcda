package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Golden-file tests lock the user-visible CLI surfaces: the scenario
// catalogue listing, the scenario sweep CSV, and the Table I commands —
// density sweep, protocol comparison, ns-2 trace export (header *and*
// values — the engine's determinism contract makes full outputs
// reproducible). sweep_table1, protocols and trace were captured from a
// binary that ran these commands on a separate engine in internal/core;
// they are the evidence that the scenario grid reproduces it byte for
// byte, so a diff there is a model change. ba.golden, the Behavioural
// Analyzer's six commands, was captured from a binary whose studies lived
// in internal/core and filled zero fields with defaults. Regenerate with
//
//	go test ./cmd/cavenet -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output diverged from %s.\n--- got ---\n%s\n--- want ---\n%s\nRe-run with -update if the change is intended.",
			path, got, want)
	}
}

// captureStdout runs f with os.Stdout redirected into a buffer, for the
// subcommands that print straight to the terminal.
func captureStdout(t *testing.T, f func() error) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(r)
		done <- buf.Bytes()
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", ferr, out)
	}
	return out
}

func TestGoldenScenarioList(t *testing.T) {
	var buf bytes.Buffer
	if err := scenarioMain(&buf, []string{"list"}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "scenario_list.golden", buf.Bytes())
}

func TestGoldenScenarioSweepCSV(t *testing.T) {
	var buf bytes.Buffer
	err := scenarioSweep(&buf, []string{
		"-scenarios", "highway,sparse", "-protocols", "aodv,dymo",
		"-trials", "2", "-seed", "1", "-quick",
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "scenario_sweep.golden", buf.Bytes())
}

func TestGoldenSweepCSV(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdSweep([]string{
			"-nodes", "10,14", "-senders", "2", "-circuit", "1000",
			"-trials", "2", "-time", "20", "-protocols", "aodv,dymo", "-seed", "1",
		})
	})
	checkGolden(t, "sweep.golden", out)
}

// TestGoldenSweepTable1CSV is the strong witness for `cavenet sweep`: at
// Table I's scale (multi-hop, 3 km) all eight rows differ in every column.
func TestGoldenSweepTable1CSV(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdSweep([]string{
			"-nodes", "20,30", "-trials", "2", "-time", "40", "-protocols", "all", "-seed", "7",
		})
	})
	checkGolden(t, "sweep_table1.golden", out)
}

func TestGoldenProtocols(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdProtocols([]string{"-nodes", "25", "-time", "40", "-seed", "5", "-surface"})
	})
	checkGolden(t, "protocols.golden", out)
}

func TestGoldenTrace(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdTrace([]string{"-nodes", "10", "-circuit", "1000", "-duration", "10", "-seed", "1"})
	})
	checkGolden(t, "trace.golden", out)
}

// analyzerRuns are the Behavioural Analyzer commands at reduced flags,
// the ones TestGoldenBehaviouralAnalyzer pins.
var analyzerRuns = [][]string{
	{"fundamental", "-L", "100", "-trials", "2", "-iters", "50", "-warmup", "10", "-seed", "3"},
	{"spacetime", "-L", "60", "-rho", "0.2", "-p", "0.4", "-steps", "15", "-warmup", "5", "-seed", "2"},
	{"velocity", "-L", "50", "-p", "0.2", "-steps", "40", "-seed", "4"},
	{"periodogram", "-L", "100", "-rho", "0.1", "-steps", "256", "-seed", "5"},
	{"transient", "-L", "100", "-rho", "0.2", "-p", "0.1", "-steps", "60", "-seed", "6"},
	{"rwdecay", "-nodes", "5", "-vmin", "0.5", "-vmax", "10", "-duration", "30", "-seed", "7"},
}

// runCommand runs one cavenet command line and returns its stdout.
func runCommand(t *testing.T, args []string) []byte {
	t.Helper()
	return captureStdout(t, func() error {
		if code := run(args); code != 0 {
			return fmt.Errorf("run(%q) exited %d", args, code)
		}
		return nil
	})
}

// TestGoldenBehaviouralAnalyzer locks the full output of the six analyzer
// commands, each under a "## cavenet <args>" header.
func TestGoldenBehaviouralAnalyzer(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range analyzerRuns {
		fmt.Fprintf(&buf, "## cavenet %s\n", strings.Join(args, " "))
		buf.Write(runCommand(t, args))
	}
	checkGolden(t, "ba.golden", buf.Bytes())
}

// TestAnalyzerDefaultFlags: each analyzer command with no flags prints
// exactly what it prints with these flag defaults spelled out, so the
// studies' default values are the ones the command line has always shown.
func TestAnalyzerDefaultFlags(t *testing.T) {
	spelled := [][]string{
		{"fundamental", "-L", "400", "-trials", "20", "-iters", "500", "-warmup", "0", "-seed", "1"},
		{"spacetime", "-L", "400", "-rho", "0.1", "-p", "0.3", "-steps", "100", "-warmup", "0", "-seed", "1"},
		{"velocity", "-L", "400", "-p", "0.3", "-steps", "5000", "-seed", "1"},
		{"periodogram", "-L", "400", "-rho", "0.05", "-p", "0.5", "-steps", "8192", "-seed", "1"},
		{"transient", "-L", "400", "-rho", "0.1", "-p", "0", "-steps", "2000", "-seed", "1"},
		{"rwdecay", "-nodes", "100", "-vmin", "0.1", "-vmax", "20", "-duration", "2000", "-seed", "1"},
	}
	for _, args := range spelled {
		t.Run(args[0], func(t *testing.T) {
			if bare, full := runCommand(t, args[:1]), runCommand(t, args); !bytes.Equal(bare, full) {
				t.Fatalf("cavenet %s differs from cavenet %s", args[0], strings.Join(args, " "))
			}
		})
	}
}
