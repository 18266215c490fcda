package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// Golden-file tests lock the user-visible CLI surfaces: the scenario
// catalogue listing, the scenario sweep CSV, and the Table I commands —
// density sweep, protocol comparison, ns-2 trace export (header *and*
// values — the engine's determinism contract makes full outputs
// reproducible). sweep_table1, protocols and trace were captured from a
// binary that ran these commands on a separate engine in internal/core;
// they are the evidence that the scenario grid reproduces it byte for
// byte, so a diff there is a model change. Regenerate with
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
