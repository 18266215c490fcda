package cavenet_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// The examples' full outputs are golden: their numbers are deterministic
// (seeded scenarios, registry-built mobility), so any drift — in the
// catalogue, the runner, the RNG derivations, the metrics or the
// connectivity analysis — shows up here first. Regenerate with
//
//	go test . -run 'Golden(Quickstart|Highway)Output' -update-examples
var updateExamples = flag.Bool("update-examples", false, "rewrite the examples' golden files")

// tmpPathRe normalizes the one nondeterministic line: the temp file the
// quickstart example writes its ns-2 export to.
var tmpPathRe = regexp.MustCompile(`written to \S+`)

// TestGoldenQuickstartOutput locks the quickstart example, the repo's
// front door.
func TestGoldenQuickstartOutput(t *testing.T) {
	checkExampleGolden(t, "quickstart", func(out []byte) []byte {
		return tmpPathRe.ReplaceAll(out, []byte("written to <tmpfile>"))
	})
}

// TestGoldenHighwayOutput locks the Fig. 1-a relay-lane example, the one
// user of the connectivity components.
func TestGoldenHighwayOutput(t *testing.T) {
	checkExampleGolden(t, "highway", nil)
}

// checkExampleGolden builds ./examples/<name>, runs it, passes its output
// through normalize (if any) and compares it with testdata/<name>.golden.
func checkExampleGolden(t *testing.T, name string, normalize func([]byte) []byte) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the example binary")
	}
	bin := filepath.Join(t.TempDir(), name)
	build := exec.Command("go", "build", "-o", bin, "./examples/"+name)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	got, err := exec.Command(bin).CombinedOutput()
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, got)
	}
	if normalize != nil {
		got = normalize(got)
	}

	path := filepath.Join("testdata", name+".golden")
	if *updateExamples {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-examples): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s output diverged.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}
