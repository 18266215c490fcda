package trace

import (
	"bytes"
	"testing"
)

// The fuzz target hardens the repo's external mobility input, the ns-2
// scenario parser. It accepts arbitrary files from other tools, so it must
// never panic, hang, or allocate unboundedly, and anything it accepts must
// survive the round-trip through the sampler and the writer.
//
// Run it with `make fuzz-smoke` (seconds) or `go test -fuzz` (open ended).

const ns2Seed = `$node_(0) set X_ 662.5000
$node_(0) set Y_ 50.0000
$node_(0) set Z_ 0.0000
$node_(1) set X_ 100.0000
$node_(1) set Y_ 50.0000
$node_(1) set Z_ 0.0000
$ns_ at 1.0000 "$node_(0) setdest 670.0000 50.0000 7.5000"
$ns_ at 2.0000 "$node_(1) setdest 120.0000 50.0000 5.0000"
# a comment ns-2 files may carry
set god_ [God instance]
`

func FuzzParseNS2(f *testing.F) {
	f.Add([]byte(ns2Seed))
	f.Add([]byte(`$node_(3) set X_ 1`))
	f.Add([]byte(`$ns_ at 0.5 "$node_(0) setdest 1 2 3"`))
	f.Add([]byte(`$node_(999999999999) set X_ 1`))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		script, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Bound per-exec work: a single "$node_(1048575) set X_ 1" line is
		// valid and would make the sampling/round-trip below allocate
		// millions of positions per exec, collapsing fuzz throughput.
		if len(script.Nodes) > 2000 {
			return
		}
		// Whatever parses must sample and re-serialize without panicking.
		tr := script.Sample(1.0, 5.0)
		if tr.NumNodes() > 0 {
			if got := tr.NumSamples(); got != 6 {
				t.Fatalf("Sample(1, 5) produced %d samples, want 6", got)
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, script); err != nil {
			t.Fatalf("Write of parsed script failed: %v", err)
		}
		// And the writer's output must parse back.
		if _, err := Parse(&buf); err != nil {
			t.Fatalf("round-trip re-parse failed: %v", err)
		}
	})
}
