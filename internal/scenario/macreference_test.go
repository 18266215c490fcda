package scenario

import (
	"fmt"
	"reflect"
	"testing"
)

// TestMACReferenceRunIdentity is the whole-run differential contract for
// the DCF's per-backoff timer: a scenario whose stations count the backoff
// down with one event per idle slot (mac.Config.SlotOracle) must reproduce
// the run that arms one timer per backoff and recovers the remaining slots
// by arithmetic at a busy edge — bit for bit. The matrix is chosen for the
// ways a countdown gets interrupted: highway is the paper's Table I cell,
// flaky-corridor impairs links (erased receptions, retries at large CW),
// churn crashes stations mid-countdown (Down/Up), manhattan and downtown
// are the dense cells where busy edges and slot boundaries are most likely
// to share a nanosecond. The RTS/CTS exchange adds NAV freezes and the
// SIFS-spaced CTS and data responses.
func TestMACReferenceRunIdentity(t *testing.T) {
	seeds := []int64{5, 23, 41}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, name := range []string{"highway", "flaky-corridor", "churn", "manhattan", "downtown"} {
		spec, ok := Get(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		for _, proto := range AllProtocols() {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%s/%s/%d", name, proto, seed), func(t *testing.T) {
					run := spec.Shrunk()
					run.Protocol = proto
					run.Seed = seed
					assertRunIdentity(t, run, referencePaths{mac: true})
				})
			}
		}
	}
	t.Run("highway/rts", func(t *testing.T) {
		spec, _ := Get("highway")
		run := spec.Shrunk()
		run.RTSThreshold = 256
		run.Seed = seeds[0]
		assertRunIdentity(t, run, referencePaths{mac: true})
	})
}

// assertRunIdentity runs spec twice — through Run, the fast paths every
// exported entry point takes, and with the given reference paths selected
// through the unexported runOnSource argument — and requires the two
// Results to be deeply equal, echoed Spec included, under one content
// address: the choice of path is not part of a run's identity.
func assertRunIdentity(t *testing.T, spec Spec, ref referencePaths) {
	t.Helper()
	fast, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := spec.clone()
	if err := s.normalize(); err != nil {
		t.Fatal(err)
	}
	src, err := buildSource(&s, nil)
	if err != nil {
		t.Fatal(err)
	}
	reference, err := runOnSource(&s, src, nil, ref)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fast, reference) {
		t.Fatalf("fast-path and reference %+v runs diverged", ref)
	}
	fh, err := fast.Spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	rh, err := reference.Spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if fh != rh {
		t.Fatalf("one workload, two content addresses: fast %s, reference %s", fh, rh)
	}
}
