package scenario

import (
	"reflect"
	"testing"
)

// TestKernelOracleRunIdentity is the whole-run differential contract for
// the event kernel: a scenario executed on the retained binary-heap oracle
// must reproduce the calendar-queue run bit for bit — same metrics, same
// per-second series, same fault outcomes. The churn entry is the sharpest
// probe: fault-driven crashes and retransmission timeouts make the run
// cancellation-heavy, exercising the lazy-cancel path end to end.
func TestKernelOracleRunIdentity(t *testing.T) {
	for _, name := range []string{"churn", "manhattan"} {
		t.Run(name, func(t *testing.T) {
			spec, ok := Get(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			run := spec.Shrunk()
			run.Seed = 17
			assertRunIdentity(t, run, referencePaths{kernel: true})
		})
	}
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
