package scenario

import "testing"

// TestOLSRReferenceRunIdentity is the whole-run differential contract for
// OLSR's demand-driven recompute: a scenario whose routers recompute
// eagerly at every stamp, on the retained map-based kernels, must
// reproduce the run that materializes a stamp only when somebody reads —
// bit for bit. manhattan is the workload the deferral was sized on;
// downtown resolves its uplink flows through HNA (GatewayFor reads the
// route table); churn crashes nodes and rebuilds their routers with a
// stamp pending; highway with OLSRETX moves link costs on every HELLO and
// closes the hello windows unreported (lq.tick).
func TestOLSRReferenceRunIdentity(t *testing.T) {
	for _, tc := range []struct {
		name string
		etx  bool
	}{
		{name: "manhattan"},
		{name: "downtown"},
		{name: "churn"},
		{name: "highway", etx: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, ok := Get(tc.name)
			if !ok {
				t.Fatalf("%s not registered", tc.name)
			}
			run := spec.Shrunk()
			run.Protocol = OLSR
			run.OLSRETX = tc.etx
			run.Seed = 29
			assertRunIdentity(t, run, referencePaths{olsr: true})
		})
	}
}
