package scenario

import "testing"

// TestDataPlaneOracleRunIdentity is the whole-run differential contract
// for the AODV and DYMO dense-index routing tables: a scenario routed
// through the retained map-based oracle tables must reproduce the
// dense-path run bit for bit — same metrics, same per-second series, same
// fault outcomes. The churn entry is the sharpest probe: crashes exercise
// breakVia/RERR floods, discovery-buffer drains and cold router
// replacement; downtown adds urban mobility plus uplink flows toward
// external addresses no AODV/DYMO route ever resolves, exercising the
// discovery-timeout and no-route paths.
func TestDataPlaneOracleRunIdentity(t *testing.T) {
	for _, proto := range []Protocol{AODV, DYMO} {
		for _, name := range []string{"churn", "downtown"} {
			t.Run(string(proto)+"/"+name, func(t *testing.T) {
				spec, ok := Get(name)
				if !ok {
					t.Fatalf("%s not registered", name)
				}
				run := spec.Shrunk()
				run.Protocol = proto
				run.Seed = 23
				assertRunIdentity(t, run, referencePaths{dataPlane: true})
			})
		}
	}
}
