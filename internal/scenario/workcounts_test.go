package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"cavenet/internal/scenario/check"
	"cavenet/internal/sim"
)

var updateWorkCounts = flag.Bool("update", false, "rewrite testdata/workcounts.golden")

// workCountCells are the runs TestWorkCounts pins: Table I at seed 1 under
// the paper's three protocols, and shrunk cells that reach paths no golden
// covers — OLSR's ETX costs, the RTS/CTS exchange, OLSR routers rebuilt by
// crashes, OLSR resolving uplink flows through HNA, the cells where
// backoff countdowns are interrupted most (impaired links, crashes, dense
// street grids) under every protocol, AODV and DYMO routers shut down
// gracefully in the middle of route searches, and both in a 300-vehicle
// metro.
func workCountCells(t *testing.T) []Spec {
	t.Helper()
	get := func(name string) Spec {
		s, ok := Get(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		return s
	}
	var cells []Spec
	for _, p := range []Protocol{AODV, OLSR, DYMO} {
		s := get("highway")
		s.Protocol, s.Seed = p, 1
		cells = append(cells, s)
	}
	etx := get("highway").Shrunk()
	etx.Protocol, etx.OLSRETX, etx.Seed = OLSR, true, 29
	rts := get("highway").Shrunk()
	rts.RTSThreshold, rts.Seed = 256, 5
	cells = append(cells, etx, rts)
	for _, name := range []string{"churn", "downtown", "manhattan"} {
		s := get(name).Shrunk()
		s.Protocol, s.Seed = OLSR, 29
		cells = append(cells, s)
	}
	for _, name := range []string{"flaky-corridor", "churn", "manhattan", "downtown"} {
		for _, p := range AllProtocols() {
			s := get(name).Shrunk()
			s.Protocol, s.Seed = p, 5
			cells = append(cells, s)
		}
	}
	for _, p := range []Protocol{AODV, DYMO} {
		s := get("churn").Shrunk()
		s.Protocol, s.Seed, s.Faults.ChurnGraceful = p, 5, true
		cells = append(cells, s)
	}
	// `scenario run metro -nodes 300 -time 2 -protocol P`: the reactive
	// routers in a 300-radio world, where floods overlap and most routes
	// are learned second-hand.
	for _, p := range []Protocol{AODV, DYMO} {
		s, err := get("metro").WithVehicles(300)
		if err != nil {
			t.Fatal(err)
		}
		s = s.WithSimTime(2 * sim.Second)
		s.Protocol = p
		cells = append(cells, s)
	}
	return cells
}

// writeWorkCounts renders one cell: the SHA-256 of the Result's JSON, which
// moves with any byte of the outcome, and beside it the integer counts that
// say where a moved digest moved. The kernel line is the work the run cost,
// which no Result byte shows: queue pushes and stale timer-set pops move
// when the queue works harder for the same outcome, and the peak of live
// queue entries is the queue's shape. The phy line counts the
// channel's per-receiver work: frames sent, hearings (signals scheduled at
// a receiver above carrier sense), deliveries and collided receptions. An
// OLSR cell adds its routers' recompute stamps and the MPR and route kernel
// runs readers demanded of them, summed over the routers alive at the
// horizon: a router rebuilt by a crash starts from zero, and the counts of
// the one it replaced leave with it.
func writeWorkCounts(b *bytes.Buffer, spec Spec, res *Result, work runWork) error {
	js, err := json.Marshal(res)
	if err != nil {
		return err
	}
	var sent, delivered uint64
	for _, snd := range res.Senders {
		sent += res.Sent[snd]
		delivered += res.Delivered[snd]
	}
	m := res.MACStats
	graceful := ""
	if spec.Faults.ChurnGraceful {
		graceful = "/graceful"
	}
	fmt.Fprintf(b, "cell %s/%s/etx=%v/rts=%d/seed=%d%s\n", spec.Name, res.Spec.Protocol, spec.OLSRETX, spec.RTSThreshold, spec.Seed, graceful)
	fmt.Fprintf(b, "  sha256 %x\n", sha256.Sum256(js))
	fmt.Fprintf(b, "  data sent=%d delivered=%d\n", sent, delivered)
	fmt.Fprintf(b, "  mac DataTx=%d AckTx=%d RTSTx=%d CTSTx=%d Retries=%d Failures=%d QueueDrops=%d BytesTx=%d\n",
		m.DataTx, m.AckTx, m.RTSTx, m.CTSTx, m.Retries, m.Failures, m.QueueDrops, m.BytesTx)
	fmt.Fprintf(b, "  control packets=%d bytes=%d\n", res.ControlPackets, res.ControlBytes)
	k, air, o := work.kernel, work.air, work.olsr
	fmt.Fprintf(b, "  kernel pushes=%d stale_pops=%d peak_queued=%d\n", k.Pushes, k.StalePops, k.PeakQueued)
	fmt.Fprintf(b, "  phy frames=%d hearings=%d delivered=%d collided=%d\n", air.Frames, air.Hearings, air.Delivered, air.Collided)
	if res.Spec.Protocol == OLSR {
		fmt.Fprintf(b, "  olsr stamps=%d mpr_runs=%d route_runs=%d\n", o.Recomputes, o.MPRRuns, o.RouteRuns)
	}
	reasons := make([]string, 0, len(res.Drops))
	for r := range res.Drops { // order-free: the reasons are sorted below
		reasons = append(reasons, r)
	}
	slices.Sort(reasons)
	for _, r := range reasons {
		fmt.Fprintf(b, "  drop %s %d\n", r, res.Drops[r])
	}
	return nil
}

// workedRun is Run, or RunChecked under report when report is non-nil,
// also reporting the run's work.
func workedRun(s Spec, report *check.Report) (*Result, runWork, error) {
	s = s.clone()
	if err := s.normalize(); err != nil {
		return nil, runWork{}, err
	}
	src, err := buildSource(&s, report)
	if err != nil {
		return nil, runWork{}, err
	}
	if report == nil {
		return runOnSource(&s, src, nil, nil)
	}
	return runCheckedOnSource(&s, src, report)
}

// TestWorkCounts is a fixed point for changes that must not move a run:
// every cell's result digest and integer work counts, as captured in
// testdata/workcounts.golden. Regenerate with
//
//	go test ./internal/scenario -run TestWorkCounts -update
func TestWorkCounts(t *testing.T) {
	const path = "testdata/workcounts.golden"
	var got bytes.Buffer
	for _, spec := range workCountCells(t) {
		res, work, err := workedRun(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeWorkCounts(&got, spec, res, work); err != nil {
			t.Fatal(err)
		}
	}
	if *updateWorkCounts {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got: %s\nwant: %s", i+1, g, w)
			}
		}
		t.Fatalf("work counts moved from %s (regenerate with -update only for a declared model change)", path)
	}
}
