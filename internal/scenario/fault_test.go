package scenario

import (
	"reflect"
	"slices"
	"testing"

	"cavenet/internal/fault"
	"cavenet/internal/netsim"
)

// faultScenarios are the catalogue's fault-injection workloads.
var faultScenarios = []string{"churn", "blackout", "flaky-corridor"}

// TestFaultPlanDeterministic is the fault analogue of the sweep-determinism
// contract: plans are derived from forked RNG roots, never from worker
// scheduling, so a sweep over the fault workloads is bit-identical for any
// worker count — resilience columns included.
func TestFaultPlanDeterministic(t *testing.T) {
	cfg := SweepConfig{
		Scenarios: faultScenarios,
		Trials:    2,
		Seed:      7,
		Shrunk:    true,
		Checked:   true,
	}
	serial := cfg
	serial.Workers = 1
	parallel := cfg
	parallel.Workers = 8
	a, err := Sweep(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fault sweep diverged across worker counts:\n1 worker: %+v\n8 workers: %+v", a, b)
	}
	for _, row := range a {
		if row.Violations != 0 {
			t.Errorf("%s/%s: %d invariant violations under faults", row.Scenario, row.Protocol, row.Violations)
		}
	}
	// Non-vacuity: the node-fault rows must report downtime.
	for _, row := range a {
		if row.Scenario != "flaky-corridor" && row.DowntimeSec.Mean <= 0 {
			t.Errorf("%s/%s: zero downtime in a node-fault workload", row.Scenario, row.Protocol)
		}
	}
}

// TestFaultWorkloadsBite pins that the catalogue's fault scenarios actually
// perturb the run (crash drops recorded, resilience populated) while every
// invariant — conservation with the "node:down" custody rule included —
// still holds.
func TestFaultWorkloadsBite(t *testing.T) {
	churn, _ := Get("churn")
	churn = churn.Shrunk()
	churn.Protocol = AODV
	churn.Seed = 1
	res, rep, err := RunChecked(churn)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("churn violates invariants:\n%s", rep)
	}
	if res.Resilience == nil {
		t.Fatal("churn run returned no resilience summary")
	}
	r := res.Resilience
	if r.Windows == 0 || r.DowntimeNodeSec <= 0 || r.Recoveries == 0 {
		t.Fatalf("churn resilience is vacuous: %+v", r)
	}
	if res.Drops["node:down"] == 0 {
		t.Fatal("churn run recorded no node:down drops; crashes flushed nothing")
	}
	if r.SentDuring == 0 || r.DeliveredDuring == 0 {
		t.Fatalf("no traffic classified into fault windows: %+v", r)
	}

	blackout, _ := Get("blackout")
	blackout = blackout.Shrunk()
	blackout.Protocol = AODV
	blackout.Seed = 1
	res, rep, err = RunChecked(blackout)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("blackout violates invariants:\n%s", rep)
	}
	r = res.Resilience
	if r == nil || r.Windows != 1 {
		t.Fatalf("blackout resilience = %+v, want one merged window", r)
	}
	if r.PDRDuring >= r.PDROutside {
		t.Fatalf("blackout PDR during window %.3f not below outside %.3f — the mass crash did nothing", r.PDRDuring, r.PDROutside)
	}

	flaky, _ := Get("flaky-corridor")
	flaky = flaky.Shrunk()
	flaky.Protocol = AODV
	flaky.Seed = 1
	res, rep, err = RunChecked(flaky)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("flaky-corridor violates invariants:\n%s", rep)
	}
	r = res.Resilience
	if r == nil || r.Windows != 1 || r.DowntimeNodeSec != 0 || r.Recoveries != 0 {
		t.Fatalf("flaky-corridor resilience = %+v, want one pure-impairment window with no downtime", r)
	}
}

// TestFaultFreeResultShape pins the structural no-op: a scenario without
// faults yields a nil Resilience pointer and no node:down drops, so
// fault-free results marshal identically to pre-fault ones.
func TestFaultFreeResultShape(t *testing.T) {
	s, _ := Get("highway")
	s = s.Shrunk()
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resilience != nil {
		t.Fatalf("fault-free run carries a resilience summary: %+v", res.Resilience)
	}
	if n := res.Drops["node:down"]; n != 0 {
		t.Fatalf("fault-free run recorded %d node:down drops", n)
	}
	if res.MACStats.DownDrops != 0 {
		t.Fatalf("fault-free run recorded %d MAC down-flush drops", res.MACStats.DownDrops)
	}
}

// TestChurnCrashMidBroadcastReplays replays a churn run in which a crash
// flushes a broadcast that is still on the air: shrunk churn under AODV at
// seed 10 has one such flush (counted with an instrumented copy of the MAC
// when this test was written). The flushed packet goes back to the pool
// only when its frame dies, after its receivers have decoded it; before
// frames were pooled it was left to the garbage collector. Two replays
// must be DeepEqual, result and invariant report alike, with every
// invariant holding.
func TestChurnCrashMidBroadcastReplays(t *testing.T) {
	churn, _ := Get("churn")
	churn = churn.Shrunk()
	churn.Protocol = AODV
	churn.Seed = 10
	res, rep, err := RunChecked(churn)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("churn violates invariants:\n%s", rep)
	}
	if res.Drops["node:down"] == 0 {
		t.Fatal("churn run recorded no node:down drops; crashes flushed nothing")
	}
	res2, rep2, err := RunChecked(churn)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) || !reflect.DeepEqual(rep, rep2) {
		t.Fatalf("replays diverged:\n%+v\n%+v", res, res2)
	}
}

// TestInFlightCountsForks pins how a fork is counted. A fork is a packet
// with more than one terminal event: its frame was decoded downstream and
// the copy lives on, while the sender's side records a drop — the
// link-failure of an 802.11 ACK loss, or the node:down flush of a custodian
// that went down. Drops counts that witness, so InFlight (sent − delivered
// − dropped) is the packets with no terminal event minus every terminal
// event beyond a packet's first, and is negative when forks outnumber the
// packets still held. `scenario run churn -quick -protocol P -seed 8
// -faults churn:1.5,4,graceful` ends at -1 under AODV and DYMO with every
// invariant holding: in both runs nothing is held at the end and one
// packet forks, witnessed by a shutdown's node:down flush.
func TestInFlightCountsForks(t *testing.T) {
	faults, err := fault.ParseSpec("churn:1.5,4,graceful")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		protocol  Protocol
		witnesses []netsim.Cause // the forks' witness drops, sorted
	}{
		{AODV, []netsim.Cause{netsim.CauseNodeDown}},
		{DYMO, []netsim.Cause{netsim.CauseNodeDown}},
	} {
		s, _ := Get("churn")
		s.Protocol, s.Seed = c.protocol, 8
		s = s.Shrunk()
		s.Faults = faults
		if err := s.normalize(); err != nil {
			t.Fatal(err)
		}
		src, err := buildSource(&s, nil)
		if err != nil {
			t.Fatal(err)
		}

		// Each packet's terminal events, by the cause of each: zero for
		// a delivery.
		terminals := map[uint64][]netsim.Cause{}
		res, _, err := runOnSource(&s, src, nil, func(e netsim.PacketEvent) {
			if e.Kind == netsim.Sent {
				terminals[e.Packet.UID] = nil
				return
			}
			terminals[e.Packet.UID] = append(terminals[e.Packet.UID], e.Cause)
		})
		if err != nil {
			t.Fatal(err)
		}
		var open, extra int64
		var witnesses []netsim.Cause
		for _, causes := range terminals { // order-free: integer sums, and the witnesses are sorted below
			if len(causes) == 0 {
				open++
				continue
			}
			extra += int64(len(causes) - 1)
			if len(causes) > 1 {
				for _, cause := range causes {
					if cause != 0 {
						witnesses = append(witnesses, cause)
					}
				}
			}
		}
		slices.Sort(witnesses)
		if res.InFlight != open-extra {
			t.Errorf("%s: InFlight = %d, want %d packets with no terminal event − %d terminal events beyond a first",
				c.protocol, res.InFlight, open, extra)
		}
		if res.InFlight != -1 || !slices.Equal(witnesses, c.witnesses) {
			t.Errorf("%s: InFlight = %d with fork witnesses %v, want -1 with %v",
				c.protocol, res.InFlight, witnesses, c.witnesses)
		}
		_, rep, err := RunChecked(s)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() {
			t.Errorf("%s: invariants violated:\n%s", c.protocol, rep)
		}
	}
}
