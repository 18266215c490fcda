package check

import (
	"testing"

	"cavenet/internal/netsim"
)

// The node:down custody rule: a crashing custodian's flush records a drop
// for a packet whose other copy (decoded downstream before the crash) may
// live on — exactly the ACK-loss fork shape, so "node:down" counts as a
// fork witness. These synthetic lifecycles pin the rule's boundaries.

func TestLedgerNodeDownForkAllowsDownstreamDelivery(t *testing.T) {
	rep := NewReport()
	l := NewLedger(rep)

	// Crash flush at the originator (no forwarding work yet: TTL untouched),
	// then the copy already on the air is delivered downstream.
	l.Observe(sent(mkPacket(1, netsim.DefaultTTL, 0)))
	l.Observe(dropped(mkPacket(1, netsim.DefaultTTL, 0), netsim.CauseNodeDown))
	l.Observe(delivered(mkPacket(1, netsim.DefaultTTL-1, 2)))

	// Crash flush at a forwarder, one hop in.
	l.Observe(sent(mkPacket(2, netsim.DefaultTTL, 0)))
	l.Observe(dropped(mkPacket(2, netsim.DefaultTTL-1, 1), netsim.CauseNodeDown))
	l.Observe(delivered(mkPacket(2, netsim.DefaultTTL-2, 3)))

	// Two custodians of ACK-loss replicas crash independently: two
	// node:down witnesses, then the surviving copy is delivered.
	l.Observe(sent(mkPacket(3, netsim.DefaultTTL, 0)))
	l.Observe(dropped(mkPacket(3, netsim.DefaultTTL-1, 1), netsim.CauseNodeDown))
	l.Observe(dropped(mkPacket(3, netsim.DefaultTTL-2, 2), netsim.CauseNodeDown))
	l.Observe(delivered(mkPacket(3, netsim.DefaultTTL-2, 3)))

	// A node:down drop can also just terminate the packet outright.
	l.Observe(sent(mkPacket(4, netsim.DefaultTTL, 0)))
	l.Observe(dropped(mkPacket(4, netsim.DefaultTTL, 0), netsim.CauseNodeDown))
	l.finish(map[uint64]bool{})

	if !rep.Ok() {
		t.Fatalf("legitimate node:down fates flagged:\n%s", rep)
	}
}

func TestLedgerNodeDownDoesNotExcuseDoubleDelivery(t *testing.T) {
	rep := NewReport()
	l := NewLedger(rep)

	l.Observe(sent(mkPacket(1, netsim.DefaultTTL, 0)))
	l.Observe(dropped(mkPacket(1, netsim.DefaultTTL-1, 1), netsim.CauseNodeDown))
	l.Observe(delivered(mkPacket(1, netsim.DefaultTTL-1, 2)))
	l.Observe(delivered(mkPacket(1, netsim.DefaultTTL-1, 2)))

	if rep.Ok() {
		t.Fatal("double delivery behind a node:down fork went unflagged")
	}
}

func TestLedgerOrdinaryDropStillNotAForkWitness(t *testing.T) {
	rep := NewReport()
	l := NewLedger(rep)

	// A queue-full drop followed by a delivery is the classic conservation
	// bug; node:down's fork status must not have loosened it.
	l.Observe(sent(mkPacket(1, netsim.DefaultTTL, 0)))
	l.Observe(dropped(mkPacket(1, netsim.DefaultTTL, 0), netsim.CauseQueueFull))
	l.Observe(delivered(mkPacket(1, netsim.DefaultTTL-1, 2)))

	if rep.Ok() {
		t.Fatal("delivery after a non-fork drop went unflagged")
	}
}

func TestLedgerCrashedPacketsMayNotVanish(t *testing.T) {
	rep := NewReport()
	l := NewLedger(rep)

	// A packet with no terminal event and no custody at settlement is the
	// exact signature of a crash that silently discarded its queue instead
	// of flushing it as node:down drops.
	l.Observe(sent(mkPacket(1, netsim.DefaultTTL, 0)))
	l.finish(map[uint64]bool{})

	if rep.Ok() {
		t.Fatal("vanished packet (crash without flush) went unflagged")
	}
}
