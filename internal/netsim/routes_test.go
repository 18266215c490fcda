package netsim

import (
	"testing"

	"cavenet/internal/sim"
)

// TestUnknownSeqKeepsKnownSeq pins RFC 3561 §6.2 case (iii) as Routes reads
// it: a previous-hop install (§6.5, no sequence number) re-points an entry
// at the neighbour but keeps the sequence number the entry had learned, so
// stale information about that destination is still refused afterwards.
func TestUnknownSeqKeepsKnownSeq(t *testing.T) {
	k := sim.NewKernel()
	tb := NewRoutes(k)
	type entry struct {
		next     NodeID
		hops     int
		ok       bool
		seq      uint32
		seqKnown bool
	}
	read := func() entry {
		next, hops, ok := tb.Next(7)
		seq, known, _ := tb.LastSeq(7)
		return entry{next, hops, ok, seq, known}
	}
	steps := []struct {
		what string
		do   func()
		want entry
	}{
		{"route to 7, seq 5, three hops via 2",
			func() { tb.Update(7, 5, true, 3, 2, sim.Second) },
			entry{2, 3, true, 5, true}},
		{"7 heard directly, no sequence number",
			func() { tb.Update(7, 0, false, 1, 7, sim.Second) },
			entry{7, 1, true, 5, true}},
		{"stale seq 4 via 9 is refused",
			func() { tb.Update(7, 4, true, 2, 9, sim.Second) },
			entry{7, 1, true, 5, true}},
		{"seq 6 via 9 is newer and accepted",
			func() { tb.Update(7, 6, true, 2, 9, sim.Second) },
			entry{9, 2, true, 6, true}},
		{"a new entry without a sequence number stays unknown",
			func() { tb.Update(8, 0, false, 1, 8, sim.Second) },
			entry{9, 2, true, 6, true}},
	}
	for _, s := range steps {
		s.do()
		if got := read(); got != s.want {
			t.Fatalf("%s: got %+v, want %+v", s.what, got, s.want)
		}
	}
	if seq, known, ok := tb.LastSeq(8); seq != 0 || known || !ok {
		t.Fatalf("entry 8: LastSeq (%d, %v, %v), want (0, false, true)", seq, known, ok)
	}
}
