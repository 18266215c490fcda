// Package aodv implements the Ad hoc On-demand Distance Vector routing
// protocol of RFC 3561, the first of the three protocols the paper
// evaluates (§III-B.2): on-demand route discovery by RREQ flooding with
// reverse-path setup, RREP confirmation along the reverse path, destination
// sequence numbers for loop freedom, HELLO-based and data-link-based link
// sensing, and RERR propagation to precursors on link breakage.
package aodv

import (
	"cavenet/internal/netsim"
)

// Wire sizes in bytes (RFC 3561 message formats, without IP header).
const (
	rreqBytes     = 24
	rrepBytes     = 20
	rerrBaseBytes = 12
	rerrDestBytes = 8
	helloBytes    = rrepBytes
)

// RREQ is a route request, flooded toward the destination.
type RREQ struct {
	HopCount    int
	ID          uint32 // RREQ ID, unique per originator
	Dst         netsim.NodeID
	DstSeq      uint32
	DstSeqKnown bool
	Src         netsim.NodeID
	SrcSeq      uint32
}

// RREP is a route reply, unicast hop-by-hop along the reverse path. A HELLO
// message is an RREP with Dst == the sender and HopCount == 0, broadcast
// with TTL 1 (RFC 3561 §6.9).
type RREP struct {
	HopCount int
	Dst      netsim.NodeID // destination the route leads to
	DstSeq   uint32
	Src      netsim.NodeID // originator that requested the route
	Lifetime int64         // milliseconds of validity
	Hello    bool
}

// RERR reports broken routes to upstream precursors.
type RERR struct {
	Unreachable []netsim.Unreachable
}

func rerrSize(n int) int { return rerrBaseBytes + n*rerrDestBytes }
