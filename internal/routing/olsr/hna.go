package olsr

import (
	"sort"

	"cavenet/internal/netsim"
	"cavenet/internal/sim"
)

// This file implements HNA (Host and Network Association) messages, which
// the paper's §III-B.1 describes: "HNA messages are used by OLSR to
// disseminate network route advertisements in the same way TC messages
// advertise host routes." A gateway node advertises ranges of external
// destinations (e.g. roadside-infrastructure addresses outside the MANET);
// other nodes route packets for those destinations toward the gateway —
// the car-to-hotspot scenario of the paper's §II.

// HNA is the network-association message (RFC 3626 §12). Like a TC, it
// is immutable once broadcast: forwarders share it.
type HNA struct {
	Origin   netsim.NodeID
	Networks []NetworkAssoc
	Seq      uint16
}

// NetworkAssoc is one advertised external range [From, To] of destination
// IDs (the analogue of a prefix in this integer-addressed simulator).
type NetworkAssoc struct {
	From, To netsim.NodeID
}

// Contains reports whether dst falls in the advertised range.
func (a NetworkAssoc) Contains(dst netsim.NodeID) bool {
	return dst >= a.From && dst <= a.To
}

func hnaBytes(n int) int { return 16 + 8*n }

// hnaTuple is the association-set entry (RFC 3626 §12.5).
type hnaTuple struct {
	gateway netsim.NodeID
	assoc   NetworkAssoc
	until   sim.Time
}

// AdvertiseNetwork makes this node a gateway for the given external range:
// it starts emitting HNA messages alongside its TCs, and delivers packets
// addressed inside the range locally (it is the MANET-side endpoint).
func (r *Router) AdvertiseNetwork(assoc NetworkAssoc) {
	r.hnaLocal = append(r.hnaLocal, assoc)
	if r.hnaTicker == nil {
		r.hnaTicker = sim.NewTicker(r.node.Kernel(), tcInterval, r.node.Jitter(tcInterval), r.sendHNA)
		r.hnaTicker.Start()
	}
}

// GatewayFor reports the chosen gateway for an external destination, if the
// association set knows one.
func (r *Router) GatewayFor(dst netsim.NodeID) (netsim.NodeID, bool) {
	r.materialize(partRoutes)
	now := r.now()
	best := netsim.NodeID(-1)
	bestCost := 0.0
	for _, t := range r.hnaSet {
		if t.until <= now || !t.assoc.Contains(dst) {
			continue
		}
		e, ok := r.routeFor(t.gateway)
		if !ok {
			continue
		}
		if best < 0 || e.cost < bestCost {
			best = t.gateway
			bestCost = e.cost
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

func (r *Router) localAssoc(dst netsim.NodeID) bool {
	for _, a := range r.hnaLocal {
		if a.Contains(dst) {
			return true
		}
	}
	return false
}

func (r *Router) sendHNA() {
	if len(r.hnaLocal) == 0 {
		return
	}
	nets := append([]NetworkAssoc(nil), r.hnaLocal...)
	sort.Slice(nets, func(i, j int) bool { return nets[i].From < nets[j].From })
	r.msgSeq++
	msg := &HNA{Origin: r.node.ID(), Networks: nets, Seq: r.msgSeq}
	r.broadcast(netsim.DefaultTTL, hnaBytes(len(nets)), msg)
}

func (r *Router) handleHNA(p *netsim.Packet, msg *HNA, from netsim.NodeID) {
	now := r.now()
	if msg.Origin == r.node.ID() {
		return
	}
	if !r.symmetric(from, now) {
		return
	}
	if r.isDup(msg.Origin, msg.Seq) {
		return
	}
	r.recordDup(msg.Origin, msg.Seq, now)
	for _, assoc := range msg.Networks {
		r.installHNA(msg.Origin, assoc, now)
	}
	// HNA floods with the same MPR forwarding rule as TC.
	r.forward(p, from, now)
}

func (r *Router) installHNA(gw netsim.NodeID, assoc NetworkAssoc, now sim.Time) {
	for _, t := range r.hnaSet {
		if t.gateway == gw && t.assoc == assoc {
			t.until = now + topologyHold
			return
		}
	}
	r.hnaSet = append(r.hnaSet, &hnaTuple{
		gateway: gw,
		assoc:   assoc,
		until:   now + topologyHold,
	})
}

func (r *Router) purgeHNA(now sim.Time) {
	kept := r.hnaSet[:0]
	for _, t := range r.hnaSet {
		if t.until > now {
			kept = append(kept, t)
		}
	}
	r.hnaSet = kept
}
