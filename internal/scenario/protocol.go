package scenario

import (
	"fmt"

	"cavenet/internal/netsim"
	"cavenet/internal/routing/aodv"
	"cavenet/internal/routing/dymo"
	"cavenet/internal/routing/gpsr"
	"cavenet/internal/routing/olsr"
)

// Protocol selects the routing protocol under test. (The core package
// aliases this type, so the paper-facing API is unchanged.)
type Protocol string

// The protocols evaluated by the paper, plus GPSR: the geographic
// baseline the urban workloads add — position beacons instead of routes,
// for comparison against the paper's topological three.
const (
	AODV Protocol = "aodv"
	OLSR Protocol = "olsr"
	DYMO Protocol = "dymo"
	GPSR Protocol = "gpsr"
)

// AllProtocols lists the supported routing protocols: the paper's three
// in its comparison order, then GPSR.
func AllProtocols() []Protocol { return []Protocol{AODV, OLSR, DYMO, GPSR} }

// ParseProtocol maps a protocol name to its constant.
func ParseProtocol(name string) (Protocol, error) {
	switch Protocol(name) {
	case AODV, OLSR, DYMO, GPSR:
		return Protocol(name), nil
	default:
		return "", fmt.Errorf("scenario: unknown protocol %q", name)
	}
}

// routerFactory builds the per-node router for the spec's protocol and
// ablation knobs.
func (s *Spec) routerFactory() netsim.RouterFactory {
	switch s.Protocol {
	case OLSR:
		etx := s.OLSRETX
		// V2I uplink: the RSU gateway advertises the external range via
		// HNA. Wired inside the factory — not after world assembly — so a
		// crash-replacement router re-advertises when the RSU recovers.
		gw := netsim.NodeID(-1)
		var assoc olsr.NetworkAssoc
		if u := s.Uplink; u != nil {
			gw = netsim.NodeID(s.GatewayNode())
			assoc = olsr.NetworkAssoc{
				From: netsim.NodeID(u.ExternalBase),
				To:   netsim.NodeID(u.ExternalBase + u.ExternalCount - 1),
			}
		}
		return func(n *netsim.Node) netsim.Router {
			r := olsr.New(n, olsr.Config{ETX: etx})
			if n.ID() == gw {
				r.AdvertiseNetwork(assoc)
			}
			return r
		}
	case GPSR:
		return func(n *netsim.Node) netsim.Router { return gpsr.New(n) }
	case DYMO:
		cfg := dymo.Config{NoPathAccumulation: s.DYMONoPathAccumulation}
		return func(n *netsim.Node) netsim.Router { return dymo.New(n, cfg) }
	default:
		cfg := aodv.Config{NoExpandingRing: s.AODVNoExpandingRing}
		return func(n *netsim.Node) netsim.Router { return aodv.New(n, cfg) }
	}
}
