package olsr

import (
	"testing"

	"cavenet/internal/netsim"
	"cavenet/internal/sim"
	"cavenet/internal/traffic"
)

func TestNetworkAssocContains(t *testing.T) {
	a := NetworkAssoc{From: 100, To: 199}
	if !a.Contains(100) || !a.Contains(150) || !a.Contains(199) {
		t.Fatal("range membership broken")
	}
	if a.Contains(99) || a.Contains(200) {
		t.Fatal("range boundaries broken")
	}
}

// TestHNAGatewayScenario is the paper's §II car-to-hotspot case: the last
// node of a chain is a gateway advertising an external range; the first
// node sends to an external destination and the packet must reach the
// gateway's MANET-side endpoint.
func TestHNAGatewayScenario(t *testing.T) {
	w := chainWorld(t, 4, 200, Config{})
	gw := w.Node(3).Router().(*Router)
	gw.AdvertiseNetwork(NetworkAssoc{From: 1000, To: 1999})

	sink := &traffic.Sink{}
	w.Node(3).AttachPort(netsim.PortCBR, sink)

	// Let HELLO/TC/HNA propagate, then send to the external address 1234.
	w.Kernel.Schedule(15*sim.Second, func() {
		n := w.Node(0)
		n.SendData(n.NewPacket(1234, netsim.PortCBR, 512))
	})
	w.Run(17 * sim.Second)

	if sink.Received != 1 {
		t.Fatalf("gateway endpoint received %d packets, want 1", sink.Received)
	}
	// The source must have resolved the gateway through its HNA set.
	src := w.Node(0).Router().(*Router)
	if got, ok := src.GatewayFor(1234); !ok || got != 3 {
		t.Fatalf("GatewayFor = %v/%v, want node 3", got, ok)
	}
}

func TestHNAUnknownExternalStillDrops(t *testing.T) {
	w := chainWorld(t, 3, 200, Config{})
	var drops int
	w.Observe(func(e netsim.PacketEvent) {
		if e.Cause == netsim.CauseNoRoute {
			drops++
		}
	})
	w.Kernel.Schedule(10*sim.Second, func() {
		n := w.Node(0)
		n.SendData(n.NewPacket(5555, netsim.PortCBR, 512))
	})
	w.Run(12 * sim.Second)
	if drops != 1 {
		t.Fatalf("drops = %d; no gateway advertises 5555", drops)
	}
}

func TestHNAExpiresWithGateway(t *testing.T) {
	w := chainWorld(t, 3, 200, Config{})
	gw := w.Node(2).Router().(*Router)
	gw.AdvertiseNetwork(NetworkAssoc{From: 100, To: 100})
	w.Run(12 * sim.Second)
	src := w.Node(0).Router().(*Router)
	if _, ok := src.GatewayFor(100); !ok {
		t.Fatal("precondition: gateway learned")
	}
	// Kill the gateway's HNA emission and advance past the hold time.
	gw.Stop()
	w.Kernel.Schedule(w.Kernel.Now()+20*sim.Second, func() {})
	for w.Kernel.Step() {
	}
	src.purge()
	if _, ok := src.GatewayFor(100); ok {
		t.Fatal("stale HNA association survived")
	}
}

func TestHNAPicksNearestGateway(t *testing.T) {
	// Two gateways advertise the same range from both ends of a chain; the
	// middle-left node must pick the closer one.
	w := chainWorld(t, 4, 200, Config{})
	w.Node(0).Router().(*Router).AdvertiseNetwork(NetworkAssoc{From: 500, To: 599})
	w.Node(3).Router().(*Router).AdvertiseNetwork(NetworkAssoc{From: 500, To: 599})
	w.Run(15 * sim.Second)
	r1 := w.Node(1).Router().(*Router)
	if gw, ok := r1.GatewayFor(550); !ok || gw != 0 {
		t.Fatalf("node 1 picked gateway %v/%v, want nearest (0)", gw, ok)
	}
	r2 := w.Node(2).Router().(*Router)
	if gw, ok := r2.GatewayFor(550); !ok || gw != 3 {
		t.Fatalf("node 2 picked gateway %v/%v, want nearest (3)", gw, ok)
	}
}
