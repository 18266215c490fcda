package scenario

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"cavenet/internal/ca"
)

// TestUrbanSpecValidation covers the street-grid spec surface: defaults,
// knob incompatibilities and the caps that keep hostile specs from
// forcing huge allocations.
func TestUrbanSpecValidation(t *testing.T) {
	base := func() Spec {
		return Spec{Name: "u", GridRows: 3, GridCols: 3}
	}
	s, err := base().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if s.BlockMeters != 150 || s.GridVehicles != 40 {
		t.Fatalf("urban defaults: block=%v fleet=%d", s.BlockMeters, s.GridVehicles)
	}
	if s.Nodes != 40 {
		t.Fatalf("urban Nodes defaulted to %d, want the fleet", s.Nodes)
	}

	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"one-sided grid", func(s *Spec) { s.GridCols = 0 }, "at least 2x2"},
		{"degenerate grid", func(s *Spec) { s.GridRows, s.GridCols = 1, 5 }, "at least 2x2"},
		{"grid side cap", func(s *Spec) { s.GridRows = maxGridDim + 1 }, "side cap"},
		{"ring knobs rejected", func(s *Spec) { s.CircuitMeters = 3000 }, "incompatible"},
		{"ramp rejected", func(s *Spec) { s.RampSeconds = 10 }, "incompatible"},
		{"short blocks", func(s *Spec) { s.BlockMeters = 20 }, "shorter than"},
		{"block cap", func(s *Spec) { s.BlockMeters = 50000 }, "10 km cap"},
		{"over capacity", func(s *Spec) { s.GridVehicles = 100000 }, "capacity"},
		{"half a signal cycle", func(s *Spec) { s.GridSignalGreen = 20 }, "signal cycle"},
		{"station count drift", func(s *Spec) { s.Nodes = 10 }, "stations for a grid"},
		{"rsu off grid", func(s *Spec) {
			s.Uplink = &Uplink{Row: 7, Col: 0, ExternalBase: 1000, ExternalCount: 4}
		}, "outside"},
		{"external range under node ids", func(s *Spec) {
			s.Uplink = &Uplink{Row: 1, Col: 1, ExternalBase: 30, ExternalCount: 4}
		}, "above every node ID"},
		{"empty external range", func(s *Spec) {
			s.Uplink = &Uplink{Row: 1, Col: 1, ExternalBase: 1000}
		}, "external range size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mut(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("invalid spec accepted: %+v", s)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// An uplink without a grid has nowhere to stand.
	if err := (Spec{Name: "r", Uplink: &Uplink{ExternalBase: 100, ExternalCount: 1}}).Validate(); err == nil {
		t.Fatal("ring spec with an uplink accepted")
	}
	// A sender must not mix uplink and in-network destinations.
	mixed := base()
	mixed.Uplink = &Uplink{Row: 1, Col: 1, ExternalBase: 1000, ExternalCount: 4}
	mixed.Flows = []Flow{{Src: 2, Dst: 1000}, {Src: 2, Dst: 0}}
	if err := mixed.Validate(); err == nil || !strings.Contains(err.Error(), "mixes") {
		t.Fatalf("mixed-destination sender accepted: %v", err)
	}
}

// TestWithVehiclesGridRescale pins the urban scale-override semantics:
// fleet density per street-meter is preserved (block length stretches
// with the fleet, snapped to the CA cell grid), while grid shape,
// signals and the uplink stay fixed.
func TestWithVehiclesGridRescale(t *testing.T) {
	spec, ok := Get("downtown")
	if !ok {
		t.Fatal("downtown not registered")
	}
	orig, err := spec.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	streets := float64(orig.GridRows*(orig.GridCols-1) + orig.GridCols*(orig.GridRows-1))
	scaled, err := spec.WithVehicles(2 * orig.GridVehicles)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.GridVehicles != 2*orig.GridVehicles {
		t.Fatalf("scaled fleet = %d", scaled.GridVehicles)
	}
	if scaled.GridRows != orig.GridRows || scaled.GridCols != orig.GridCols {
		t.Fatalf("scaling changed the grid shape: %dx%d", scaled.GridRows, scaled.GridCols)
	}
	if scaled.GridSignalGreen != orig.GridSignalGreen || scaled.GridSignalRed != orig.GridSignalRed {
		t.Fatal("scaling changed the signal cycle")
	}
	if !reflect.DeepEqual(scaled.Uplink, orig.Uplink) {
		t.Fatalf("scaling changed the uplink: %+v", scaled.Uplink)
	}
	origDensity := float64(orig.GridVehicles) / (streets * orig.BlockMeters)
	newDensity := float64(scaled.GridVehicles) / (streets * scaled.BlockMeters)
	if math.Abs(newDensity-origDensity)/origDensity > 0.05 {
		t.Fatalf("street density drifted: %g -> %g veh/m", origDensity, newDensity)
	}
	if rem := math.Mod(scaled.BlockMeters, ca.CellLength); rem != 0 {
		t.Fatalf("scaled block %v m not on the CA cell grid", scaled.BlockMeters)
	}
	if scaled.Nodes != scaled.GridVehicles+1 {
		t.Fatalf("scaled Nodes = %d, want fleet+RSU", scaled.Nodes)
	}
	if err := scaled.Validate(); err != nil {
		t.Fatal(err)
	}
	// Scaling to the same fleet is the identity.
	same, err := spec.WithVehicles(orig.GridVehicles)
	if err != nil {
		t.Fatal(err)
	}
	if same.BlockMeters != orig.BlockMeters {
		t.Fatalf("identity rescale moved the block length: %v", same.BlockMeters)
	}
}

// TestUplinkStats pins the V2I accounting: a downtown run reports the
// uplink slice of the workload, and its totals reconcile with the
// per-sender counters of the external flows.
func TestUplinkStats(t *testing.T) {
	spec, ok := Get("downtown")
	if !ok {
		t.Fatal("downtown not registered")
	}
	run := spec.Shrunk()
	run.Seed = 5
	res, err := Run(run)
	if err != nil {
		t.Fatal(err)
	}
	if res.Uplink == nil {
		t.Fatal("downtown run reported no uplink stats")
	}
	var sent, del uint64
	for _, f := range run.Flows {
		if !run.ExternalDst(f.Dst) {
			continue
		}
		sent += res.Sent[f.Src]
		del += res.Delivered[f.Src]
	}
	if res.Uplink.Sent != sent || res.Uplink.Delivered != del {
		t.Fatalf("uplink totals %+v do not reconcile with senders (%d/%d)", res.Uplink, del, sent)
	}
	if res.Uplink.Sent == 0 || res.Uplink.Delivered == 0 {
		t.Fatalf("OLSR HNA uplink carried nothing: %+v", res.Uplink)
	}
	if want := float64(del) / float64(sent); res.Uplink.PDR != want {
		t.Fatalf("uplink PDR = %v, want %v", res.Uplink.PDR, want)
	}

	// Without an uplink the result stays structurally identical to before:
	// no stats block at all.
	manhattan, _ := Get("manhattan")
	plain, err := Run(manhattan.Shrunk())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Uplink != nil {
		t.Fatalf("uplink stats on a spec without an uplink: %+v", plain.Uplink)
	}
}
