package core

import "testing"

func TestShadowingConnectivitySigmoid(t *testing.T) {
	pts := ShadowingConnectivity(ShadowingConfig{Seed: 1})
	if len(pts) == 0 {
		t.Fatal("empty sweep")
	}
	var at100, at250, at500 float64
	for _, p := range pts {
		switch p.DistanceM {
		case 100:
			at100 = p.LinkProb
		case 250:
			at250 = p.LinkProb
		case 500:
			at500 = p.LinkProb
		}
	}
	if at100 < 0.95 {
		t.Fatalf("P(link) at 100 m = %v, want near 1", at100)
	}
	// At the calibrated range the shadowing deviation is symmetric in dB,
	// so the link probability crosses ≈0.5.
	if at250 < 0.4 || at250 > 0.6 {
		t.Fatalf("P(link) at 250 m = %v, want ≈0.5", at250)
	}
	if at500 > 0.1 {
		t.Fatalf("P(link) at 500 m = %v, want near 0", at500)
	}
	// Monotone non-increasing within estimator noise.
	for i := 1; i < len(pts); i++ {
		if pts[i].LinkProb > pts[i-1].LinkProb+0.05 {
			t.Fatalf("link probability rising at %v m: %v -> %v",
				pts[i].DistanceM, pts[i-1].LinkProb, pts[i].LinkProb)
		}
	}
}

func TestShadowingVsDiskBaseline(t *testing.T) {
	distances := []float64{100, 240, 260, 400}
	disk := DiskConnectivity(distances, 250)
	want := []float64{1, 1, 0, 0}
	for i, p := range disk {
		if p.LinkProb != want[i] {
			t.Fatalf("disk P at %v m = %v, want %v", p.DistanceM, p.LinkProb, want[i])
		}
	}
	// Shadowing gives non-zero probability beyond the disk edge and below
	// one inside it — the qualitative difference ref [18] studies.
	shadow := ShadowingConnectivity(ShadowingConfig{Distances: distances, Seed: 2})
	if shadow[2].LinkProb <= 0 {
		t.Fatal("shadowing should allow links just beyond the disk range")
	}
	if shadow[1].LinkProb >= 1 {
		t.Fatal("shadowing should make links just inside the disk unreliable")
	}
}

func TestShadowingDeterministicSeed(t *testing.T) {
	a := ShadowingConnectivity(ShadowingConfig{Seed: 3, Trials: 500})
	b := ShadowingConnectivity(ShadowingConfig{Seed: 3, Trials: 500})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce the sweep")
		}
	}
}

// TestShadowingVanishingSigmaIsDisk pins the σ → 0 limit, which SigmaDB 0
// cannot reach (it means the 4 dB default): at σ = 1e-9 the sweep equals
// DiskConnectivity at every default distance except the calibrated range,
// where the threshold is the mean power itself and a vanishing deviation
// still falls on either side of it.
func TestShadowingVanishingSigmaIsDisk(t *testing.T) {
	got := ShadowingConnectivity(ShadowingConfig{SigmaDB: 1e-9, Seed: 4})
	if len(got) != 19 {
		t.Fatalf("default sweep has %d distances, want 19 (50..500 m by 25)", len(got))
	}
	distances := make([]float64, len(got))
	for i, p := range got {
		distances[i] = p.DistanceM
	}
	want := DiskConnectivity(distances, 250)
	skipped := 0
	for i := range got {
		if got[i].DistanceM == 250 {
			skipped++
			continue
		}
		if got[i] != want[i] {
			t.Errorf("at %v m: shadowing %v, disk %v", got[i].DistanceM, got[i].LinkProb, want[i].LinkProb)
		}
	}
	if skipped != 1 {
		t.Fatalf("the range 250 m appears %d times in the default sweep, want once", skipped)
	}
}
