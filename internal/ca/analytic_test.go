package ca

import (
	"math/rand"
	"testing"
)

// TestAnalyticNaSDeterministicFlow: on a ring at p = 0 every placement
// settles, within 3L steps, into free flow or a jam whose velocities fill
// the gaps, so Σv = min(N·vmax, L − N): the flow J(ρ) = min(ρ·vmax, 1 − ρ).
// The grid is every sixteenth of the lane plus the free-flow/jam boundary
// N = L/(vmax+1) ± 1, where the transient is longest. An integer
// identity, so the tolerance is 0.
func TestAnalyticNaSDeterministicFlow(t *testing.T) {
	for _, length := range []int{100, 400} {
		for _, vmax := range []int{1, 2, DefaultVMax} {
			crit := length / (vmax + 1)
			counts := []int{1, crit - 1, crit, crit + 1, length - 1, length}
			for k := 1; k < 16; k++ {
				counts = append(counts, k*length/16)
			}
			for _, n := range counts {
				for _, pl := range []Placement{EvenPlacement, CompactPlacement, RandomPlacement} {
					cfg := Config{Length: length, Vehicles: n, VMax: vmax, Placement: pl}
					lane, err := NewLane(cfg, rand.New(rand.NewSource(int64(n))))
					if err != nil {
						t.Fatal(err)
					}
					for range 3 * length {
						lane.Step()
					}
					sum := 0
					for _, v := range lane.vel {
						sum += int(v)
					}
					if want := min(n*vmax, length-n); sum != want || lane.velSum != want {
						t.Fatalf("L=%d vmax=%d N=%d placement %d: Σv = %d (kept %d) after %d steps, want min(N·vmax, L−N) = %d",
							length, vmax, n, pl, sum, lane.velSum, 3*length, want)
					}
				}
			}
		}
	}
}
