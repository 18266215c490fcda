package metrics

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cavenet/internal/geometry"
)

// referenceComponents is the all-pairs depth-first search that
// core.ConnectivityComponents ran over a trace before Components replaced
// it, kept verbatim below the position read-out as the reference the grid
// flood fill is held to.
func referenceComponents(pos []geometry.Vec2, rangeMeters float64) [][]int {
	n := len(pos)
	seen := make([]bool, n)
	var comps [][]int
	for i := 0; i < n; i++ {
		if seen[i] {
			continue
		}
		comp := []int{}
		stack := []int{i}
		seen[i] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for u := 0; u < n; u++ {
				if !seen[u] && pos[v].Dist(pos[u]) <= rangeMeters {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// partition canonicalizes a component list as a set of sets: members
// sorted, components ordered by their smallest member.
func partition(comps [][]int) [][]int {
	out := make([][]int, len(comps))
	for i, c := range comps {
		out[i] = append([]int(nil), c...)
		sort.Ints(out[i])
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// randomPositions mixes the cases a grid can get wrong: uniform points,
// points on grid-cell edges (multiples of the range, the cell size), pairs
// exactly at range along an axis and on a 3-4-5 diagonal, and coincident
// points.
func randomPositions(rnd *rand.Rand, n int, rangeMeters float64) []geometry.Vec2 {
	unit := rangeMeters
	if unit <= 0 {
		unit = 1
	}
	span := float64(1 + rnd.Intn(20))
	pos := make([]geometry.Vec2, n)
	for i := range pos {
		switch k := rnd.Intn(6); {
		case k == 0 || i == 0:
			pos[i] = geometry.Vec2{X: rnd.Float64() * span * unit, Y: rnd.Float64() * span * unit}
		case k == 1:
			pos[i] = geometry.Vec2{X: float64(rnd.Intn(int(span))) * unit, Y: float64(rnd.Intn(int(span))) * unit}
		case k == 2:
			p := pos[rnd.Intn(i)]
			pos[i] = geometry.Vec2{X: p.X + unit, Y: p.Y}
		case k == 3:
			p := pos[rnd.Intn(i)]
			pos[i] = geometry.Vec2{X: p.X - 0.6*unit, Y: p.Y + 0.8*unit}
		case k == 4:
			pos[i] = pos[rnd.Intn(i)]
		default:
			pos[i] = geometry.Vec2{X: -rnd.Float64() * span * unit, Y: rnd.Float64() * unit}
		}
	}
	return pos
}

// TestComponentsMatchesReference is the differential: the grid flood fill
// and the all-pairs search agree on the partition, over random layouts at
// ordinary, cell-edge, zero and negative ranges.
func TestComponentsMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(30))
	ranges := []float64{250, 37.5, 1, 0, -5}
	for trial := 0; trial < 400; trial++ {
		r := ranges[trial%len(ranges)]
		if trial%7 == 6 {
			r = 1 + rnd.Float64()*500
		}
		pos := randomPositions(rnd, 1+rnd.Intn(120), r)
		got := Components(pos, r)
		want := partition(referenceComponents(pos, r))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d, range %v, %d nodes: grid %v, reference %v", trial, r, len(pos), got, want)
		}
	}
}

// TestComponentsEdgeCases pins the boundaries of the link test one pair at
// a time.
func TestComponentsEdgeCases(t *testing.T) {
	for _, c := range []struct {
		name  string
		pos   []geometry.Vec2
		r     float64
		comps [][]int
	}{
		{"no nodes", nil, 250, nil},
		{"exactly at range", []geometry.Vec2{{X: 0}, {X: 250}}, 250, [][]int{{0, 1}}},
		{"3-4-5 diagonal at range", []geometry.Vec2{{X: 100, Y: 100}, {X: 250, Y: 300}}, 250, [][]int{{0, 1}}},
		{"just beyond range", []geometry.Vec2{{X: 0}, {X: 250.0000001}}, 250, [][]int{{0}, {1}}},
		{"coincident at range 0", []geometry.Vec2{{X: 7, Y: 7}, {X: 8}, {X: 7, Y: 7}}, 0, [][]int{{0, 2}, {1}}},
		{"coincident at negative range", []geometry.Vec2{{X: 7}, {X: 7}}, -1, [][]int{{0}, {1}}},
		{"chain across cells", []geometry.Vec2{{X: 0}, {X: 200}, {X: 400}, {X: 2000}, {X: 2200}}, 250, [][]int{{0, 1, 2}, {3, 4}}},
	} {
		if got := Components(c.pos, c.r); !reflect.DeepEqual(got, c.comps) {
			t.Errorf("%s: Components = %v, want %v", c.name, got, c.comps)
		}
	}
}

// TestComponentsCellEdgeAtRange is the corner an unpadded grid query
// misses: with cell size 250 the pair below is linked (the distance rounds
// to exactly 250), but 250 − 250 = 0 puts the query disc of node 0 in cells
// 0…2, while node 1 sits in cell −1. Either visit order must link them.
func TestComponentsCellEdgeAtRange(t *testing.T) {
	a, b := geometry.Vec2{X: 250}, geometry.Vec2{X: -1e-15}
	if d := a.Dist(b); d != 250 {
		t.Fatalf("setup: distance %v, want to round to exactly 250", d)
	}
	for _, pos := range [][]geometry.Vec2{{a, b}, {b, a}} {
		if got := Components(pos, 250); !reflect.DeepEqual(got, [][]int{{0, 1}}) {
			t.Errorf("Components(%v) = %v, want one component", pos, got)
		}
	}
}

// TestComponentsOrder pins the documented order: members ascending,
// components by ascending smallest member, whatever the grid's cell visit
// order.
func TestComponentsOrder(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		pos := randomPositions(rnd, 1+rnd.Intn(80), 250)
		comps := Components(pos, 250)
		seen := 0
		for ci, c := range comps {
			if !sort.IntsAreSorted(c) {
				t.Fatalf("trial %d: component %d not ascending: %v", trial, ci, c)
			}
			if ci > 0 && c[0] <= comps[ci-1][0] {
				t.Fatalf("trial %d: components out of order: %v", trial, comps)
			}
			seen += len(c)
		}
		if seen != len(pos) || comps[0][0] != 0 {
			t.Fatalf("trial %d: %v is not a partition of %d nodes led by node 0", trial, comps, len(pos))
		}
	}
}

// BenchmarkComponents runs the grid flood fill against the all-pairs
// reference on a highway-density strip (40 m of road per node, 1.5 km
// wide, 250 m range).
func BenchmarkComponents(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		rnd := rand.New(rand.NewSource(1))
		pos := make([]geometry.Vec2, n)
		for i := range pos {
			pos[i] = geometry.Vec2{X: rnd.Float64() * float64(n) * 40, Y: rnd.Float64() * 1500}
		}
		for _, impl := range []struct {
			name string
			fn   func([]geometry.Vec2, float64) [][]int
		}{{"grid", Components}, {"reference", referenceComponents}} {
			b.Run(fmt.Sprintf("%s/N=%d", impl.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if comps := impl.fn(pos, 250); len(comps) == 0 {
						b.Fatal("no components")
					}
				}
			})
		}
	}
}
