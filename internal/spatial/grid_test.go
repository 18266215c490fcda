package spatial

import (
	"math/rand"
	"sort"
	"testing"

	"cavenet/internal/geometry"
)

func collect(g *Grid, pos geometry.Vec2, radius float64) []int {
	ids := g.Near(nil, pos, radius)
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	sort.Ints(out)
	return out
}

func TestGridInsertAndNear(t *testing.T) {
	g := NewGrid(100)
	g.Insert(0, geometry.Vec2{X: 10, Y: 10})
	g.Insert(1, geometry.Vec2{X: 90, Y: 10})
	g.Insert(2, geometry.Vec2{X: 500, Y: 500})
	if g.Len() != 3 {
		t.Fatalf("Len = %d, want 3", g.Len())
	}
	got := collect(g, geometry.Vec2{X: 50, Y: 50}, 100)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Near = %v, want [0 1]", got)
	}
}

func TestGridNearIsSuperset(t *testing.T) {
	// Items just outside the radius but inside an intersecting cell may be
	// reported: Near is conservative, never exact.
	g := NewGrid(100)
	g.Insert(0, geometry.Vec2{X: 199, Y: 0})
	got := collect(g, geometry.Vec2{}, 100)
	if len(got) != 1 {
		t.Fatalf("conservative query dropped a candidate: %v", got)
	}
}

func TestGridMoveAcrossCells(t *testing.T) {
	g := NewGrid(100)
	g.Insert(7, geometry.Vec2{X: 50, Y: 50})
	g.Move(7, geometry.Vec2{X: 1050, Y: 50})
	if got := collect(g, geometry.Vec2{X: 50, Y: 50}, 100); len(got) != 0 {
		t.Fatalf("item still visible at old cell: %v", got)
	}
	if got := collect(g, geometry.Vec2{X: 1000, Y: 0}, 100); len(got) != 1 || got[0] != 7 {
		t.Fatalf("item not found at new cell: %v", got)
	}
	if pos, ok := g.Position(7); !ok || pos.X != 1050 {
		t.Fatalf("Position = %v, %v", pos, ok)
	}
}

func TestGridMoveWithinCellKeepsPosition(t *testing.T) {
	g := NewGrid(100)
	g.Insert(0, geometry.Vec2{X: 10, Y: 10})
	g.Move(0, geometry.Vec2{X: 20, Y: 30})
	pos, ok := g.Position(0)
	if !ok || pos != (geometry.Vec2{X: 20, Y: 30}) {
		t.Fatalf("Position after in-cell move = %v, %v", pos, ok)
	}
	if got := collect(g, geometry.Vec2{}, 50); len(got) != 1 {
		t.Fatalf("Near after in-cell move = %v", got)
	}
}

func TestGridRemove(t *testing.T) {
	g := NewGrid(100)
	g.Insert(0, geometry.Vec2{})
	g.Insert(1, geometry.Vec2{X: 1})
	g.Remove(0)
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
	if got := collect(g, geometry.Vec2{}, 10); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Near after remove = %v", got)
	}
	if _, ok := g.Position(0); ok {
		t.Fatal("removed id still has a position")
	}
}

func TestGridNegativeCoordinates(t *testing.T) {
	g := NewGrid(100)
	g.Insert(0, geometry.Vec2{X: -150, Y: -150})
	g.Insert(1, geometry.Vec2{X: 150, Y: 150})
	got := collect(g, geometry.Vec2{X: -150, Y: -150}, 100)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("Near in negative quadrant = %v, want [0]", got)
	}
}

func TestGridPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"zero cell", func() { NewGrid(0) }},
		{"negative id", func() { NewGrid(1).Insert(-1, geometry.Vec2{}) }},
		{"double insert", func() {
			g := NewGrid(1)
			g.Insert(0, geometry.Vec2{})
			g.Insert(0, geometry.Vec2{})
		}},
		{"move absent", func() { NewGrid(1).Move(3, geometry.Vec2{}) }},
		{"remove absent", func() { NewGrid(1).Remove(3) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

// TestGridMatchesBruteForce drives a random insert/move/remove workload and
// checks every query returns a superset of the brute-force answer while
// never reporting an item outside the scanned cell neighborhood.
func TestGridMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(42))
	const n = 200
	const cell = 550.0
	g := NewGrid(cell)
	pos := make([]geometry.Vec2, n)
	present := make([]bool, n)
	randPos := func() geometry.Vec2 {
		return geometry.Vec2{X: rnd.Float64()*8000 - 4000, Y: rnd.Float64()*8000 - 4000}
	}
	for i := 0; i < n; i++ {
		pos[i] = randPos()
		present[i] = true
		g.Insert(i, pos[i])
	}
	for step := 0; step < 2000; step++ {
		id := rnd.Intn(n)
		switch op := rnd.Intn(4); {
		case op == 0 && present[id]:
			g.Remove(id)
			present[id] = false
		case op == 1 && !present[id]:
			pos[id] = randPos()
			present[id] = true
			g.Insert(id, pos[id])
		case present[id]:
			pos[id] = randPos()
			g.Move(id, pos[id])
		}
		if step%20 != 0 {
			continue
		}
		center := randPos()
		radius := rnd.Float64() * 1200
		got := map[int]bool{}
		for _, v := range g.Near(nil, center, radius) {
			if got[int(v)] {
				t.Fatalf("step %d: duplicate id %d in query result", step, v)
			}
			got[int(v)] = true
		}
		for i := 0; i < n; i++ {
			within := present[i] && pos[i].Dist(center) <= radius
			if within && !got[i] {
				t.Fatalf("step %d: id %d within radius %v missing from query", step, i, radius)
			}
			// Conservative bound: anything reported lies in a cell that
			// intersects the bounding square, i.e. within (radius+cell)·√2.
			if got[i] && pos[i].Dist(center) > (radius+cell)*1.4143 {
				t.Fatalf("step %d: id %d at %v reported far outside radius %v",
					step, i, pos[i].Dist(center), radius)
			}
		}
	}
}

// bruteNearest is the reference answer for Nearest: a full scan applying
// the documented strict (distance, id) order with the same Dist calls.
func bruteNearest(pos []geometry.Vec2, present []bool, q geometry.Vec2, limit float64) (int, float64, bool) {
	best, bestID := limit, -1
	for i := range pos {
		if !present[i] {
			continue
		}
		d := q.Dist(pos[i])
		if d >= limit {
			continue
		}
		if bestID < 0 || d < best || (d == best && i < bestID) {
			best, bestID = d, i
		}
	}
	if bestID < 0 {
		return -1, 0, false
	}
	return bestID, best, true
}

// TestGridNearestMatchesBruteForce checks Nearest is bit-identical to a
// brute-force scan across a random insert/move/remove workload, including
// queries whose limit excludes everything (the detached-radio case).
func TestGridNearestMatchesBruteForce(t *testing.T) {
	rnd := rand.New(rand.NewSource(99))
	const n = 150
	g := NewGrid(550)
	pos := make([]geometry.Vec2, n)
	present := make([]bool, n)
	randPos := func() geometry.Vec2 {
		return geometry.Vec2{X: rnd.Float64()*6000 - 3000, Y: rnd.Float64()*6000 - 3000}
	}
	for i := 0; i < n; i++ {
		pos[i] = randPos()
		present[i] = true
		g.Insert(i, pos[i])
	}
	for step := 0; step < 3000; step++ {
		id := rnd.Intn(n)
		switch op := rnd.Intn(4); {
		case op == 0 && present[id]:
			g.Remove(id)
			present[id] = false
		case op == 1 && !present[id]:
			pos[id] = randPos()
			present[id] = true
			g.Insert(id, pos[id])
		case present[id]:
			pos[id] = randPos()
			g.Move(id, pos[id])
		}
		q := randPos()
		limit := rnd.Float64() * 2000 // often excludes every item
		gotID, gotD, gotOK := g.Nearest(q, limit)
		wantID, wantD, wantOK := bruteNearest(pos, present, q, limit)
		if gotID != wantID || gotD != wantD || gotOK != wantOK {
			t.Fatalf("step %d: Nearest(%v, %v) = (%d, %v, %v), brute force says (%d, %v, %v)",
				step, q, limit, gotID, gotD, gotOK, wantID, wantD, wantOK)
		}
	}
}

// TestGridNearestTieBreak pins the documented tie rule: exact equal
// distances resolve to the smallest id, regardless of insertion order or
// cell layout.
func TestGridNearestTieBreak(t *testing.T) {
	g := NewGrid(100)
	// Mirror-image points around the query — bitwise-equal distances, in
	// different cells, inserted high id first.
	g.Insert(9, geometry.Vec2{X: 250, Y: 0})
	g.Insert(4, geometry.Vec2{X: -250, Y: 0})
	id, d, ok := g.Nearest(geometry.Vec2{}, 1000)
	if !ok || id != 4 || d != 250 {
		t.Fatalf("Nearest = (%d, %v, %v), want (4, 250, true)", id, d, ok)
	}
	// Same tie within one cell.
	g2 := NewGrid(1000)
	g2.Insert(7, geometry.Vec2{X: 10, Y: 0})
	g2.Insert(3, geometry.Vec2{X: 0, Y: 10})
	if id, _, _ := g2.Nearest(geometry.Vec2{}, 50); id != 3 {
		t.Fatalf("in-cell tie broke to %d, want 3", id)
	}
}

// TestGridNearestLimitIsStrict: an item exactly at the limit is not
// "strictly within" it.
func TestGridNearestLimitIsStrict(t *testing.T) {
	g := NewGrid(100)
	g.Insert(0, geometry.Vec2{X: 300, Y: 0})
	if _, _, ok := g.Nearest(geometry.Vec2{}, 300); ok {
		t.Fatal("item at exactly the limit was accepted")
	}
	if id, _, ok := g.Nearest(geometry.Vec2{}, 300.0001); !ok || id != 0 {
		t.Fatal("item just inside the limit was rejected")
	}
	if _, _, ok := g.Nearest(geometry.Vec2{}, 0); ok {
		t.Fatal("non-positive limit accepted an item")
	}
	if _, _, ok := NewGrid(100).Nearest(geometry.Vec2{}, 100); ok {
		t.Fatal("empty grid reported an item")
	}
}

func TestGridNearReusesBuffer(t *testing.T) {
	g := NewGrid(100)
	for i := 0; i < 32; i++ {
		g.Insert(i, geometry.Vec2{X: float64(i), Y: float64(i)})
	}
	buf := make([]int32, 0, 64)
	out := g.Near(buf[:0], geometry.Vec2{X: 16, Y: 16}, 90)
	if len(out) == 0 {
		t.Fatal("query returned nothing")
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = g.Near(buf[:0], geometry.Vec2{X: 16, Y: 16}, 90)
	})
	if allocs != 0 {
		t.Fatalf("Near with reused buffer allocated %v times per run", allocs)
	}
}

// Position reports the indexed position of id and whether it is present.
func (g *Grid) Position(id int) (geometry.Vec2, bool) {
	if id < 0 || id >= len(g.items) || !g.items[id].present {
		return geometry.Vec2{}, false
	}
	return g.items[id].pos, true
}
