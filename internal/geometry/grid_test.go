package geometry

import "testing"

// TestManhattanStronglyConnected proves the direction scheme's promise: on
// every grid size, every intersection can reach every other by following
// one-way streets, so no vehicle is ever trapped.
func TestManhattanStronglyConnected(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {2, 5}, {3, 3}, {4, 3}, {5, 5}, {2, 3}, {3, 2}} {
		rows, cols := dims[0], dims[1]
		g, err := Manhattan(rows, cols, 150, Vec2{})
		if err != nil {
			t.Fatal(err)
		}
		n := rows * cols
		if len(g.Intersections) != n {
			t.Fatalf("%dx%d: %d intersections", rows, cols, len(g.Intersections))
		}
		wantSegs := rows*(cols-1) + cols*(rows-1)
		if len(g.Segments) != wantSegs {
			t.Fatalf("%dx%d: %d segments, want %d", rows, cols, len(g.Segments), wantSegs)
		}
		fwd := make([][]int, n)
		rev := make([][]int, n)
		indeg := make([]int, n)
		for _, s := range g.Segments {
			fwd[s.From] = append(fwd[s.From], s.To)
			rev[s.To] = append(rev[s.To], s.From)
			indeg[s.To]++
		}
		for i := 0; i < n; i++ {
			if len(g.Outgoing[i]) == 0 {
				t.Errorf("%dx%d: intersection %d has no outgoing street", rows, cols, i)
			}
			if indeg[i] == 0 {
				t.Errorf("%dx%d: intersection %d has no incoming street", rows, cols, i)
			}
		}
		reach := func(adj [][]int) int {
			seen := make([]bool, n)
			stack := []int{0}
			seen[0] = true
			count := 1
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, u := range adj[v] {
					if !seen[u] {
						seen[u] = true
						count++
						stack = append(stack, u)
					}
				}
			}
			return count
		}
		if got := reach(fwd); got != n {
			t.Errorf("%dx%d: only %d/%d intersections reachable from 0", rows, cols, got, n)
		}
		if got := reach(rev); got != n {
			t.Errorf("%dx%d: only %d/%d intersections reach 0", rows, cols, got, n)
		}
	}
}

func TestManhattanRejectsDegenerate(t *testing.T) {
	if _, err := Manhattan(1, 5, 100, Vec2{}); err == nil {
		t.Error("1-row grid accepted")
	}
	if _, err := Manhattan(3, 3, 0, Vec2{}); err == nil {
		t.Error("zero block length accepted")
	}
}
