package geometry

import "fmt"

// GridSegment is one directed street of a Manhattan road grid: a straight
// lane from intersection From to intersection To.
type GridSegment struct {
	From, To int  // intersection indices into RoadGrid.Intersections
	A, B     Vec2 // plane endpoints (A at the From intersection)
}

// RoadGrid is the layout of a Manhattan-style urban grid: Rows × Cols
// signalizable intersections joined by one-way streets. It is pure
// geometry — the CA layer turns each segment into a NaS lane and each
// intersection into a transfer point.
type RoadGrid struct {
	Rows, Cols  int
	BlockMeters float64
	// Intersections[r*Cols+c] is the plane position of intersection (r, c).
	Intersections []Vec2
	// Segments are the directed streets. Outgoing[i] indexes the segments
	// leaving intersection i; every intersection has at least one.
	Segments []GridSegment
	Outgoing [][]int
}

// Intersection reports the index of intersection (r, c).
func (g *RoadGrid) Intersection(r, c int) int { return r*g.Cols + c }

// Manhattan generates a Rows × Cols one-way grid with blockMeters between
// adjacent intersections, anchored at origin (intersection (0,0)).
//
// Directions follow the classic alternating one-way scheme — interior row
// r runs east when r is even, west otherwise; interior column c runs
// north when c is odd, south otherwise — except that the boundary is
// forced into a counterclockwise ring (row 0 east, column Cols-1 north,
// row Rows-1 west, column 0 south). The ring guarantees every
// intersection keeps an outgoing street, and every interior one-way
// street both drains to and is fed from the ring, so the street graph is
// strongly connected: no vehicle can ever be trapped.
func Manhattan(rows, cols int, blockMeters float64, origin Vec2) (*RoadGrid, error) {
	if rows < 2 || cols < 2 {
		return nil, fmt.Errorf("geometry: manhattan grid needs >= 2 rows and cols, have %dx%d", rows, cols)
	}
	if blockMeters <= 0 {
		return nil, fmt.Errorf("geometry: non-positive block length %v", blockMeters)
	}
	g := &RoadGrid{Rows: rows, Cols: cols, BlockMeters: blockMeters}
	g.Intersections = make([]Vec2, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.Intersections[g.Intersection(r, c)] = Vec2{
				X: origin.X + float64(c)*blockMeters,
				Y: origin.Y + float64(r)*blockMeters,
			}
		}
	}
	g.Outgoing = make([][]int, rows*cols)
	addSeg := func(from, to int) {
		g.Outgoing[from] = append(g.Outgoing[from], len(g.Segments))
		g.Segments = append(g.Segments, GridSegment{
			From: from, To: to,
			A: g.Intersections[from], B: g.Intersections[to],
		})
	}
	// Horizontal streets: one segment per block of each row.
	for r := 0; r < rows; r++ {
		east := r%2 == 0
		switch r {
		case 0:
			east = true
		case rows - 1:
			east = false
		}
		for c := 0; c < cols-1; c++ {
			a, b := g.Intersection(r, c), g.Intersection(r, c+1)
			if east {
				addSeg(a, b)
			} else {
				addSeg(b, a)
			}
		}
	}
	// Vertical streets: one segment per block of each column.
	for c := 0; c < cols; c++ {
		north := c%2 == 1
		switch c {
		case 0:
			north = false
		case cols - 1:
			north = true
		}
		for r := 0; r < rows-1; r++ {
			a, b := g.Intersection(r, c), g.Intersection(r+1, c)
			if north {
				addSeg(a, b)
			} else {
				addSeg(b, a)
			}
		}
	}
	return g, nil
}
