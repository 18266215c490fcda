// Package spatial provides a uniform-grid index over point positions, the
// neighbor-culling structure behind the PHY broadcast fast path, the
// connectivity analysis (metrics.Components, AnalyzeTopology) and GPSR's
// neighbour index.
//
// The plane is partitioned into square cells of a fixed size; each indexed
// item lives in exactly one cell. A range query visits only the cells that
// intersect the query disc, so with a cell size equal to the query radius a
// lookup touches at most a 3×3 neighborhood regardless of how many items
// exist elsewhere. Items are identified by small non-negative integers
// chosen by the caller (CAVENET uses the radio index), which keeps the
// per-item bookkeeping in a flat slice.
//
// The index is deliberately conservative: Near reports every item whose
// cell intersects the query disc, a superset of the items actually within
// the radius. Callers apply their own exact predicate (received power
// against a threshold, Euclidean distance) to the candidates, so replacing
// a brute-force scan with a grid query is semantics-preserving as long as
// the predicate can never accept a point farther away than the query
// radius.
//
// Iteration order is deterministic: Near walks cells in row-major order and
// items within a cell in insertion order, never ranging over a Go map, so
// simulation runs stay reproducible.
package spatial

import (
	"fmt"
	"math"

	"cavenet/internal/geometry"
)

// item is the per-id bookkeeping: current position, the packed key of the
// occupied cell, and whether the id is currently indexed.
type item struct {
	pos     geometry.Vec2
	key     uint64
	present bool
}

// Grid is a uniform spatial hash over 2-D points. The zero value is not
// useful; construct with NewGrid. Grid is not safe for concurrent use,
// matching the single-threaded simulation kernel.
type Grid struct {
	cell  float64
	inv   float64 // 1/cell, hoisted out of the key computation
	cells map[uint64][]int32
	items []item
	count int
}

// NewGrid returns an empty grid with the given cell size in meters. For
// radius-r queries the sweet spot is cellSize == r: each query then scans
// at most 3×3 cells. A non-positive cell size is a construction bug and
// panics.
func NewGrid(cellSize float64) *Grid {
	if !(cellSize > 0) {
		panic(fmt.Sprintf("spatial: cell size %v must be positive", cellSize))
	}
	return &Grid{
		cell:  cellSize,
		inv:   1 / cellSize,
		cells: make(map[uint64][]int32),
	}
}

// Len reports the number of indexed items.
func (g *Grid) Len() int { return g.count }

// key packs the cell coordinates of pos into a single map key. Coordinates
// are floored so negative positions land in the correct cell.
func (g *Grid) key(pos geometry.Vec2) uint64 {
	kx := int32(math.Floor(pos.X * g.inv))
	ky := int32(math.Floor(pos.Y * g.inv))
	return uint64(uint32(kx))<<32 | uint64(uint32(ky))
}

func (g *Grid) ensure(id int) *item {
	for id >= len(g.items) {
		g.items = append(g.items, item{})
	}
	return &g.items[id]
}

// Insert adds id at pos. Inserting an id that is already present is an
// indexing bug and panics; use Move instead.
func (g *Grid) Insert(id int, pos geometry.Vec2) {
	if id < 0 {
		panic(fmt.Sprintf("spatial: negative id %d", id))
	}
	it := g.ensure(id)
	if it.present {
		panic(fmt.Sprintf("spatial: id %d already present", id))
	}
	k := g.key(pos)
	*it = item{pos: pos, key: k, present: true}
	g.cells[k] = append(g.cells[k], int32(id))
	g.count++
}

// Move updates the position of id. When the new position maps to the same
// cell only the stored position changes — the common case for mobility
// ticks, where a vehicle advances a few meters inside a 550 m cell. Moving
// an absent id panics.
func (g *Grid) Move(id int, pos geometry.Vec2) {
	if id < 0 || id >= len(g.items) || !g.items[id].present {
		panic(fmt.Sprintf("spatial: move of absent id %d", id))
	}
	it := &g.items[id]
	k := g.key(pos)
	if k == it.key {
		it.pos = pos
		return
	}
	g.removeFromCell(it.key, int32(id))
	it.pos = pos
	it.key = k
	g.cells[k] = append(g.cells[k], int32(id))
}

// Remove deletes id from the index. Removing an absent id panics.
func (g *Grid) Remove(id int) {
	if id < 0 || id >= len(g.items) || !g.items[id].present {
		panic(fmt.Sprintf("spatial: remove of absent id %d", id))
	}
	it := &g.items[id]
	g.removeFromCell(it.key, int32(id))
	*it = item{}
	g.count--
}

func (g *Grid) removeFromCell(key uint64, id int32) {
	ids := g.cells[key]
	for i, v := range ids {
		if v == id {
			// Preserve insertion order so query iteration stays
			// deterministic across runs that replay the same moves.
			copy(ids[i:], ids[i+1:])
			ids = ids[:len(ids)-1]
			break
		}
	}
	if len(ids) == 0 {
		delete(g.cells, key)
		return
	}
	g.cells[key] = ids
}

// Nearest reports the indexed item strictly within limit meters of pos
// that minimizes distance, breaking exact-distance ties toward the
// smallest id. With no such item it reports ok=false.
//
// The result is exact and deterministic even though cells are visited in
// map order: candidates are ranked by the strict total order (distance,
// id), and a cell is pruned only when the minimum distance from pos to
// the cell rectangle — a lower bound on the distance to any member —
// strictly exceeds the best distance seen so far, so no cell that could
// hold the winner (or a tie for it) is ever skipped. The distance of each
// surviving candidate is computed with the same Vec2.Dist call a brute
// scan over the indexed positions would make, which keeps Nearest
// bit-identical to that scan — the property the geographic-forwarding
// differential oracle asserts.
func (g *Grid) Nearest(pos geometry.Vec2, limit float64) (id int, dist float64, ok bool) {
	if !(limit > 0) || g.count == 0 {
		return -1, 0, false
	}
	best, bestID := limit, -1
	for key, ids := range g.cells { // order-free: (distance, id) is a strict total order, see above
		kx := int32(key >> 32)
		ky := int32(uint32(key))
		var dx, dy float64
		if lo := float64(kx) * g.cell; pos.X < lo {
			dx = lo - pos.X
		} else if hi := lo + g.cell; pos.X > hi {
			dx = pos.X - hi
		}
		if lo := float64(ky) * g.cell; pos.Y < lo {
			dy = lo - pos.Y
		} else if hi := lo + g.cell; pos.Y > hi {
			dy = pos.Y - hi
		}
		if math.Hypot(dx, dy) > best {
			continue
		}
		for _, cand := range ids {
			d := pos.Dist(g.items[cand].pos)
			if d >= limit {
				continue
			}
			if bestID < 0 || d < best || (d == best && int(cand) < bestID) {
				best, bestID = d, int(cand)
			}
		}
	}
	if bestID < 0 {
		return -1, 0, false
	}
	return bestID, best, true
}

// Near appends to buf the ids of every item whose cell intersects the disc
// of the given radius around pos, and returns the extended slice. The
// result is a superset of the items within the radius; callers apply their
// exact acceptance test to each candidate. Passing a reused buf[:0] makes
// steady-state queries allocation-free.
func (g *Grid) Near(buf []int32, pos geometry.Vec2, radius float64) []int32 {
	if radius < 0 {
		return buf
	}
	x0 := int32(math.Floor((pos.X - radius) * g.inv))
	x1 := int32(math.Floor((pos.X + radius) * g.inv))
	y0 := int32(math.Floor((pos.Y - radius) * g.inv))
	y1 := int32(math.Floor((pos.Y + radius) * g.inv))
	for kx := x0; kx <= x1; kx++ {
		for ky := y0; ky <= y1; ky++ {
			key := uint64(uint32(kx))<<32 | uint64(uint32(ky))
			buf = append(buf, g.cells[key]...)
		}
	}
	return buf
}
