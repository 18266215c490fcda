// Package geometry provides the planar primitives CAVENET uses to place
// lanes in the simulation area: 2-D vectors and the affine lane
// transformations of §III-D of the paper.
//
// A lane is simulated in its own 1-D coordinate system; an affine transform
// A(k) maps the relative coordinate vector (X, Y, 1) of a vehicle on lane k
// to absolute plane coordinates used when exporting ns-2 traces.
package geometry

import (
	"fmt"
	"math"
)

// Vec2 is a point or displacement in the plane, in meters.
type Vec2 struct {
	X, Y float64
}

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// Dist returns the Euclidean distance between v and w.
func (v Vec2) Dist(w Vec2) float64 { return math.Hypot(v.X-w.X, v.Y-w.Y) }

// String formats the vector with centimeter precision.
func (v Vec2) String() string { return fmt.Sprintf("(%.2f, %.2f)", v.X, v.Y) }

// Affine is a 2-D affine transformation stored as the top two rows of a
// homogeneous 3×3 matrix:
//
//	| A B C |   | x |
//	| D E F | · | y |
//	| 0 0 1 |   | 1 |
type Affine struct {
	A, B, C float64
	D, E, F float64
}

// Translate returns a transform that shifts by (tx, ty).
func Translate(tx, ty float64) Affine { return Affine{A: 1, C: tx, E: 1, F: ty} }

// Apply maps point p through the transform.
func (t Affine) Apply(p Vec2) Vec2 {
	return Vec2{
		X: t.A*p.X + t.B*p.Y + t.C,
		Y: t.D*p.X + t.E*p.Y + t.F,
	}
}

// LanePlacement maps a 1-D lane coordinate (meters along the lane) to a
// plane position. It abstracts the two lane shapes CAVENET supports: the
// original straight line (affine transform, Fig. 3) and the improved
// circuit.
type LanePlacement interface {
	// Place maps the along-lane coordinate x, in meters, to absolute plane
	// coordinates.
	Place(x float64) Vec2
}

// Line places a lane as a straight segment via an affine transform applied
// to (x, 0).
type Line struct {
	Transform Affine
}

var _ LanePlacement = Line{}

// Place implements LanePlacement.
func (l Line) Place(x float64) Vec2 { return l.Transform.Apply(Vec2{X: x}) }

// Ring places a lane on a circle of the given circumference — the paper's
// "improvement": vehicles wrap around smoothly so head and tail of the lane
// stay within radio reach instead of teleporting across the area.
type Ring struct {
	Center        Vec2
	Circumference float64
	// RadialOffset displaces the circle radius without changing the
	// along-lane coordinate scale, so parallel lanes of one multi-lane
	// circuit share a circumference (and hence a CA length) while staying a
	// few meters apart in the plane.
	RadialOffset float64
}

var _ LanePlacement = Ring{}

// Radius reports the circle radius implied by the circumference, including
// the radial offset.
func (r Ring) Radius() float64 { return r.Circumference/(2*math.Pi) + r.RadialOffset }

// Place implements LanePlacement.
func (r Ring) Place(x float64) Vec2 {
	theta := 2 * math.Pi * x / r.Circumference
	rad := r.Radius()
	return Vec2{
		X: r.Center.X + rad*math.Cos(theta),
		Y: r.Center.Y + rad*math.Sin(theta),
	}
}
