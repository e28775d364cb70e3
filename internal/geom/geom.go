// Package geom provides the 2-D geometry primitives used by the mobility
// and radio models: points, distances and rectangular simulation areas.
package geom

import (
	"fmt"
	"math"
)

// Point is a position in metres.
type Point struct {
	X, Y float64
}

// String formats the point with centimetre precision.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Dist returns the Euclidean distance between p and q in metres.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared distance, avoiding the sqrt for range checks.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Lerp linearly interpolates from p to q; t=0 yields p, t=1 yields q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Rect is an axis-aligned rectangle anchored at the origin, spanning
// [0, W] x [0, H] metres. It models the simulation terrain (the paper uses
// a fixed 200 m x 200 m area).
type Rect struct {
	W, H float64
}

// Contains reports whether p lies inside the rectangle (inclusive edges).
func (r Rect) Contains(p Point) bool {
	return p.X >= 0 && p.X <= r.W && p.Y >= 0 && p.Y <= r.H
}

// Clamp returns p moved to the nearest point inside the rectangle.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, 0), r.W),
		Y: math.Min(math.Max(p.Y, 0), r.H),
	}
}

// Area returns the rectangle's area in square metres.
func (r Rect) Area() float64 { return r.W * r.H }
