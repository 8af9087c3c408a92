// Package tuple defines the fundamental data model shared by every layer of
// the system: spatially located tuples with smaller-is-better non-spatial
// attributes, dominance between tuples, Euclidean distance predicates, and
// minimum bounding rectangles.
//
// The model follows the paper's schema ⟨x, y, p_1, ..., p_n⟩: every tuple
// carries a geographic position (X, Y) that is never part of the skyline
// dominance test, plus n non-spatial attributes that are. Throughout the
// system, smaller attribute values are preferred, matching the paper's
// running example (lower price, lower = better rating).
package tuple

import (
	"fmt"
	"math"
	"strings"
)

// Tuple is one site: a geographic position plus non-spatial attributes.
// Attribute values participate in dominance; the position participates only
// in the query's spatial range predicate and in duplicate elimination.
type Tuple struct {
	// X, Y locate the site in the global spatial domain.
	X, Y float64
	// Attrs are the non-spatial attributes p_1..p_n, smaller is better.
	Attrs []float64
}

// Dim returns the number of non-spatial attributes.
func (t Tuple) Dim() int { return len(t.Attrs) }

// Pos returns the tuple's position as a Point.
func (t Tuple) Pos() Point { return Point{t.X, t.Y} }

// Clone returns a deep copy of t; the attribute slice is not shared.
func (t Tuple) Clone() Tuple {
	c := t
	c.Attrs = append([]float64(nil), t.Attrs...)
	return c
}

// SamePlace reports whether two tuples describe the same geographic site.
// Assembly does not dedupe on it: two different vectors at one place are
// two tuples, and only exact copies (Equal) are kept once (§4.3).
func (t Tuple) SamePlace(u Tuple) bool { return t.X == u.X && t.Y == u.Y }

// Equal reports whether two tuples are identical in position and attributes.
func (t Tuple) Equal(u Tuple) bool {
	if !t.SamePlace(u) || len(t.Attrs) != len(u.Attrs) {
		return false
	}
	for i := range t.Attrs {
		if t.Attrs[i] != u.Attrs[i] {
			return false
		}
	}
	return true
}

// HasNaN reports whether a coordinate or attribute of t is NaN. No order
// holds over a NaN, so neither dominance nor the skyline is defined there:
// such tuples are rejected where they enter the program.
func (t Tuple) HasNaN() bool {
	if t.X != t.X || t.Y != t.Y {
		return true
	}
	for _, v := range t.Attrs {
		if v != v {
			return true
		}
	}
	return false
}

// Dominates reports whether t dominates u: t is no worse than u on every
// attribute and strictly better on at least one. Smaller is better.
// Tuples of differing dimensionality never dominate one another.
func (t Tuple) Dominates(u Tuple) bool {
	if len(t.Attrs) != len(u.Attrs) {
		return false
	}
	better := false
	for i, v := range t.Attrs {
		switch {
		case v > u.Attrs[i]:
			return false
		case v < u.Attrs[i]:
			better = true
		}
	}
	return better
}

// DominatesOrEqual reports whether t dominates u or has exactly equal
// attribute values: weak dominance, which strict dominance implies.
func (t Tuple) DominatesOrEqual(u Tuple) bool {
	if len(t.Attrs) != len(u.Attrs) {
		return false
	}
	for i, v := range t.Attrs {
		if v > u.Attrs[i] {
			return false
		}
	}
	return true
}

// String renders the tuple for logs and test failures.
func (t Tuple) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "(%.1f,%.1f)[", t.X, t.Y)
	for i, v := range t.Attrs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%g", v)
	}
	b.WriteByte(']')
	return b.String()
}

// Point is a location in the 2-D spatial domain.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// DistSq returns the squared Euclidean distance between p and q. Range
// predicates compare squared distances to avoid the square root in the
// per-tuple hot loop.
func (p Point) DistSq(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// WithinDist reports whether q lies within distance d of p (inclusive).
func (p Point) WithinDist(q Point, d float64) bool {
	return p.DistSq(q) <= d*d
}

// String renders the point.
func (p Point) String() string { return fmt.Sprintf("(%.1f,%.1f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle, used for minimum bounding rectangles of
// local relations and for grid cells of the spatial partitioning.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyRect returns a rectangle that contains nothing and absorbs points via
// Extend.
func EmptyRect() Rect {
	return Rect{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// IsEmpty reports whether the rectangle contains no points.
func (r Rect) IsEmpty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// Extend grows the rectangle to include p.
func (r Rect) Extend(p Point) Rect {
	if p.X < r.MinX {
		r.MinX = p.X
	}
	if p.Y < r.MinY {
		r.MinY = p.Y
	}
	if p.X > r.MaxX {
		r.MaxX = p.X
	}
	if p.Y > r.MaxY {
		r.MaxY = p.Y
	}
	return r
}

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// MinDist returns the minimum Euclidean distance from p to any point of r;
// zero when p is inside r. This is the mindist(pos, MBR) pre-check of the
// Figure 4 algorithm: a device whose MBR is farther than the query distance
// can skip local processing entirely.
func (r Rect) MinDist(p Point) float64 {
	if r.IsEmpty() {
		return math.Inf(1)
	}
	var dx, dy float64
	switch {
	case p.X < r.MinX:
		dx = r.MinX - p.X
	case p.X > r.MaxX:
		dx = p.X - r.MaxX
	}
	switch {
	case p.Y < r.MinY:
		dy = r.MinY - p.Y
	case p.Y > r.MaxY:
		dy = p.Y - r.MaxY
	}
	return math.Hypot(dx, dy)
}

// FarCorner returns the corner of r farthest from p, which is the point of
// r farthest from p. Each coordinate is chosen by comparing the computed
// differences, so no coordinate inside r differs from p's by more than the
// corner's does, in floating point as well as exactly.
func (r Rect) FarCorner(p Point) Point {
	c := Point{X: r.MinX, Y: r.MinY}
	if math.Abs(p.X-r.MaxX) > math.Abs(p.X-r.MinX) {
		c.X = r.MaxX
	}
	if math.Abs(p.Y-r.MaxY) > math.Abs(p.Y-r.MinY) {
		c.Y = r.MaxY
	}
	return c
}

// MaxDist returns the maximum Euclidean distance from p to any point of r,
// the dual of MinDist: a query whose distance of interest reaches it covers
// everything inside r. An empty rectangle has no farthest point; MaxDist
// then returns -Inf, the identity of max.
func (r Rect) MaxDist(p Point) float64 {
	if r.IsEmpty() {
		return math.Inf(-1)
	}
	return p.Dist(r.FarCorner(p))
}

// Center returns the rectangle's center point.
func (r Rect) Center() Point {
	return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
}

// BoundingRect returns the MBR of a set of tuples.
func BoundingRect(ts []Tuple) Rect {
	r := EmptyRect()
	for _, t := range ts {
		r = r.Extend(t.Pos())
	}
	return r
}

// Schema describes a relation's non-spatial attributes and, when known, the
// global value bounds of each attribute. The bounds drive exact VDR
// computation; devices that do not know them fall back to the estimated
// dominating regions of §3.3.
type Schema struct {
	// Names are optional attribute labels, used for display only.
	Names []string
	// Min and Max are the global lower/upper bounds per attribute.
	Min, Max []float64
}

// NewSchema builds a schema with n attributes all bounded by [lo, hi].
func NewSchema(n int, lo, hi float64) Schema {
	s := Schema{
		Names: make([]string, n),
		Min:   make([]float64, n),
		Max:   make([]float64, n),
	}
	for i := 0; i < n; i++ {
		s.Names[i] = fmt.Sprintf("p%d", i+1)
		s.Min[i] = lo
		s.Max[i] = hi
	}
	return s
}

// Dim returns the number of non-spatial attributes in the schema.
func (s Schema) Dim() int { return len(s.Max) }

// Validate checks internal consistency of the schema.
func (s Schema) Validate() error {
	if len(s.Min) != len(s.Max) {
		return fmt.Errorf("tuple: schema has %d min bounds but %d max bounds", len(s.Min), len(s.Max))
	}
	if len(s.Names) != 0 && len(s.Names) != len(s.Max) {
		return fmt.Errorf("tuple: schema has %d names but %d attributes", len(s.Names), len(s.Max))
	}
	for i := range s.Min {
		if s.Min[i] > s.Max[i] {
			return fmt.Errorf("tuple: schema attribute %d has min %g > max %g", i, s.Min[i], s.Max[i])
		}
	}
	return nil
}
