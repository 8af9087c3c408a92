// Package storage implements the dataset storage models §4.1 of the paper
// discusses for resource-constrained mobile devices:
//
//   - Flat storage (FS): every tuple stores its raw attribute values
//     sequentially; the baseline the paper compares against.
//   - Hybrid storage (HS): the paper's proposal. Spatial coordinates stay
//     inline with each tuple (they are rarely shared), while every
//     non-spatial attribute is ID-coded against a per-attribute sorted array
//     of distinct domain values. Because domains are sorted, comparing IDs
//     is equivalent to comparing values, domain bounds l_j and h_j are O(1),
//     and narrow integer IDs (one byte for ≤256 distinct values) both shrink
//     the relation and speed up dominance tests.
//   - Domain storage (Ammann et al.): like HS but domains are kept in
//     insertion order, so tuples hold value pointers that must be
//     dereferenced for every comparison. Built as the ablation §4.1 argues
//     against in prose.
//   - Ring storage (PicoDBMS): tuples sharing a value are linked in a ring
//     with a single external pointer to the value; reading an attribute
//     walks the ring. Also built for the ablation.
//
// All models expose the same Relation interface so the local skyline
// algorithms and benchmarks can run against any of them.
package storage

import (
	"fmt"

	"manetskyline/internal/tuple"
)

// Relation is the read-only view of a stored local relation R_i that local
// query processing operates on.
type Relation interface {
	// Len returns the number of tuples.
	Len() int
	// Dim returns the number of non-spatial attributes.
	Dim() int
	// Tuple materializes tuple i (positions first, then attribute values).
	Tuple(i int) tuple.Tuple
	// Pos returns the spatial position of tuple i without materializing it.
	Pos(i int) tuple.Point
	// Value returns attribute j of tuple i.
	Value(i, j int) float64
	// MBR returns the minimum bounding rectangle of all positions; it backs
	// the mindist pre-check of the Figure 4 algorithm.
	MBR() tuple.Rect
	// AttrMin returns l_j, the smallest value of attribute j present in the
	// relation.
	AttrMin(j int) float64
	// AttrMax returns h_j, the largest value of attribute j present; it is
	// the local bound used for under-estimated dominating regions (§3.3).
	AttrMax(j int) float64
	// MemBytes estimates the storage footprint in bytes, the quantity the
	// storage models compete on.
	MemBytes() int
	// Model names the storage model ("flat", "hybrid", ...).
	Model() string
}

// checkBuild validates constructor input: all tuples must share one
// dimensionality.
func checkBuild(ts []tuple.Tuple) int {
	if len(ts) == 0 {
		return 0
	}
	dim := ts[0].Dim()
	for i, t := range ts {
		if t.Dim() != dim {
			panic(fmt.Sprintf("storage: tuple %d has %d attributes, want %d", i, t.Dim(), dim))
		}
	}
	return dim
}

// bounds scans per-attribute minima and maxima.
func bounds(ts []tuple.Tuple, dim int) (lo, hi []float64) {
	lo = make([]float64, dim)
	hi = make([]float64, dim)
	for j := 0; j < dim; j++ {
		for i, t := range ts {
			v := t.Attrs[j]
			if i == 0 || v < lo[j] {
				lo[j] = v
			}
			if i == 0 || v > hi[j] {
				hi[j] = v
			}
		}
	}
	return lo, hi
}

// Flat is the flat storage model: raw values in tuple order.
type Flat struct {
	pos    []tuple.Point
	attrs  [][]float64 // [tuple][attr]
	dim    int
	mbr    tuple.Rect
	lo, hi []float64 // per-attribute l_j and h_j
}

// NewFlat builds a flat relation preserving input order.
func NewFlat(ts []tuple.Tuple) *Flat {
	dim := checkBuild(ts)
	f := &Flat{
		pos:   make([]tuple.Point, len(ts)),
		attrs: make([][]float64, len(ts)),
		dim:   dim,
		mbr:   tuple.BoundingRect(ts),
	}
	for i, t := range ts {
		f.pos[i] = t.Pos()
		f.attrs[i] = append([]float64(nil), t.Attrs...)
	}
	f.lo, f.hi = bounds(ts, dim)
	return f
}

// Len returns the number of tuples.
func (f *Flat) Len() int { return len(f.pos) }

// Dim returns the attribute count.
func (f *Flat) Dim() int { return f.dim }

// Pos returns the position of tuple i.
func (f *Flat) Pos(i int) tuple.Point { return f.pos[i] }

// Value returns attribute j of tuple i.
func (f *Flat) Value(i, j int) float64 { return f.attrs[i][j] }

// Tuple materializes tuple i.
func (f *Flat) Tuple(i int) tuple.Tuple {
	return tuple.Tuple{X: f.pos[i].X, Y: f.pos[i].Y, Attrs: append([]float64(nil), f.attrs[i]...)}
}

// Rows exposes the raw attribute rows without copying; callers must not
// mutate them. The flat-storage BNL scan reads these directly, paying raw
// float comparisons but no per-access indirection — the honest baseline.
func (f *Flat) Rows() [][]float64 { return f.attrs }

// MBR returns the bounding rectangle of all positions.
func (f *Flat) MBR() tuple.Rect { return f.mbr }

// AttrMin returns the smallest stored value of attribute j.
func (f *Flat) AttrMin(j int) float64 { return f.lo[j] }

// AttrMax returns the largest stored value of attribute j.
func (f *Flat) AttrMax(j int) float64 { return f.hi[j] }

// MemBytes counts positions and raw float64 attribute values.
func (f *Flat) MemBytes() int {
	return len(f.pos)*16 + len(f.pos)*f.dim*8
}

// Model returns "flat".
func (f *Flat) Model() string { return "flat" }
