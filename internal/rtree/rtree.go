// Package rtree provides an n-dimensional, STR bulk-loaded R-tree over
// points. It is the index substrate for the Branch-and-Bound Skyline
// algorithm (Papadias et al., SIGMOD 2003) that the paper's related-work
// section cites as the state-of-the-art centralized method — implemented
// here as an additional baseline for the benchmark suite.
//
// The tree is static: it is bulk-loaded once with Sort-Tile-Recursive
// packing and then queried. That matches its role (an index the querying
// algorithm descends) and keeps the structure simple and cache-friendly.
package rtree

import (
	"fmt"
	"math"
	"sort"
)

// MBR is an n-dimensional minimum bounding rectangle.
type MBR struct {
	Min, Max []float64
}

// NewMBR returns an empty MBR of the given dimensionality that absorbs
// points via Extend.
func NewMBR(dim int) MBR {
	m := MBR{Min: make([]float64, dim), Max: make([]float64, dim)}
	for i := 0; i < dim; i++ {
		m.Min[i] = math.Inf(1)
		m.Max[i] = math.Inf(-1)
	}
	return m
}

// Extend grows the MBR to cover p.
func (m *MBR) Extend(p []float64) {
	for i, v := range p {
		if v < m.Min[i] {
			m.Min[i] = v
		}
		if v > m.Max[i] {
			m.Max[i] = v
		}
	}
}

// ExtendMBR grows the MBR to cover another MBR.
func (m *MBR) ExtendMBR(o MBR) {
	m.Extend(o.Min)
	m.Extend(o.Max)
}

// MinSum returns the L1 distance from the origin to the MBR's lower-left
// corner — the BBS priority (a lower bound on any contained point's
// attribute sum).
func (m MBR) MinSum() float64 {
	s := 0.0
	for _, v := range m.Min {
		s += v
	}
	return s
}

// Dim returns the dimensionality.
func (m MBR) Dim() int { return len(m.Min) }

// Entry is a leaf payload: a point plus the caller's identifier.
type Entry struct {
	Point []float64
	Item  int
}

// Node is an R-tree node: either internal (Children) or leaf (Entries).
type Node struct {
	Box      MBR
	Children []*Node
	Entries  []Entry
}

// Leaf reports whether the node holds entries.
func (n *Node) Leaf() bool { return len(n.Children) == 0 }

// Tree is a bulk-loaded, read-only R-tree.
type Tree struct {
	root   *Node
	dim    int
	count  int
	fanout int
}

// DefaultFanout is the node capacity used when Build is given fanout ≤ 1.
const DefaultFanout = 32

// Build bulk-loads a tree over the given points with Sort-Tile-Recursive
// packing. Items are identified by their index in the input slice. All
// points must share one dimensionality. An empty input yields an empty
// tree whose Root is nil.
func Build(points [][]float64, fanout int) *Tree {
	if fanout <= 1 {
		fanout = DefaultFanout
	}
	t := &Tree{fanout: fanout, count: len(points)}
	if len(points) == 0 {
		return t
	}
	t.dim = len(points[0])
	entries := make([]Entry, len(points))
	for i, p := range points {
		if len(p) != t.dim {
			panic(fmt.Sprintf("rtree: point %d has dim %d, want %d", i, len(p), t.dim))
		}
		entries[i] = Entry{Point: p, Item: i}
	}
	leaves := packLeaves(entries, t.dim, fanout)
	level := leaves
	for len(level) > 1 {
		level = packNodes(level, t.dim, fanout)
	}
	t.root = level[0]
	return t
}

// Root returns the root node (nil for an empty tree).
func (t *Tree) Root() *Node { return t.root }

// Len returns the number of indexed points.
func (t *Tree) Len() int { return t.count }

// Dim returns the dimensionality (0 for an empty tree).
func (t *Tree) Dim() int { return t.dim }

// packLeaves tiles entries into leaf nodes via STR: sort by the first
// dimension, cut into slabs, sort each slab by the next dimension, recurse.
func packLeaves(entries []Entry, dim, fanout int) []*Node {
	strSortEntries(entries, dim, fanout, 0)
	var leaves []*Node
	for i := 0; i < len(entries); i += fanout {
		end := i + fanout
		if end > len(entries) {
			end = len(entries)
		}
		n := &Node{Box: NewMBR(dim), Entries: append([]Entry(nil), entries[i:end]...)}
		for _, e := range n.Entries {
			n.Box.Extend(e.Point)
		}
		leaves = append(leaves, n)
	}
	return leaves
}

// strSortEntries recursively applies the STR tiling order.
func strSortEntries(entries []Entry, dim, fanout, axis int) {
	if axis >= dim || len(entries) <= fanout {
		return
	}
	sort.SliceStable(entries, func(i, j int) bool {
		return entries[i].Point[axis] < entries[j].Point[axis]
	})
	// Number of slabs along this axis: ceil((n/fanout)^(1/(dim-axis))).
	pages := int(math.Ceil(float64(len(entries)) / float64(fanout)))
	slabs := int(math.Ceil(math.Pow(float64(pages), 1/float64(dim-axis))))
	if slabs < 1 {
		slabs = 1
	}
	slabSize := int(math.Ceil(float64(len(entries)) / float64(slabs)))
	for i := 0; i < len(entries); i += slabSize {
		end := i + slabSize
		if end > len(entries) {
			end = len(entries)
		}
		strSortEntries(entries[i:end], dim, fanout, axis+1)
	}
}

// packNodes groups one level of nodes into parents, ordered by their boxes'
// centers along the first dimension (sufficient for a packed static tree).
func packNodes(level []*Node, dim, fanout int) []*Node {
	sort.SliceStable(level, func(i, j int) bool {
		return level[i].Box.Min[0]+level[i].Box.Max[0] < level[j].Box.Min[0]+level[j].Box.Max[0]
	})
	var parents []*Node
	for i := 0; i < len(level); i += fanout {
		end := i + fanout
		if end > len(level) {
			end = len(level)
		}
		p := &Node{Box: NewMBR(dim), Children: append([]*Node(nil), level[i:end]...)}
		for _, c := range p.Children {
			p.Box.ExtendMBR(c.Box)
		}
		parents = append(parents, p)
	}
	return parents
}
