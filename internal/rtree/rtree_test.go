package rtree

import (
	"math"
	"math/rand"
	"testing"
)

func randPoints(r *rand.Rand, n, dim int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for j := range p {
			p[j] = r.Float64() * 1000
		}
		pts[i] = p
	}
	return pts
}

// collect walks the tree gathering every stored item.
func collect(n *Node, items map[int][]float64) {
	if n == nil {
		return
	}
	if n.Leaf() {
		for _, e := range n.Entries {
			items[e.Item] = e.Point
		}
		return
	}
	for _, c := range n.Children {
		collect(c, items)
	}
}

func TestBuildContainsAllPoints(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 31, 32, 33, 1000} {
		for _, dim := range []int{1, 2, 4} {
			pts := randPoints(r, n, dim)
			tree := Build(pts, 32)
			if tree.Len() != n {
				t.Fatalf("n=%d dim=%d: Len = %d", n, dim, tree.Len())
			}
			items := map[int][]float64{}
			collect(tree.Root(), items)
			if len(items) != n {
				t.Fatalf("n=%d dim=%d: tree holds %d items", n, dim, len(items))
			}
			for i, p := range items {
				for j := range p {
					if p[j] != pts[i][j] {
						t.Fatalf("item %d corrupted", i)
					}
				}
			}
		}
	}
}

// Every node's box must contain all its descendants.
func checkBoxes(t *testing.T, n *Node) {
	t.Helper()
	if n.Leaf() {
		for _, e := range n.Entries {
			for j, v := range e.Point {
				if v < n.Box.Min[j]-1e-12 || v > n.Box.Max[j]+1e-12 {
					t.Fatalf("leaf box does not contain point")
				}
			}
		}
		return
	}
	for _, c := range n.Children {
		for j := range c.Box.Min {
			if c.Box.Min[j] < n.Box.Min[j]-1e-12 || c.Box.Max[j] > n.Box.Max[j]+1e-12 {
				t.Fatalf("child box escapes parent box")
			}
		}
		checkBoxes(t, c)
	}
}

func TestBoundingInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	tree := Build(randPoints(r, 5000, 3), 16)
	checkBoxes(t, tree.Root())
}

func TestFanoutRespected(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	tree := Build(randPoints(r, 2000, 2), 8)
	height := 0
	var walk func(n *Node, level int)
	walk = func(n *Node, level int) {
		height = max(height, level)
		if n.Leaf() {
			if len(n.Entries) > 8 {
				t.Fatalf("leaf holds %d entries, fanout 8", len(n.Entries))
			}
			return
		}
		if len(n.Children) > 8 {
			t.Fatalf("node holds %d children, fanout 8", len(n.Children))
		}
		for _, c := range n.Children {
			walk(c, level+1)
		}
	}
	walk(tree.Root(), 1)
	if height < 3 {
		t.Errorf("2000 points at fanout 8 should need ≥3 levels, got %d", height)
	}
}

func TestMinSum(t *testing.T) {
	m := MBR{Min: []float64{2, 3}, Max: []float64{5, 7}}
	if got := m.MinSum(); got != 5 {
		t.Errorf("MinSum = %v, want 5", got)
	}
}

// MinSum must lower-bound the attribute sum of every contained point — the
// property BBS's best-first order depends on.
func TestMinSumLowerBound(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	pts := randPoints(r, 3000, 3)
	tree := Build(pts, 32)
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Leaf() {
			for _, e := range n.Entries {
				s := 0.0
				for _, v := range e.Point {
					s += v
				}
				if n.Box.MinSum() > s+1e-9 {
					t.Fatalf("MinSum %v exceeds contained point sum %v", n.Box.MinSum(), s)
				}
			}
			return
		}
		for _, c := range n.Children {
			if n.Box.MinSum() > c.Box.MinSum()+1e-9 {
				t.Fatalf("parent MinSum exceeds child MinSum")
			}
			walk(c)
		}
	}
	walk(tree.Root())
}

func TestEmptyTree(t *testing.T) {
	tree := Build(nil, 0)
	if tree.Root() != nil || tree.Len() != 0 || tree.Dim() != 0 {
		t.Errorf("empty tree malformed")
	}
}

func TestMixedDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("mixed dims should panic")
		}
	}()
	Build([][]float64{{1, 2}, {1}}, 4)
}

func TestNewMBRAbsorbs(t *testing.T) {
	m := NewMBR(2)
	if !math.IsInf(m.Min[0], 1) {
		t.Fatalf("fresh MBR should be empty")
	}
	m.Extend([]float64{3, 4})
	m.Extend([]float64{1, 9})
	if m.Min[0] != 1 || m.Min[1] != 4 || m.Max[0] != 3 || m.Max[1] != 9 {
		t.Errorf("extend wrong: %+v", m)
	}
}
