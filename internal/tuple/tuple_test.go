package tuple

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func tp(x, y float64, attrs ...float64) Tuple {
	return Tuple{X: x, Y: y, Attrs: attrs}
}

func TestDominatesBasic(t *testing.T) {
	cases := []struct {
		name string
		a, b Tuple
		want bool
	}{
		{"strictly better both dims", tp(0, 0, 1, 1), tp(0, 0, 2, 2), true},
		{"better one equal other", tp(0, 0, 1, 2), tp(0, 0, 2, 2), true},
		{"equal tuples never dominate", tp(0, 0, 1, 2), tp(0, 0, 1, 2), false},
		{"worse one dim", tp(0, 0, 1, 3), tp(0, 0, 2, 2), false},
		{"dominated direction", tp(0, 0, 2, 2), tp(0, 0, 1, 1), false},
		{"dimension mismatch", tp(0, 0, 1), tp(0, 0, 1, 1), false},
		{"single dim strict", tp(0, 0, 1), tp(0, 0, 2), true},
		{"single dim equal", tp(0, 0, 1), tp(0, 0, 1), false},
	}
	for _, c := range cases {
		if got := c.a.Dominates(c.b); got != c.want {
			t.Errorf("%s: %v Dominates %v = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
	}
}

func TestDominatesPaperHotelExample(t *testing.T) {
	// Table 2/3 of the paper: h21 (60,3) dominates h14 (80,4) and h16 (100,3).
	h21 := tp(0, 0, 60, 3)
	h14 := tp(0, 0, 80, 4)
	h16 := tp(0, 0, 100, 3)
	h11 := tp(0, 0, 20, 7)
	if !h21.Dominates(h14) {
		t.Errorf("h21 should dominate h14")
	}
	if !h21.Dominates(h16) {
		t.Errorf("h21 should dominate h16")
	}
	if h21.Dominates(h11) {
		t.Errorf("h21 should not dominate h11 (h11 is cheaper)")
	}
}

func TestDominatesOrEqual(t *testing.T) {
	a := tp(0, 0, 1, 2)
	b := tp(5, 5, 1, 2)
	if !a.DominatesOrEqual(b) {
		t.Errorf("equal attribute vectors should satisfy DominatesOrEqual")
	}
	if a.Dominates(b) {
		t.Errorf("equal attribute vectors must not strictly dominate")
	}
	if a.DominatesOrEqual(tp(0, 0, 1)) {
		t.Errorf("dimension mismatch must not satisfy DominatesOrEqual")
	}
}

func randTuple(r *rand.Rand, dim int) Tuple {
	attrs := make([]float64, dim)
	for i := range attrs {
		attrs[i] = math.Floor(r.Float64()*10) / 2
	}
	return Tuple{X: r.Float64() * 100, Y: r.Float64() * 100, Attrs: attrs}
}

// Dominance must be a strict partial order. Coarse value grids make
// coincidences (and therefore meaningful checks) likely.
func TestDominanceIsStrictPartialOrder(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		dim := 1 + r.Intn(4)
		a, b, c := randTuple(r, dim), randTuple(r, dim), randTuple(r, dim)
		if a.Dominates(a) {
			t.Fatalf("irreflexivity violated: %v dominates itself", a)
		}
		if a.Dominates(b) && b.Dominates(a) {
			t.Fatalf("antisymmetry violated: %v and %v dominate each other", a, b)
		}
		if a.Dominates(b) && b.Dominates(c) && !a.Dominates(c) {
			t.Fatalf("transitivity violated: %v > %v > %v but not %v > %v", a, b, c, a, c)
		}
	}
}

func TestDominatesQuickOrderIso(t *testing.T) {
	// Dominance must be invariant under adding a constant to both tuples on
	// the same attribute (translation invariance).
	f := func(av, bv [3]float64, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) {
			return true
		}
		shift = math.Mod(shift, 1000)
		a := tp(0, 0, av[0], av[1], av[2])
		b := tp(0, 0, bv[0], bv[1], bv[2])
		as := tp(0, 0, av[0]+shift, av[1]+shift, av[2]+shift)
		bs := tp(0, 0, bv[0]+shift, bv[1]+shift, bv[2]+shift)
		return a.Dominates(b) == as.Dominates(bs)
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := tp(1, 2, 3, 4)
	b := a.Clone()
	b.Attrs[0] = 99
	if a.Attrs[0] != 3 {
		t.Errorf("Clone shares attribute storage with original")
	}
	if !a.Clone().Equal(a) {
		t.Errorf("Clone should equal original")
	}
}

func TestSamePlaceAndEqual(t *testing.T) {
	a := tp(1, 2, 3)
	b := tp(1, 2, 4)
	if !a.SamePlace(b) {
		t.Errorf("same coordinates should be SamePlace")
	}
	if a.Equal(b) {
		t.Errorf("different attributes should not be Equal")
	}
	if !a.Equal(tp(1, 2, 3)) {
		t.Errorf("identical tuples should be Equal")
	}
	if a.Equal(tp(1, 2)) {
		t.Errorf("different dimensionality should not be Equal")
	}
}

func TestPointDistances(t *testing.T) {
	p, q := Point{0, 0}, Point{3, 4}
	if got := p.Dist(q); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := p.DistSq(q); got != 25 {
		t.Errorf("DistSq = %v, want 25", got)
	}
	if !p.WithinDist(q, 5) {
		t.Errorf("distance-5 point should be within inclusive range 5")
	}
	if p.WithinDist(q, 4.999) {
		t.Errorf("distance-5 point should not be within range 4.999")
	}
}

func TestWithinDistMatchesDist(t *testing.T) {
	f := func(px, py, qx, qy, d float64) bool {
		if math.IsNaN(px) || math.IsNaN(py) || math.IsNaN(qx) || math.IsNaN(qy) || math.IsNaN(d) {
			return true
		}
		px, py = math.Mod(px, 1e6), math.Mod(py, 1e6)
		qx, qy = math.Mod(qx, 1e6), math.Mod(qy, 1e6)
		d = math.Abs(math.Mod(d, 1e6))
		p, q := Point{px, py}, Point{qx, qy}
		// Allow disagreement only within floating-point slack of the boundary.
		if math.Abs(p.Dist(q)-d) < 1e-9*(1+d) {
			return true
		}
		return p.WithinDist(q, d) == (p.Dist(q) <= d)
	}
	cfg := &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRectExtendContains(t *testing.T) {
	r := EmptyRect()
	if !r.IsEmpty() {
		t.Fatalf("EmptyRect should be empty")
	}
	pts := []Point{{1, 1}, {5, 2}, {3, 8}}
	for _, p := range pts {
		r = r.Extend(p)
	}
	if r.IsEmpty() {
		t.Fatalf("rect with points should not be empty")
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Errorf("rect should contain %v", p)
		}
	}
	if r.MinX != 1 || r.MinY != 1 || r.MaxX != 5 || r.MaxY != 8 {
		t.Errorf("unexpected bounds: %+v", r)
	}
	if r.Contains(Point{0, 0}) {
		t.Errorf("rect should not contain (0,0)")
	}
}

func TestRectMinDist(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{5, 5}, 0},      // inside
		{Point{0, 0}, 0},      // corner
		{Point{15, 5}, 5},     // right of
		{Point{5, -3}, 3},     // below
		{Point{13, 14}, 5},    // diagonal 3-4-5
		{Point{-6, -8}, 10},   // diagonal 6-8-10
		{Point{10, 10.5}, .5}, // just above corner
	}
	for _, c := range cases {
		if got := r.MinDist(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("MinDist(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsInf(EmptyRect().MinDist(Point{0, 0}), 1) {
		t.Errorf("MinDist of empty rect should be +Inf")
	}
}

// MinDist must lower-bound the distance from the query point to every point
// inside the rectangle — the property that makes the MBR pre-check safe.
func TestMinDistLowerBoundsInteriorDistances(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		rect := Rect{
			MinX: r.Float64() * 100, MinY: r.Float64() * 100,
		}
		rect.MaxX = rect.MinX + r.Float64()*100
		rect.MaxY = rect.MinY + r.Float64()*100
		q := Point{r.Float64()*400 - 100, r.Float64()*400 - 100}
		inside := Point{
			rect.MinX + r.Float64()*(rect.MaxX-rect.MinX),
			rect.MinY + r.Float64()*(rect.MaxY-rect.MinY),
		}
		if md, d := rect.MinDist(q), q.Dist(inside); md > d+1e-9 {
			t.Fatalf("MinDist %v exceeds distance %v to interior point %v of %+v from %v",
				md, d, inside, rect, q)
		}
	}
}

func TestRectMaxDist(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 20}
	cases := []struct {
		p      Point
		corner Point
		want   float64
	}{
		{Point{2, 5}, Point{10, 20}, 17},     // inside: 8-15-17 to the far corner
		{Point{7, 16}, Point{0, 0}, 17.4642}, // inside, nearer the top right
		{Point{10, 20}, Point{0, 0}, 22.3607},
		{Point{0, 0}, Point{10, 20}, 22.3607}, // on a corner: the opposite one
		{Point{15, 8}, Point{0, 20}, 19.2094}, // right of
		{Point{4, -12}, Point{10, 20}, 32.5576},
		{Point{-6, -8}, Point{10, 20}, 32.2490}, // diagonal: beyond MinDist's corner
		{Point{13, 24}, Point{0, 0}, 27.2947},
	}
	for _, c := range cases {
		if got := r.FarCorner(c.p); got != c.corner {
			t.Errorf("FarCorner(%v) = %v, want %v", c.p, got, c.corner)
		}
		if got := r.MaxDist(c.p); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("MaxDist(%v) = %v, want %v", c.p, got, c.want)
		}
		if r.MaxDist(c.p) < r.MinDist(c.p) {
			t.Errorf("MaxDist(%v) is below MinDist", c.p)
		}
	}
	if d := (Rect{MinX: 3, MinY: 4, MaxX: 3, MaxY: 4}).MaxDist(Point{0, 0}); d != 5 {
		t.Errorf("MaxDist to a one-point rectangle = %v, want 5", d)
	}
	if !math.IsInf(EmptyRect().MaxDist(Point{0, 0}), -1) {
		t.Errorf("MaxDist of an empty rect should be -Inf")
	}
}

// No point of the rectangle may lie farther than the far corner, by the
// range predicate's own arithmetic: that is what lets a query that reaches
// the corner skip the per-tuple distance checks.
func TestFarCornerUpperBoundsInteriorDistances(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		rect := Rect{MinX: r.Float64() * 100, MinY: r.Float64() * 100}
		rect.MaxX = rect.MinX + r.Float64()*100
		rect.MaxY = rect.MinY + r.Float64()*100
		q := Point{r.Float64()*400 - 100, r.Float64()*400 - 100}
		far := q.DistSq(rect.FarCorner(q))
		for _, p := range []Point{
			{rect.MinX, rect.MinY}, {rect.MinX, rect.MaxY}, {rect.MaxX, rect.MinY}, {rect.MaxX, rect.MaxY},
			{rect.MinX + r.Float64()*(rect.MaxX-rect.MinX), rect.MinY + r.Float64()*(rect.MaxY-rect.MinY)},
		} {
			if d := q.DistSq(p); d > far {
				t.Fatalf("point %v of %+v is at squared distance %v from %v, beyond the far corner's %v",
					p, rect, d, q, far)
			}
		}
	}
}

func TestBoundingRect(t *testing.T) {
	ts := []Tuple{tp(1, 5, 0), tp(4, 2, 0), tp(3, 3, 0)}
	r := BoundingRect(ts)
	want := Rect{MinX: 1, MinY: 2, MaxX: 4, MaxY: 5}
	if r != want {
		t.Errorf("BoundingRect = %+v, want %+v", r, want)
	}
	if !BoundingRect(nil).IsEmpty() {
		t.Errorf("BoundingRect of no tuples should be empty")
	}
}

func TestRectCenter(t *testing.T) {
	r := Rect{MinX: 0, MinY: 2, MaxX: 10, MaxY: 4}
	if c := r.Center(); c != (Point{5, 3}) {
		t.Errorf("Center = %v, want (5,3)", c)
	}
}

func TestSchema(t *testing.T) {
	s := NewSchema(3, 0, 1000)
	if s.Dim() != 3 {
		t.Fatalf("Dim = %d, want 3", s.Dim())
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	bad := s
	bad.Min = bad.Min[:2]
	if err := bad.Validate(); err == nil {
		t.Errorf("mismatched min/max lengths should fail validation")
	}
	bad2 := NewSchema(2, 0, 1000)
	bad2.Min[1] = 2000
	if err := bad2.Validate(); err == nil {
		t.Errorf("min > max should fail validation")
	}
	bad3 := NewSchema(2, 0, 1)
	bad3.Names = []string{"only-one"}
	if err := bad3.Validate(); err == nil {
		t.Errorf("wrong name count should fail validation")
	}
}

func TestTupleString(t *testing.T) {
	s := tp(1, 2, 3, 4.5).String()
	if s != "(1.0,2.0)[3 4.5]" {
		t.Errorf("String = %q", s)
	}
}
