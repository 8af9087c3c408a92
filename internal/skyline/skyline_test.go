package skyline

import (
	"math/rand"
	"testing"

	"manetskyline/internal/gen"
	"manetskyline/internal/tuple"
)

func tp(x, y float64, attrs ...float64) tuple.Tuple {
	return tuple.Tuple{X: x, Y: y, Attrs: attrs}
}

// hotels returns the paper's Table 2 relation R1.
func hotelsR1() []tuple.Tuple {
	return []tuple.Tuple{
		tp(1, 1, 20, 7),  // h11
		tp(1, 2, 40, 5),  // h12
		tp(1, 3, 80, 7),  // h13
		tp(1, 4, 80, 4),  // h14
		tp(1, 5, 100, 7), // h15
		tp(1, 6, 100, 3), // h16
	}
}

// hotelsR2 returns the paper's Table 3 relation R2.
func hotelsR2() []tuple.Tuple {
	return []tuple.Tuple{
		tp(2, 1, 60, 3),  // h21
		tp(2, 2, 90, 2),  // h22
		tp(2, 3, 120, 1), // h23
		tp(2, 4, 140, 2), // h24
		tp(2, 5, 100, 4), // h25
	}
}

func TestBNLPaperExamples(t *testing.T) {
	// §3.2: skyline of R1 is {h11, h12, h14, h16}; of R2 is {h21, h22, h23}.
	sky1 := BNL(hotelsR1())
	want1 := []tuple.Tuple{tp(1, 1, 20, 7), tp(1, 2, 40, 5), tp(1, 4, 80, 4), tp(1, 6, 100, 3)}
	if !SetEqual(sky1, want1) {
		t.Errorf("skyline(R1) = %v, want %v", sky1, want1)
	}
	sky2 := BNL(hotelsR2())
	want2 := []tuple.Tuple{tp(2, 1, 60, 3), tp(2, 2, 90, 2), tp(2, 3, 120, 1)}
	if !SetEqual(sky2, want2) {
		t.Errorf("skyline(R2) = %v, want %v", sky2, want2)
	}
}

func TestAlgorithmsAgreeOnPaperData(t *testing.T) {
	for _, data := range [][]tuple.Tuple{hotelsR1(), hotelsR2()} {
		bnl := BNL(data)
		for name, sky := range map[string][]tuple.Tuple{
			"SFS":    SFS(data),
			"D&C":    DivideAndConquer(data),
			"Sort2D": Sort2D(data),
		} {
			if !SetEqual(bnl, sky) {
				t.Errorf("%s disagrees with BNL: %v vs %v", name, sky, bnl)
			}
		}
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if got := BNL(nil); len(got) != 0 {
		t.Errorf("BNL(nil) = %v", got)
	}
	if got := SFS(nil); len(got) != 0 {
		t.Errorf("SFS(nil) = %v", got)
	}
	if got := DivideAndConquer(nil); len(got) != 0 {
		t.Errorf("D&C(nil) = %v", got)
	}
	one := []tuple.Tuple{tp(0, 0, 5, 5)}
	for name, f := range algorithms() {
		if got := f(one); len(got) != 1 || !got[0].Equal(one[0]) {
			t.Errorf("%s singleton = %v", name, got)
		}
	}
}

func algorithms() map[string]func([]tuple.Tuple) []tuple.Tuple {
	return map[string]func([]tuple.Tuple) []tuple.Tuple{
		"BNL": BNL,
		"SFS": SFS,
		"D&C": DivideAndConquer,
	}
}

func TestDuplicateVectorsAllSurvive(t *testing.T) {
	// Two distinct sites with identical attribute vectors: both are skyline
	// members (neither dominates the other).
	data := []tuple.Tuple{
		tp(0, 0, 1, 1),
		tp(9, 9, 1, 1),
		tp(5, 5, 2, 2),
	}
	for name, f := range algorithms() {
		sky := f(data)
		if len(sky) != 2 {
			t.Errorf("%s: got %d tuples, want both duplicate-vector sites: %v", name, len(sky), sky)
		}
	}
	if sky := Sort2D(data); len(sky) != 2 {
		t.Errorf("Sort2D: got %v", sky)
	}
}

func TestAllAlgorithmsAgreeRandom(t *testing.T) {
	for _, dist := range []gen.Distribution{gen.Independent, gen.AntiCorrelated, gen.Correlated} {
		for _, dim := range []int{1, 2, 3, 5} {
			for seed := int64(0); seed < 3; seed++ {
				c := gen.DefaultConfig(400, dim, dist, seed)
				c.Distinct = 20 // coarse grid: many ties, many dominations
				data := gen.Generate(c)
				want := BNL(data)
				if !Verify(data, want) {
					t.Fatalf("%v dim=%d seed=%d: BNL result fails Verify", dist, dim, seed)
				}
				if got := SFS(data); !SetEqual(want, got) {
					t.Errorf("%v dim=%d seed=%d: SFS %d tuples vs BNL %d", dist, dim, seed, len(got), len(want))
				}
				if got := DivideAndConquer(data); !SetEqual(want, got) {
					t.Errorf("%v dim=%d seed=%d: D&C %d tuples vs BNL %d", dist, dim, seed, len(got), len(want))
				}
				if dim == 2 {
					if got := Sort2D(data); !SetEqual(want, got) {
						t.Errorf("%v seed=%d: Sort2D %d tuples vs BNL %d", dist, seed, len(got), len(want))
					}
				}
			}
		}
	}
}

// {1e16, 1} and {1e16, 0} sum to the same float, yet the second dominates
// the first: a presort by sum alone may put the victim first, and SFS, which
// never evicts, would then keep both.
func TestSFSRoundingTieKeepsOnlyDominator(t *testing.T) {
	victim, dominator := tp(1, 1, 1e16, 1), tp(2, 2, 1e16, 0)
	for _, data := range [][]tuple.Tuple{{victim, dominator}, {dominator, victim}} {
		if got := SFS(data); len(got) != 1 || !got[0].Equal(dominator) {
			t.Errorf("SFS(%v) = %v, want only %v", data, got, dominator)
		}
	}
}

// Huge magnitudes beside small integers make float sums tie where the
// attributes differ; every algorithm must still agree with BNL.
func TestAlgorithmsAgreeOnRoundingTies(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for trial := 0; trial < 200; trial++ {
		dim := 2 + r.Intn(3)
		data := make([]tuple.Tuple, 5+r.Intn(60))
		for i := range data {
			attrs := make([]float64, dim)
			for j := range attrs {
				attrs[j] = float64(r.Intn(4))
				if r.Intn(3) == 0 {
					attrs[j] = []float64{1e16, -1e16, 1e17}[r.Intn(3)]
				}
			}
			data[i] = tuple.Tuple{X: float64(i), Y: float64(trial), Attrs: attrs}
		}
		want := BNL(data)
		if !Verify(data, want) {
			t.Fatalf("trial %d: BNL result fails Verify", trial)
		}
		for name, f := range algorithms() {
			if got := f(data); !SetEqual(want, got) {
				t.Fatalf("trial %d: %s kept %d tuples, BNL %d\ndata %v\ngot  %v\nwant %v",
					trial, name, len(got), len(want), data, got, want)
			}
		}
	}
}

// The skyline must be idempotent: skyline(skyline(S)) = skyline(S).
func TestSkylineIdempotent(t *testing.T) {
	data := gen.Generate(gen.DefaultConfig(1000, 3, gen.AntiCorrelated, 4))
	sky := BNL(data)
	if again := BNL(sky); !SetEqual(sky, again) {
		t.Errorf("skyline is not idempotent: %d vs %d", len(sky), len(again))
	}
}

// Union property: skyline(A ∪ B) ⊆ skyline(A) ∪ skyline(B). This is the
// correctness basis of the paper's distributed strategy (§3.1): local
// skylines are a superset of the final skyline's contributions.
func TestSkylineUnionProperty(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		c := gen.DefaultConfig(600, 2+r.Intn(3), gen.Distribution(r.Intn(3)), int64(trial))
		data := gen.Generate(c)
		cut := r.Intn(len(data))
		a, b := data[:cut], data[cut:]
		skyA, skyB, skyAll := BNL(a), BNL(b), BNL(data)
		for _, s := range skyAll {
			if !Contains(skyA, s) && !Contains(skyB, s) {
				t.Fatalf("global skyline tuple %v missing from both local skylines", s)
			}
		}
		// And merging local skylines re-derives the global skyline.
		merged := BNL(append(append([]tuple.Tuple{}, skyA...), skyB...))
		if !SetEqual(merged, skyAll) {
			t.Fatalf("merge of local skylines (%d) differs from global skyline (%d)", len(merged), len(skyAll))
		}
	}
}

func TestConstrained(t *testing.T) {
	data := []tuple.Tuple{
		tp(0, 0, 1, 1),   // in range, dominated by nothing in range
		tp(3, 4, 2, 2),   // exactly at distance 5
		tp(100, 0, 0, 0), // best tuple but out of range
	}
	sky := Constrained(data, tuple.Point{X: 0, Y: 0}, 5)
	if len(sky) != 1 || !sky[0].Equal(data[0]) {
		t.Errorf("Constrained = %v, want just %v", sky, data[0])
	}
	if got := Constrained(data, tuple.Point{X: 0, Y: 0}, 0.1); len(got) != 1 {
		t.Errorf("tiny radius should keep only the origin tuple: %v", got)
	}
	if got := Constrained(data, tuple.Point{X: 500, Y: 500}, 1); len(got) != 0 {
		t.Errorf("far-away query should be empty: %v", got)
	}
}

func TestConstrainedMatchesFilterThenSkyline(t *testing.T) {
	data := gen.Generate(gen.DefaultConfig(2000, 2, gen.Independent, 9))
	pos := tuple.Point{X: 500, Y: 500}
	d := 250.0
	got := Constrained(data, pos, d)
	var in []tuple.Tuple
	for _, tpl := range data {
		if pos.WithinDist(tpl.Pos(), d) {
			in = append(in, tpl)
		}
	}
	if !SetEqual(got, BNL(in)) {
		t.Errorf("Constrained disagrees with filter-then-BNL")
	}
	for _, s := range got {
		if !pos.WithinDist(s.Pos(), d) {
			t.Errorf("constrained skyline leaked out-of-range tuple %v", s)
		}
	}
}

func TestSort2DPanicsOnWrongDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Sort2D should panic on 3-D tuples")
		}
	}()
	Sort2D([]tuple.Tuple{tp(0, 0, 1, 2, 3)})
}

func TestVerifyRejectsWrongSkylines(t *testing.T) {
	data := hotelsR1()
	good := BNL(data)
	if !Verify(data, good) {
		t.Fatalf("Verify rejected a correct skyline")
	}
	if Verify(data, good[:len(good)-1]) {
		t.Errorf("Verify accepted an incomplete skyline")
	}
	withExtra := append(append([]tuple.Tuple{}, good...), tp(1, 3, 80, 7)) // dominated h13
	if Verify(data, withExtra) {
		t.Errorf("Verify accepted a skyline containing a dominated tuple")
	}
	withForeign := append(append([]tuple.Tuple{}, good...), tp(9, 9, 0, 0))
	if Verify(data, withForeign) {
		t.Errorf("Verify accepted a tuple not in the input")
	}
}

func TestSetEqual(t *testing.T) {
	a := []tuple.Tuple{tp(0, 0, 1), tp(1, 1, 2)}
	b := []tuple.Tuple{tp(1, 1, 2), tp(0, 0, 1)}
	if !SetEqual(a, b) {
		t.Errorf("order should not matter")
	}
	if SetEqual(a, b[:1]) {
		t.Errorf("missing element should fail")
	}
	if !SetEqual(nil, nil) {
		t.Errorf("empty sets are equal")
	}
}

func TestScoreAndUnionBySite(t *testing.T) {
	a := tuple.Tuple{X: 1, Y: 1, Attrs: []float64{1, 2}}
	a2 := tuple.Tuple{X: 1, Y: 1, Attrs: []float64{9, 9}} // a's site, other attributes
	b := tuple.Tuple{X: 2, Y: 2, Attrs: []float64{2, 1}}
	c := tuple.Tuple{X: 3, Y: 3, Attrs: []float64{3, 3}}
	if u := UnionBySite([]tuple.Tuple{a, b}, []tuple.Tuple{a2, c}); len(u) != 3 || !u[0].Equal(a) {
		t.Errorf("UnionBySite kept %v, want a, b, c with a's first copy", u)
	}
	for _, tc := range []struct {
		name         string
		truth, got   []tuple.Tuple
		recall, prec float64
	}{
		{"exact", []tuple.Tuple{a, b}, []tuple.Tuple{b, a}, 1, 1},
		{"half found", []tuple.Tuple{a, b}, []tuple.Tuple{a}, 0.5, 1},
		{"site match with other attributes", []tuple.Tuple{a, b}, []tuple.Tuple{a2, b}, 0.5, 0.5},
		{"extra tuple", []tuple.Tuple{a}, []tuple.Tuple{a, c}, 1, 0.5},
		{"empty truth", nil, []tuple.Tuple{c}, 1, 0},
		{"empty result", []tuple.Tuple{a}, nil, 0, 1},
	} {
		if r, p := Score(tc.truth, tc.got); r != tc.recall || p != tc.prec {
			t.Errorf("%s: Score = %g, %g; want %g, %g", tc.name, r, p, tc.recall, tc.prec)
		}
	}
}
