package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"manetskyline/internal/gen"
	"manetskyline/internal/skyline"
	"manetskyline/internal/tuple"
)

// referenceMerge is §4.3 written out as its nested loop: the definition
// Merge's kernel is checked against, as ordered slices.
func referenceMerge(current, incoming []tuple.Tuple) []tuple.Tuple {
nextIncoming:
	for _, in := range incoming {
		// Drop the incoming tuple if it is a duplicate of, or dominated by,
		// anything already merged.
		for _, cur := range current {
			if in.SamePlace(cur) || cur.Dominates(in) {
				continue nextIncoming
			}
		}
		// It survives: evict everything it dominates, then add it.
		keep := current[:0]
		for _, cur := range current {
			if !in.Dominates(cur) {
				keep = append(keep, cur)
			}
		}
		current = append(keep, in)
	}
	return current
}

// sameMerge runs both merges over private copies of the inputs and reports
// the first difference between the two ordered outputs.
func sameMerge(t *testing.T, current, incoming []tuple.Tuple) bool {
	t.Helper()
	got := Merge(slices.Clone(current), slices.Clone(incoming))
	want := referenceMerge(slices.Clone(current), slices.Clone(incoming))
	if len(got) != len(want) {
		t.Errorf("Merge kept %d tuples, the reference %d\ncurrent  %v\nincoming %v\ngot  %v\nwant %v",
			len(got), len(want), current, incoming, got, want)
		return false
	}
	for i := range got {
		// Equal treats NaN as unequal to itself; compare the bits.
		g, w := got[i], want[i]
		if !sameBits([]float64{g.X, g.Y}, []float64{w.X, w.Y}) || !sameBits(g.Attrs, w.Attrs) {
			t.Errorf("Merge differs from the reference at %d: %v vs %v\ncurrent  %v\nincoming %v",
				i, g, w, current, incoming)
			return false
		}
	}
	return true
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestMergeMatchesReferenceOnEdgeCases(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name              string
		current, incoming []tuple.Tuple
	}{
		{"both empty", nil, nil},
		{"empty current", nil, []tuple.Tuple{tp(0, 0, 1, 2), tp(1, 1, 2, 1), tp(2, 2, 3, 3)}},
		{"empty incoming", []tuple.Tuple{tp(0, 0, 1, 2)}, nil},
		{"duplicate site, equal attributes", []tuple.Tuple{tp(5, 5, 2, 2)}, []tuple.Tuple{tp(5, 5, 2, 2)}},
		{"duplicate site, incoming better", []tuple.Tuple{tp(5, 5, 2, 2)}, []tuple.Tuple{tp(5, 5, 1, 1)}},
		{"duplicate site, incoming worse", []tuple.Tuple{tp(5, 5, 2, 2)}, []tuple.Tuple{tp(5, 5, 3, 3)}},
		{"duplicate site, incomparable", []tuple.Tuple{tp(5, 5, 2, 9)}, []tuple.Tuple{tp(5, 5, 9, 2)}},
		{"duplicate site within incoming", nil, []tuple.Tuple{tp(5, 5, 2, 2), tp(5, 5, 1, 1)}},
		{"site freed by an eviction",
			[]tuple.Tuple{tp(5, 5, 4, 4)},
			[]tuple.Tuple{tp(6, 6, 3, 3), tp(5, 5, 2, 9)}},
		{"equal attributes, distinct sites", []tuple.Tuple{tp(5, 5, 2, 2)}, []tuple.Tuple{tp(6, 6, 2, 2)}},
		{"mixed dimensionality",
			[]tuple.Tuple{tp(0, 0, 5, 5), tp(1, 1, 4)},
			[]tuple.Tuple{tp(2, 2, 1), tp(3, 3, 1, 1, 1), tp(4, 4, 9, 9), tp(1, 1, 0, 0)}},
		{"no attributes", []tuple.Tuple{tp(0, 0)}, []tuple.Tuple{tp(1, 1), tp(0, 0)}},
		// Equal float sums, strict dominance: a probe that trusted a tie in
		// the score to mean "incomparable" would keep both.
		{"rounding trap, dominator incoming", []tuple.Tuple{tp(0, 0, 1e16, 1)}, []tuple.Tuple{tp(1, 1, 1e16, 0)}},
		{"rounding trap, dominator current", []tuple.Tuple{tp(0, 0, 1e16, 0)}, []tuple.Tuple{tp(1, 1, 1e16, 1)}},
		{"infinite attributes",
			[]tuple.Tuple{tp(0, 0, inf, 0), tp(1, 1, -inf, 5)},
			[]tuple.Tuple{tp(2, 2, inf, -inf), tp(3, 3, 0, 0), tp(4, 4, -inf, 4)}},
		{"NaN attribute",
			[]tuple.Tuple{tp(0, 0, nan, 3), tp(1, 1, 2, 2)},
			[]tuple.Tuple{tp(2, 2, 1, nan), tp(3, 3, 1, 1), tp(4, 4, nan, nan)}},
		{"NaN place", []tuple.Tuple{tp(nan, 0, 1, 1)}, []tuple.Tuple{tp(nan, 0, 1, 1), tp(nan, 0, 0, 0)}},
		{"huge magnitudes", []tuple.Tuple{tp(0, 0, 1.7e308, 1.7e308)}, []tuple.Tuple{tp(1, 1, 1.7e308, -1.7e308), tp(2, 2, -1.7e308, -1.7e308)}},
		{"subnormal range", []tuple.Tuple{tp(0, 0, 0, 5e-324)}, []tuple.Tuple{tp(1, 1, 5e-324, 0), tp(2, 2, 0, 0)}},
		{"one column constant",
			[]tuple.Tuple{tp(0, 0, 7, 3), tp(1, 1, 7, 1)},
			[]tuple.Tuple{tp(2, 2, 7, 2), tp(3, 3, 7, 0)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { sameMerge(t, c.current, c.incoming) })
	}
}

// mergeCase is a quick-generatable pair of Merge inputs over domains coarse
// enough to force every hard case at once: sites repeat with equal and with
// different attributes, attribute vectors repeat across sites, a few tuples
// have another dimensionality, either side may be empty, one attribute may
// sit at 1e16 where adding a small one rounds away, and some cases sprinkle
// NaN and infinities, which no sum can order.
type mergeCase struct{ current, incoming []tuple.Tuple }

func (mergeCase) Generate(r *rand.Rand, size int) reflect.Value {
	dim := 1 + r.Intn(5)
	big := r.Intn(4) == 0
	unordered := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	wild := r.Intn(4) == 0
	side := func() []tuple.Tuple {
		n := r.Intn(size + 1)
		if r.Intn(6) == 0 {
			n = 0
		}
		ts := make([]tuple.Tuple, n)
		for i := range ts {
			d := dim
			if r.Intn(12) == 0 {
				d = 1 + r.Intn(5)
			}
			attrs := make([]float64, d)
			for j := range attrs {
				attrs[j] = float64(r.Intn(6))
				if wild && r.Intn(8) == 0 {
					attrs[j] = unordered[r.Intn(len(unordered))]
				}
			}
			if big {
				attrs[0] = 1e16
			}
			ts[i] = tuple.Tuple{X: float64(r.Intn(8)), Y: float64(r.Intn(3)), Attrs: attrs}
		}
		return ts
	}
	return reflect.ValueOf(mergeCase{side(), side()})
}

func TestQuickMergeMatchesReference(t *testing.T) {
	f := func(c mergeCase) bool { return sameMerge(t, c.current, c.incoming) }
	cfg := &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(14))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// The sizes and value ranges the kernel is built for: real-valued attributes
// spread over a range, skylines folded one after another.
func TestMergeMatchesReferenceOnGeneratedData(t *testing.T) {
	for seed := int64(0); seed < 9; seed++ {
		dim := 2 + int(seed%3)
		data := gen.Generate(gen.DefaultConfig(3000, dim, gen.Distribution(seed%3), seed))
		r := rand.New(rand.NewSource(seed))
		for i := range data {
			// Real-valued, some negative, and a few sites reported twice.
			for j := range data[i].Attrs {
				data[i].Attrs[j] += r.Float64() - 50
			}
			if i > 0 && r.Intn(40) == 0 {
				data[i].X, data[i].Y = data[i-1].X, data[i-1].Y
			}
		}
		var got, want []tuple.Tuple
		for _, p := range gen.GridPartition(data, 3, 1000) {
			sky := skyline.SFS(p)
			got = Merge(got, sky)
			want = referenceMerge(want, sky)
			if len(got) != len(want) {
				t.Fatalf("seed %d: Merge kept %d tuples, the reference %d", seed, len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("seed %d: Merge differs from the reference at %d: %v vs %v", seed, i, got[i], want[i])
				}
			}
		}
	}
}

// Repeated merges of equal-size inputs must run out of the recycled scratch:
// the only allocation left is the result outgrowing current's capacity,
// which a current with room to spare never does. The test holds the merger
// itself, because a sync.Pool may drop what it is handed (and under the
// race detector does so on purpose).
func TestMergeSteadyStateAllocs(t *testing.T) {
	data := gen.Generate(gen.DefaultConfig(4000, 3, gen.AntiCorrelated, 7))
	parts := gen.GridPartition(data, 2, 1000)
	base, incoming := skyline.SFS(parts[0]), skyline.SFS(parts[1])
	current := make([]tuple.Tuple, 0, len(base)+len(incoming))
	want := len(referenceMerge(slices.Clone(base), incoming))
	if want == len(base) {
		t.Fatalf("the incoming skyline changes nothing; the test would measure no work")
	}
	m := new(merger)
	allocs := testing.AllocsPerRun(50, func() {
		current = append(current[:0], base...)
		if got := m.merge(current, incoming); len(got) != want {
			t.Fatalf("Merge kept %d tuples, want %d", len(got), want)
		}
	})
	if allocs != 0 {
		t.Errorf("a steady-state merge allocates %v times, want 0", allocs)
	}
}

// foldMerge is MergeAll's definition: Merge over the results in arrival
// order, on private copies.
func foldMerge(results [][]tuple.Tuple) []tuple.Tuple {
	var out []tuple.Tuple
	for _, r := range results {
		out = Merge(out, slices.Clone(r))
	}
	return out
}

// needsFold reports whether MergeAll must fall back to foldMerge: a score no
// sum can order, or widths that share no packing.
func needsFold(results [][]tuple.Tuple) bool {
	width := -1
	for _, r := range results {
		for _, t := range r {
			if s := scoreOf(t); s != s || (width >= 0 && len(t.Attrs) != width) {
				return true
			}
			width = len(t.Attrs)
		}
	}
	return false
}

// sameMergeAll checks MergeAll against foldMerge and, over the union with
// each site once, skyline.BNL: as sets, or in order where MergeAll must fold.
// The inputs must come out bit for bit as they went in, the result must own
// its slots, and no site may appear in it twice.
func sameMergeAll(t *testing.T, results [][]tuple.Tuple) bool {
	t.Helper()
	snapshot := make([][]tuple.Tuple, len(results))
	for i, r := range results {
		for _, u := range r {
			snapshot[i] = append(snapshot[i], u.Clone())
		}
	}
	got, fold := MergeAll(results...), foldMerge(results)
	var union []tuple.Tuple
	for _, r := range results {
		for _, u := range r {
			if !slices.ContainsFunc(union, u.SamePlace) {
				union = append(union, u)
			}
		}
	}
	ok := true
	switch {
	case needsFold(results):
		if len(got) != len(fold) || !slices.EqualFunc(got, fold, func(a, b tuple.Tuple) bool {
			return sameBits([]float64{a.X, a.Y}, []float64{b.X, b.Y}) && sameBits(a.Attrs, b.Attrs)
		}) {
			t.Errorf("MergeAll differs from the fold in order\ngot  %v\nfold %v", got, fold)
			ok = false
		}
	case !skyline.SetEqual(got, fold):
		t.Errorf("MergeAll kept %d tuples, the fold %d\ngot  %v\nfold %v", len(got), len(fold), got, fold)
		ok = false
	case !skyline.SetEqual(got, skyline.BNL(union)):
		t.Errorf("MergeAll differs from BNL over the union\ngot %v\nBNL %v", got, skyline.BNL(union))
		ok = false
	}
	for i, a := range got {
		for _, b := range got[:i] {
			if a.SamePlace(b) {
				t.Errorf("site %v appears twice in %v", a.Pos(), got)
				return false
			}
		}
	}
	// Overwrite every slot of the result and append past its end: neither
	// may reach an input.
	for i := range got {
		got[i] = tuple.Tuple{X: -1, Y: -1}
	}
	_ = append(got, tuple.Tuple{X: -2, Y: -2})
	for i, r := range results {
		if len(r) != len(snapshot[i]) {
			t.Fatalf("input %d changed length", i)
		}
		for j := range r {
			if !sameBits([]float64{r[j].X, r[j].Y}, []float64{snapshot[i][j].X, snapshot[i][j].Y}) ||
				!sameBits(r[j].Attrs, snapshot[i][j].Attrs) {
				t.Errorf("input %d was written at %d: %v, was %v", i, j, r[j], snapshot[i][j])
				return false
			}
		}
	}
	return ok
}

// mergeAllCase is a quick-generatable MergeAll input: a pool of sites, one
// attribute vector each, dealt out to sources at random, some sites to two
// sources. Vectors are IN/CO/AC data, small integers that tie in score and
// packed word, or either with 1e16, ±Inf or a signed zero mixed in, at 1 to
// 10 dimensions; a few cases add a NaN or a tuple of another width.
type mergeAllCase struct{ results [][]tuple.Tuple }

func (mergeAllCase) Generate(r *rand.Rand, size int) reflect.Value {
	dim := 1 + r.Intn(10)
	n := r.Intn(4*size + 1)
	var sites []tuple.Tuple
	if r.Intn(3) == 0 {
		sites = gen.Generate(gen.DefaultConfig(n, dim, gen.Distribution(r.Intn(3)), r.Int63()))
	} else {
		for range n {
			attrs := make([]float64, dim)
			for j := range attrs {
				attrs[j] = float64(r.Intn(4))
			}
			sites = append(sites, tuple.Tuple{Attrs: attrs})
		}
	}
	special := []float64{1e16, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	wild := r.Intn(3) == 0
	for i := range sites {
		sites[i].X, sites[i].Y = float64(i), float64(i%5)
		if r.Intn(4) == 0 {
			// Equal vectors at distinct sites.
			sites[i].Attrs = slices.Clone(sites[r.Intn(i+1)].Attrs)
		}
		if wild && r.Intn(6) == 0 {
			sites[i].Attrs[r.Intn(dim)] = special[r.Intn(len(special))]
		}
	}
	if r.Intn(10) == 0 && len(sites) > 0 {
		sites[r.Intn(len(sites))].Attrs[r.Intn(dim)] = math.NaN()
	}
	if r.Intn(10) == 0 && len(sites) > 0 {
		sites[r.Intn(len(sites))].Attrs = make([]float64, dim+1)
	}
	results := make([][]tuple.Tuple, 1+r.Intn(6))
	for _, s := range sites {
		for copies := 1 + r.Intn(8)/7; copies > 0; copies-- { // a second source now and then
			k := r.Intn(len(results))
			results[k] = append(results[k], s)
		}
	}
	// Sources are skylines of their local relations, mostly.
	for k := range results {
		if r.Intn(4) != 0 && !needsFold(results[k:k+1]) {
			results[k] = skyline.BNL(results[k])
		}
	}
	return reflect.ValueOf(mergeAllCase{results})
}

func TestQuickMergeAllMatchesFold(t *testing.T) {
	f := func(c mergeAllCase) bool { return sameMergeAll(t, c.results) }
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(27))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	victim, dominator := tp(0, 0, 1e16, 1), tp(1, 1, 1e16, 0)
	cases := []struct {
		name    string
		results [][]tuple.Tuple
	}{
		{"no sources", nil},
		{"empty sources", [][]tuple.Tuple{nil, {}, nil}},
		{"single tuple", [][]tuple.Tuple{{tp(0, 0, 1, 2)}}},
		{"rounding trap, victim first", [][]tuple.Tuple{{victim}, {dominator}}},
		{"rounding trap, dominator first", [][]tuple.Tuple{{dominator}, {victim}}},
		// The third tuple stretches both ranges so far that the first two
		// share their packed word as well as their score.
		{"packed collision", [][]tuple.Tuple{{victim, tp(2, 2, 0, 1e16)}, {dominator}}},
		{"same tuple in two sources", [][]tuple.Tuple{{tp(5, 5, 2, 2), tp(6, 6, 1, 3)}, {tp(5, 5, 2, 2)}}},
		{"equal vectors, distinct sites", [][]tuple.Tuple{{tp(5, 5, 2, 2)}, {tp(6, 6, 2, 2)}, {tp(7, 7, 2, 2)}}},
		{"infinities", [][]tuple.Tuple{{tp(0, 0, inf, 0), tp(1, 1, -inf, 5)}, {tp(3, 3, 0, 0), tp(4, 4, -inf, 4)}}},
		{"signed zeros", [][]tuple.Tuple{{tp(0, 0, negZero, 1)}, {tp(1, 1, 0, 1), tp(negZero, 0, 0, 1)}}},
		{"opposite infinities", [][]tuple.Tuple{{tp(0, 0, inf, -inf)}, {tp(1, 1, 0, 0), tp(2, 2, 1, 1)}}},
		{"NaN attribute", [][]tuple.Tuple{{tp(0, 0, nan, 3), tp(1, 1, 2, 2)}, {tp(3, 3, 1, 1)}}},
		{"mixed widths", [][]tuple.Tuple{{tp(0, 0, 5, 5), tp(1, 1, 4)}, {tp(2, 2, 1), tp(3, 3, 1, 1)}}},
		{"no attributes", [][]tuple.Tuple{{tp(0, 0)}, {tp(1, 1), tp(0, 0)}}},
		{"past maxFields", [][]tuple.Tuple{
			{tp(0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2)},
			{tp(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), tp(2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 2, 0)}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { sameMergeAll(t, c.results) })
	}
}

// FuzzMergeAll deals fuzzed tuples over a palette of hard values (ties,
// 1e16, ±Inf, -0) out to sources, one source repeating another's tail, and
// checks MergeAll as TestQuickMergeAllMatchesFold does.
func FuzzMergeAll(f *testing.F) {
	// Palette indices: 0→0, 1→1, 4→1e16. {1e16,1} then {1e16,0}; and with
	// {0,1e16} beside them, the pair ties in packed word too.
	f.Add([]byte{4, 1, 4, 0}, uint8(2), uint8(1))
	f.Add([]byte{4, 1, 0, 4, 4, 0}, uint8(2), uint8(2))
	f.Add([]byte{1, 2, 3, 5, 6, 7, 0, 1}, uint8(3), uint8(3))
	palette := []float64{0, 1, 2, 3, 1e16, math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	f.Fuzz(func(t *testing.T, raw []byte, dimRaw, cut uint8) {
		dim := 1 + int(dimRaw%10)
		var ts []tuple.Tuple
		for i := 0; i+dim <= len(raw) && i < 64*dim; i += dim {
			attrs := make([]float64, dim)
			for j := range attrs {
				attrs[j] = palette[int(raw[i+j])%len(palette)]
			}
			ts = append(ts, tuple.Tuple{X: float64(i / dim), Y: float64(i / dim % 3), Attrs: attrs})
		}
		c := int(cut) % (len(ts) + 1)
		sameMergeAll(t, [][]tuple.Tuple{ts[:c], ts[c:], ts[c/2:]})
	})
}

// Repeated MergeAll calls over the same sources run out of the recycled
// scratch: the result slice is the only allocation.
func TestMergeAllSteadyStateAllocs(t *testing.T) {
	data := gen.Generate(gen.DefaultConfig(4000, 3, gen.AntiCorrelated, 7))
	var parts [][]tuple.Tuple
	for _, p := range gen.GridPartition(data, 3, 1000) {
		parts = append(parts, skyline.SFS(p))
	}
	want := len(foldMerge(parts))
	m := new(merger)
	allocs := testing.AllocsPerRun(50, func() {
		if got, ok := m.mergeAll(parts); !ok || len(got) != want {
			t.Fatalf("mergeAll kept %d tuples (ok %v), want %d", len(got), ok, want)
		}
	})
	if allocs != 1 {
		t.Errorf("a steady-state MergeAll allocates %v times, want 1 (the result)", allocs)
	}
}
