package core

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
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

// sameTuple compares place and attributes bit for bit; Equal treats NaN as
// unequal to itself.
func sameTuple(a, b tuple.Tuple) bool {
	return sameBits([]float64{a.X, a.Y}, []float64{b.X, b.Y}) && sameBits(a.Attrs, b.Attrs)
}

// foldMerge is Merge over the results in arrival order.
func foldMerge(results [][]tuple.Tuple) []tuple.Tuple {
	var out []tuple.Tuple
	for _, r := range results {
		out = Merge(out, r)
	}
	return out
}

// hasNaN reports whether a tuple in results has a NaN, which puts them
// outside the merge's domain.
func hasNaN(results [][]tuple.Tuple) bool {
	return slices.ContainsFunc(results, func(r []tuple.Tuple) bool {
		return slices.ContainsFunc(r, tuple.Tuple.HasNaN)
	})
}

// setEqual is skyline.SetEqual for NaN-free lists that hold no tuple
// twice, in n log n: sorted by attributes and then place, the two lists
// must agree tuple for tuple.
func setEqual(a, b []tuple.Tuple) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, tupleOrder)
	slices.SortFunc(b, tupleOrder)
	return slices.EqualFunc(a, b, tuple.Tuple.Equal)
}

// tupleOrder orders tuples by attributes, then place. Tuples that are Equal
// compare 0, and a run of tuples that compare 0 either all have a NaN in
// the same fields, so that no two are Equal, or none has, so that all are.
func tupleOrder(t, u tuple.Tuple) int {
	return cmp.Or(slices.Compare(t.Attrs, u.Attrs), cmp.Compare(t.X, u.X), cmp.Compare(t.Y, u.Y))
}

// acSources deals n anti-correlated tuples at dim dimensions, integer
// coded as in the paper, over a 5×5 grid of sources, as local_ac_25 does.
// Continuous ones carry a random fraction besides.
func acSources(n, dim int, seed int64, continuous bool) [][]tuple.Tuple {
	cfg := gen.DefaultConfig(n, dim, gen.AntiCorrelated, seed)
	data := gen.Generate(cfg)
	if continuous {
		r := rand.New(rand.NewSource(seed))
		for i := range data {
			for j := range data[i].Attrs {
				data[i].Attrs[j] += r.Float64()
			}
		}
	}
	return gen.GridPartition(data, 5, cfg.Space)
}

// sameMergeAll checks MergeAll against skyline.BNL over the union of its
// inputs, exact copies once, and against the left fold of Merge, both as
// sets; with two inputs, Merge itself must return what MergeAll does. No
// tuple may appear in the result twice, the inputs must come out bit for
// bit as they went in, and the result must own its slots. Inputs with a NaN
// are out of domain: there the result need only be a subset of them.
func sameMergeAll(t *testing.T, results [][]tuple.Tuple) bool {
	t.Helper()
	snapshot := make([][]tuple.Tuple, len(results))
	var all, union []tuple.Tuple
	atPlace := map[[2]float64][]tuple.Tuple{} // float keys match as == does
	for i, r := range results {
		for _, u := range r {
			snapshot[i] = append(snapshot[i], u.Clone())
			all = append(all, u)
			if k := [2]float64{u.X, u.Y}; !slices.ContainsFunc(atPlace[k], u.Equal) {
				atPlace[k] = append(atPlace[k], u)
				union = append(union, u)
			}
		}
	}
	got := MergeAll(results...)
	ok := true
	if len(results) == 2 {
		want := got
		if len(results[1]) == 0 {
			want = results[0]
		}
		if m := Merge(results[0], results[1]); !slices.EqualFunc(m, want, sameTuple) {
			t.Errorf("Merge differs from MergeAll\nMerge    %v\nMergeAll %v", m, want)
			ok = false
		}
	}
	if hasNaN(results) {
		for _, g := range got {
			if !slices.ContainsFunc(all, func(u tuple.Tuple) bool { return sameTuple(g, u) }) {
				t.Errorf("MergeAll returned %v, which is no input", g)
				ok = false
			}
		}
	} else if want := skyline.BNL(union); !setEqual(got, want) {
		t.Errorf("MergeAll differs from BNL over the union\ngot %v\nBNL %v", got, want)
		ok = false
	} else if fold := foldMerge(results); !setEqual(got, fold) {
		t.Errorf("MergeAll kept %d tuples, the fold %d\ngot  %v\nfold %v", len(got), len(fold), got, fold)
		ok = false
	}
	// Sorted, an Equal pair has an Equal pair of neighbours (see tupleOrder).
	sorted := slices.Clone(got)
	slices.SortFunc(sorted, tupleOrder)
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Equal(sorted[i-1]) {
			t.Errorf("%v appears twice in %v", sorted[i], got)
			return false
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
			if !sameTuple(r[j], snapshot[i][j]) {
				t.Errorf("input %d was written at %d: %v, was %v", i, j, r[j], snapshot[i][j])
				return false
			}
		}
	}
	return ok
}

// Merge's result is fresh: a caller may keep reading or sending either
// input after merging it, as DF does with a subtree result already on its
// way to the parent when a late child reply arrives.
func TestMergeWritesNeitherInput(t *testing.T) {
	current := make([]tuple.Tuple, 2, 4) // room to grow, as a merged result has
	current[0], current[1] = tp(0, 0, 5, 5), tp(1, 1, 2, 9)
	incoming := []tuple.Tuple{tp(2, 2, 3, 4)} // dominates (5,5)
	wasCurrent, wasIncoming := slices.Clone(current[:cap(current)]), slices.Clone(incoming)
	got := Merge(current, incoming)
	if want := []tuple.Tuple{tp(1, 1, 2, 9), tp(2, 2, 3, 4)}; !skyline.SetEqual(got, want) {
		t.Fatalf("Merge = %v, want %v", got, want)
	}
	if !slices.EqualFunc(current[:cap(current)], wasCurrent, tuple.Tuple.Equal) {
		t.Errorf("Merge wrote current: %v, was %v", current[:cap(current)], wasCurrent)
	}
	if !slices.EqualFunc(incoming, wasIncoming, tuple.Tuple.Equal) {
		t.Errorf("Merge wrote incoming: %v, was %v", incoming, wasIncoming)
	}
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
		// Equal float sums, strict dominance: an order that trusted a tie in
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
		t.Run(c.name, func(t *testing.T) { sameMergeAll(t, [][]tuple.Tuple{c.current, c.incoming}) })
	}
}

// mergeCase is a quick-generatable pair of Merge inputs over domains coarse
// enough to force every hard case at once: places repeat with equal and with
// different attributes, attribute vectors repeat across places, a few tuples
// have another dimensionality, either side may be empty, one attribute may
// sit at 1e16 where adding a small one rounds away, and some cases sprinkle
// infinities and NaN, which no sum can order.
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
	f := func(c mergeCase) bool { return sameMergeAll(t, [][]tuple.Tuple{c.current, c.incoming}) }
	cfg := &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(14))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// The sizes and value ranges assembly is built for: real-valued attributes
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
		var got []tuple.Tuple
		for _, p := range gen.GridPartition(data, 3, 1000) {
			sky := skyline.SFS(p)
			if !sameMergeAll(t, [][]tuple.Tuple{got, sky}) {
				t.Fatalf("seed %d: Merge of %d and %d tuples is wrong", seed, len(got), len(sky))
			}
			got = Merge(got, sky)
		}
	}
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
		if r.Intn(4) != 0 && !hasNaN(results[k:k+1]) {
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
	// Past radixMin: 1 200 sites over four sources, every tenth also in a
	// second one, integer attributes in {0..3} summing to at least 4, so
	// that hundreds of tied sums survive and the rest are dominated.
	r := rand.New(rand.NewSource(29))
	wide := make([][]tuple.Tuple, 4)
	for i := 0; i < 1200; {
		attrs := []float64{float64(r.Intn(4)), float64(r.Intn(4)), float64(r.Intn(4))}
		if attrs[0]+attrs[1]+attrs[2] < 4 {
			continue
		}
		u := tuple.Tuple{X: float64(i), Y: float64(i % 7), Attrs: attrs}
		wide[i%4] = append(wide[i%4], u)
		if i%10 == 0 {
			wide[(i+1)%4] = append(wide[(i+1)%4], u)
		}
		i++
	}
	// Scale 0 packs the first field to zero: the index is one cell column.
	constFirst := acSources(10000, 3, 4, false)
	for _, r := range constFirst {
		for _, u := range r {
			u.Attrs[0] = 7
		}
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
		// A NaN sum orders nothing: one tie group, in attribute order.
		{"opposite infinities", [][]tuple.Tuple{{tp(0, 0, inf, -inf)}, {tp(1, 1, 0, 0), tp(2, 2, 1, 1), tp(3, 3, inf, 0)}}},
		{"NaN attribute", [][]tuple.Tuple{{tp(0, 0, nan, 3), tp(1, 1, 2, 2)}, {tp(3, 3, 1, 1)}}},
		{"mixed widths", [][]tuple.Tuple{{tp(0, 0, 5, 5), tp(1, 1, 4)}, {tp(2, 2, 1), tp(3, 3, 1, 1)}}},
		{"no attributes", [][]tuple.Tuple{{tp(0, 0)}, {tp(1, 1), tp(0, 0)}}},
		{"past maxFields", [][]tuple.Tuple{
			{tp(0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2)},
			{tp(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), tp(2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 2, 0)}}},
		{"past radixMin", wide},
		{"past maxFields, 4 000 tuples", acSources(4000, maxFields+1, 9, false)},
		{"constant first attribute", constFirst},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { sameMergeAll(t, c.results) })
	}
	// 10 000 tuples over 25 sources fill the merger's cells.
	for _, dim := range []int{2, 3, 5} {
		for _, continuous := range []bool{false, true} {
			t.Run(fmt.Sprintf("AC d=%d continuous=%v", dim, continuous), func(t *testing.T) {
				sameMergeAll(t, acSources(10000, dim, int64(dim), continuous))
			})
		}
	}
}

// orderDigest is a sha256 over a tuple sequence: place and attributes, bit
// for bit, in order.
func orderDigest(ts []tuple.Tuple) string {
	h := sha256.New()
	for _, t := range ts {
		for _, v := range append([]float64{t.X, t.Y}, t.Attrs...) {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// MergeAll's result order is part of what it returns. The digests pin the
// exact sequence for local_ac_25's union (seed 1, originator 0) and for 25
// anti-correlated sources at two and five dimensions; they were recorded
// from a plain scan of the whole window, which the cell index must match.
func TestMergeAllOrderDigests(t *testing.T) {
	cfg := gen.DefaultConfig(50000, 3, gen.AntiCorrelated, 1)
	parts := gen.GridPartition(gen.Generate(cfg), 5, cfg.Space)
	devs := make([]*Device, len(parts))
	for i, p := range parts {
		devs[i] = NewDevice(DeviceID(i), p, cfg.Schema(), Under, true)
	}
	cases := []struct {
		name, want string
		got        []tuple.Tuple
	}{
		{"local_ac_25", "6267741fb43da68044c793dc473bf74f50f419def4baf5b057d8a78cee939e5b", RunStatic(devs, 5, 0).Skyline},
		{"AC d=2", "4ea3bacdecd601515f1940e4924046f59e79965d77e21cb9d2c42f4f8e4fa54f", MergeAll(acSources(10000, 2, 1, false)...)},
		{"AC d=5", "93bdd6ed5551a753b584be98dde98225542853ed0e014ccbed46f0cc22e1e541", MergeAll(acSources(10000, 5, 1, false)...)},
	}
	for _, c := range cases {
		if got := orderDigest(c.got); got != c.want {
			t.Errorf("%s: MergeAll's %d tuples digest to %s, want %s", c.name, len(c.got), got, c.want)
		}
	}
}

// FuzzMergeAll deals fuzzed tuples over a palette of hard values (ties,
// 1e16, ±Inf, -0) and values spread over a range, which fall in different
// cells of the merger's index, out to sources, one source repeating
// another's tail, and checks MergeAll as TestQuickMergeAllMatchesFold does.
func FuzzMergeAll(f *testing.F) {
	// Palette indices: 0→0, 1→1, 4→1e16. {1e16,1} then {1e16,0}; and with
	// {0,1e16} beside them, the pair ties in packed word too.
	f.Add([]byte{4, 1, 4, 0}, uint8(2), uint8(1))
	f.Add([]byte{4, 1, 0, 4, 4, 0}, uint8(2), uint8(2))
	f.Add([]byte{1, 2, 3, 5, 6, 7, 0, 1}, uint8(3), uint8(3))
	// Indices 8 and up spread from 10 to 100: over 0..100 the tuples fill
	// cells across both axes, and some dominate across cells.
	f.Add([]byte{8, 13, 13, 8, 9, 9, 10, 12, 12, 10, 11, 11, 13, 13, 0, 12, 12, 0}, uint8(1), uint8(4))
	f.Add([]byte{8, 12, 10, 12, 8, 9, 10, 10, 10, 9, 13, 8, 13, 9, 8, 11, 11, 11, 0, 13, 12}, uint8(2), uint8(3))
	// {25,70} alone dominates {40,70}, from the cell beside it.
	f.Add([]byte{13, 0, 0, 13, 9, 12, 10, 12}, uint8(1), uint8(2))
	palette := []float64{0, 1, 2, 3, 1e16, math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 10, 25, 40, 55, 70, 100}
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

// Merge is the two-input case of the same pass: folding one skyline into
// another with warm scratch allocates only the fresh result, and writes
// neither input.
func TestMergeSteadyStateAllocs(t *testing.T) {
	data := gen.Generate(gen.DefaultConfig(4000, 3, gen.AntiCorrelated, 7))
	parts := gen.GridPartition(data, 2, 1000)
	pair := [][]tuple.Tuple{skyline.SFS(parts[0]), skyline.SFS(parts[1])}
	before := [][]tuple.Tuple{slices.Clone(pair[0]), slices.Clone(pair[1])}
	want := len(foldMerge(pair))
	if want == len(pair[0])+len(pair[1]) {
		t.Fatalf("nothing in the two skylines is dominated; the test would measure no work")
	}
	m := new(merger)
	allocs := testing.AllocsPerRun(50, func() {
		if got := m.mergeAll(pair); len(got) != want {
			t.Fatalf("Merge kept %d tuples, want %d", len(got), want)
		}
	})
	if allocs != 1 {
		t.Errorf("a steady-state Merge allocates %v times, want 1 (the result)", allocs)
	}
	for i := range pair {
		if !slices.EqualFunc(pair[i], before[i], tuple.Tuple.Equal) {
			t.Errorf("Merge wrote input %d", i)
		}
	}
}

// Repeated merges over the same sources run out of the recycled scratch:
// the result slice is the only allocation, on either side of radixMin — a
// static originator's union, and one reply folded into a partial result.
// The test holds the merger itself, because a sync.Pool may drop what it is
// handed (and under the race detector does so on purpose).
func TestMergeAllSteadyStateAllocs(t *testing.T) {
	data := gen.Generate(gen.DefaultConfig(4000, 3, gen.AntiCorrelated, 7))
	var parts [][]tuple.Tuple
	for _, p := range gen.GridPartition(data, 3, 1000) {
		parts = append(parts, skyline.SFS(p))
	}
	reply := [][]tuple.Tuple{parts[0][:30], data[:30]}
	for _, results := range [][][]tuple.Tuple{parts, reply} {
		keys := 0
		for _, r := range results {
			keys += len(r)
		}
		if large := len(results) == len(parts); large != (keys >= radixMin) {
			t.Fatalf("%d keys fall on the wrong side of radixMin %d", keys, radixMin)
		}
		want := len(foldMerge(results))
		if want == keys {
			t.Fatalf("nothing in %d keys is dominated; the test would measure no work", keys)
		}
		m := new(merger)
		allocs := testing.AllocsPerRun(50, func() {
			if got := m.mergeAll(results); len(got) != want {
				t.Fatalf("mergeAll kept %d of %d keys, want %d", len(got), keys, want)
			}
		})
		if allocs != 1 {
			t.Errorf("a steady-state merge of %d keys allocates %v times, want 1 (the result)", keys, allocs)
		}
	}
}
