package storage

import (
	"sort"
	"testing"

	"manetskyline/internal/gen"
	"manetskyline/internal/skyline"
	"manetskyline/internal/tuple"
)

// allTuples materializes every tuple of a relation, in storage order.
func allTuples(r Relation) []tuple.Tuple {
	out := make([]tuple.Tuple, r.Len())
	for i := range out {
		out[i] = r.Tuple(i)
	}
	return out
}

func builders() map[string]func([]tuple.Tuple) Relation {
	return map[string]func([]tuple.Tuple) Relation{
		"flat":   func(ts []tuple.Tuple) Relation { return NewFlat(ts) },
		"hybrid": func(ts []tuple.Tuple) Relation { return NewHybrid(ts) },
		"domain": func(ts []tuple.Tuple) Relation { return NewDomain(ts) },
		"ring":   func(ts []tuple.Tuple) Relation { return NewRing(ts) },
	}
}

// Every storage model must hold exactly the same multiset of tuples it was
// built from.
func TestModelsPreserveContents(t *testing.T) {
	data := gen.Generate(gen.HandheldConfig(500, 3, gen.AntiCorrelated, 12))
	for name, build := range builders() {
		r := build(data)
		if r.Len() != len(data) {
			t.Fatalf("%s: Len = %d, want %d", name, r.Len(), len(data))
		}
		if r.Dim() != 3 {
			t.Fatalf("%s: Dim = %d, want 3", name, r.Dim())
		}
		got := allTuples(r)
		if !sameMultiset(got, data) {
			t.Errorf("%s: stored tuples differ from input", name)
		}
		for i := 0; i < r.Len(); i++ {
			tp := r.Tuple(i)
			if r.Pos(i) != tp.Pos() {
				t.Fatalf("%s: Pos(%d) mismatch", name, i)
			}
			for j := 0; j < r.Dim(); j++ {
				if r.Value(i, j) != tp.Attrs[j] {
					t.Fatalf("%s: Value(%d,%d) = %v, want %v", name, i, j, r.Value(i, j), tp.Attrs[j])
				}
			}
		}
	}
}

func sameMultiset(a, b []tuple.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(t tuple.Tuple) string { return t.String() }
	count := map[string]int{}
	for _, t := range a {
		count[key(t)]++
	}
	for _, t := range b {
		count[key(t)]--
		if count[key(t)] < 0 {
			return false
		}
	}
	return true
}

func TestModelsAgreeOnBoundsAndMBR(t *testing.T) {
	data := gen.Generate(gen.HandheldConfig(300, 4, gen.Independent, 5))
	flat := NewFlat(data)
	for name, build := range builders() {
		r := build(data)
		if r.MBR() != flat.MBR() {
			t.Errorf("%s: MBR %+v differs from flat %+v", name, r.MBR(), flat.MBR())
		}
		for j := 0; j < r.Dim(); j++ {
			if r.AttrMin(j) != flat.AttrMin(j) || r.AttrMax(j) != flat.AttrMax(j) {
				t.Errorf("%s: bounds for attr %d = [%v,%v], want [%v,%v]",
					name, j, r.AttrMin(j), r.AttrMax(j), flat.AttrMin(j), flat.AttrMax(j))
			}
		}
	}
}

func TestHybridIDOrderIsomorphism(t *testing.T) {
	data := gen.Generate(gen.HandheldConfig(400, 3, gen.AntiCorrelated, 8))
	h := NewHybrid(data)
	for j := 0; j < h.Dim(); j++ {
		// Domain sorted strictly ascending.
		dom := h.domains[j]
		if !sort.Float64sAreSorted(dom) {
			t.Fatalf("attr %d domain not sorted", j)
		}
		for k := 1; k < len(dom); k++ {
			if dom[k] == dom[k-1] {
				t.Fatalf("attr %d domain contains duplicate value %v", j, dom[k])
			}
		}
		// ID comparison ⇔ value comparison for every pair of tuples.
		for i := 0; i < h.Len(); i += 37 {
			for k := 0; k < h.Len(); k += 41 {
				idLess := h.ID(i, j) < h.ID(k, j)
				valLess := h.Value(i, j) < h.Value(k, j)
				if idLess != valLess {
					t.Fatalf("ID order disagrees with value order at (%d,%d) attr %d", i, k, j)
				}
				if (h.ID(i, j) == h.ID(k, j)) != (h.Value(i, j) == h.Value(k, j)) {
					t.Fatalf("ID equality disagrees with value equality at (%d,%d) attr %d", i, k, j)
				}
			}
		}
	}
}

func TestHybridSortProperty(t *testing.T) {
	// The SFS presort guarantee: no tuple can dominate an earlier tuple.
	data := gen.Generate(gen.HandheldConfig(600, 2, gen.AntiCorrelated, 3))
	h := NewHybrid(data)
	ts := allTuples(h)
	for i := 0; i < len(ts); i++ {
		for k := 0; k < i; k++ {
			if ts[i].Dominates(ts[k]) {
				t.Fatalf("tuple %d dominates earlier tuple %d: %v > %v", i, k, ts[i], ts[k])
			}
		}
	}
	// Primary sort key must be non-decreasing.
	for i := 1; i < h.Len(); i++ {
		if h.ID(i, h.SortAttr()) < h.ID(i-1, h.SortAttr()) {
			t.Fatalf("primary sort attribute not non-decreasing at %d", i)
		}
	}
}

func TestHybridSortAttrHasMostDistinctValues(t *testing.T) {
	// Attribute 1 has many distinct values; attribute 0 only a few.
	var data []tuple.Tuple
	for i := 0; i < 100; i++ {
		data = append(data, tuple.Tuple{
			X: float64(i), Y: 0,
			Attrs: []float64{float64(i % 3), float64(i)},
		})
	}
	h := NewHybrid(data)
	if h.SortAttr() != 1 {
		t.Errorf("SortAttr = %d, want 1", h.SortAttr())
	}
	if len(h.domains[0]) != 3 || len(h.domains[1]) != 100 {
		t.Errorf("domain sizes = %d,%d", len(h.domains[0]), len(h.domains[1]))
	}
}

func TestHybridIDWidths(t *testing.T) {
	mk := func(distinct int) *Hybrid {
		data := make([]tuple.Tuple, distinct)
		for i := range data {
			data[i] = tuple.Tuple{X: float64(i), Y: 0, Attrs: []float64{float64(i)}}
		}
		return NewHybrid(data)
	}
	if _, ok := mk(200).ids[0].(byteColumn); !ok {
		t.Errorf("200-value domain should use byte IDs")
	}
	if _, ok := mk(300).ids[0].(wordColumn); !ok {
		t.Errorf("300-value domain should use 16-bit IDs")
	}
	if _, ok := mk(70000).ids[0].(dwordColumn); !ok {
		t.Errorf("70000-value domain should use 32-bit IDs")
	}
}

func TestMemBytesOrdering(t *testing.T) {
	// With shared values (100-distinct domains), hybrid must be smaller than
	// flat; ring smaller than domain storage is not guaranteed in our
	// accounting, but every compressed model must beat flat.
	data := gen.Generate(gen.HandheldConfig(5000, 3, gen.Independent, 2))
	flat := NewFlat(data).MemBytes()
	hybrid := NewHybrid(data).MemBytes()
	domain := NewDomain(data).MemBytes()
	ring := NewRing(data).MemBytes()
	t.Logf("bytes: flat=%d hybrid=%d domain=%d ring=%d", flat, hybrid, domain, ring)
	if hybrid >= flat {
		t.Errorf("hybrid (%d) should be smaller than flat (%d)", hybrid, flat)
	}
	if domain >= flat {
		t.Errorf("domain (%d) should be smaller than flat (%d)", domain, flat)
	}
	if ring >= flat {
		t.Errorf("ring (%d) should be smaller than flat (%d)", ring, flat)
	}
	if hybrid > domain {
		t.Errorf("hybrid byte IDs (%d) should not exceed domain 4-byte pointers (%d)", hybrid, domain)
	}
}

func TestSkylineSameAcrossModels(t *testing.T) {
	data := gen.Generate(gen.HandheldConfig(400, 2, gen.AntiCorrelated, 77))
	want := skyline.BNL(data)
	for name, build := range builders() {
		r := build(data)
		got := skyline.BNL(allTuples(r))
		if !skyline.SetEqual(want, got) {
			t.Errorf("%s: skyline over stored tuples differs (%d vs %d)", name, len(got), len(want))
		}
	}
}

func TestEmptyRelations(t *testing.T) {
	for name, build := range builders() {
		r := build(nil)
		if r.Len() != 0 {
			t.Errorf("%s: empty relation Len = %d", name, r.Len())
		}
		if !r.MBR().IsEmpty() {
			t.Errorf("%s: empty relation MBR should be empty", name)
		}
		if r.MemBytes() != 0 {
			t.Errorf("%s: empty relation MemBytes = %d", name, r.MemBytes())
		}
	}
}

func TestRingValueWalk(t *testing.T) {
	// Three tuples share value 5 on attribute 0; each must still read 5.
	data := []tuple.Tuple{
		{X: 0, Y: 0, Attrs: []float64{5, 1}},
		{X: 1, Y: 0, Attrs: []float64{7, 2}},
		{X: 2, Y: 0, Attrs: []float64{5, 3}},
		{X: 3, Y: 0, Attrs: []float64{5, 4}},
	}
	r := NewRing(data)
	for i, want := range []float64{5, 7, 5, 5} {
		if got := r.Value(i, 0); got != want {
			t.Errorf("Value(%d,0) = %v, want %v", i, got, want)
		}
	}
}

func TestMixedDimensionPanics(t *testing.T) {
	bad := []tuple.Tuple{
		{Attrs: []float64{1, 2}},
		{Attrs: []float64{1}},
	}
	for name, build := range builders() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: mixed dimensionality should panic", name)
				}
			}()
			build(bad)
		}()
	}
}

func TestModelNames(t *testing.T) {
	want := map[string]bool{"flat": true, "hybrid": true, "domain": true, "ring": true}
	for name, build := range builders() {
		r := build(nil)
		if r.Model() != name || !want[r.Model()] {
			t.Errorf("Model() = %q, want %q", r.Model(), name)
		}
	}
}

func TestDecodeIDsIntoReusesBuffer(t *testing.T) {
	data := gen.Generate(gen.DefaultConfig(500, 3, gen.Independent, 5))
	h := NewHybrid(data)

	want := h.DecodeIDs()
	got := h.DecodeIDsInto(nil)
	if len(got) != len(want) {
		t.Fatalf("DecodeIDsInto(nil) len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DecodeIDsInto(nil)[%d] = %d, want %d", i, got[i], want[i])
		}
	}

	// A big-enough buffer must be reused, not reallocated.
	buf := make([]uint32, 0, len(want)+64)
	got = h.DecodeIDsInto(buf)
	if &got[0] != &buf[:1][0] {
		t.Errorf("DecodeIDsInto should reuse the provided buffer")
	}

	// Undersized buffers are replaced.
	got = h.DecodeIDsInto(make([]uint32, 1))
	if len(got) != len(want) {
		t.Errorf("undersized buffer: len %d, want %d", len(got), len(want))
	}
}

func TestDecodeIDsForIntoMatchesDecodeIDsFor(t *testing.T) {
	data := gen.Generate(gen.DefaultConfig(400, 2, gen.AntiCorrelated, 6))
	h := NewHybrid(data)
	idx := []int32{3, 17, 99, 255}
	want := h.DecodeIDsFor(idx)
	buf := make([]uint32, 0, len(idx)*h.Dim())
	got := h.DecodeIDsForInto(buf, idx)
	if len(got) != len(want) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if &got[0] != &buf[:1][0] {
		t.Errorf("DecodeIDsForInto should reuse the provided buffer")
	}
}

func TestAppendAttrsMatchesTuple(t *testing.T) {
	data := gen.Generate(gen.DefaultConfig(200, 4, gen.Independent, 7))
	h := NewHybrid(data)
	var attrs []float64
	for i := 0; i < h.Len(); i++ {
		start := len(attrs)
		attrs = h.AppendAttrs(attrs, i)
		want := h.Tuple(i).Attrs
		got := attrs[start:]
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("tuple %d attr %d = %v, want %v", i, j, got[j], want[j])
			}
		}
	}
}
