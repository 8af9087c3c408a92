package core

import (
	"testing"

	"manetskyline/internal/skyline"
	"manetskyline/internal/tuple"
)

// fuzzTuple builds a tuple from raw fuzz bytes: the site comes from the
// index (keeping sites unique within one fuzz case) and the attributes from
// a coarse projection of the bytes, which forces ties and dominations.
func fuzzTuple(idx int, dim int, raw []byte) tuple.Tuple {
	attrs := make([]float64, dim)
	for i := range attrs {
		if len(raw) > 0 {
			attrs[i] = float64(raw[(idx*dim+i)%len(raw)] % 16)
		}
	}
	return tuple.Tuple{X: float64(idx), Y: float64(idx % 7), Attrs: attrs}
}

// FuzzDominates fuzzes the dominance relation and the merge operator with
// arbitrary attribute bytes: dominance must be a strict partial order
// (irreflexive, antisymmetric, transitive), consistent with
// DominatesOrEqual, and Merge must be idempotent over its own output and
// agree with referenceMerge, element for element, on raw and skyline inputs.
func FuzzDominates(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, uint8(2))
	f.Add([]byte{0, 0, 0, 0}, uint8(1))
	f.Add([]byte{9, 1, 1, 9, 5, 5, 3, 3}, uint8(3))
	f.Add([]byte{15, 0, 15, 0}, uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, dimRaw uint8) {
		dim := 1 + int(dimRaw%4)
		n := 3 + len(raw)%6
		ts := make([]tuple.Tuple, n)
		for i := range ts {
			ts[i] = fuzzTuple(i, dim, raw)
		}
		for _, a := range ts {
			if a.Dominates(a) {
				t.Fatalf("dominance is not irreflexive: %v", a)
			}
			for _, b := range ts {
				if a.Dominates(b) {
					if b.Dominates(a) {
						t.Fatalf("dominance is not antisymmetric: %v <-> %v", a, b)
					}
					if !a.DominatesOrEqual(b) {
						t.Fatalf("Dominates without DominatesOrEqual: %v vs %v", a, b)
					}
					for _, c := range ts {
						if b.Dominates(c) && !a.Dominates(c) {
							t.Fatalf("dominance is not transitive: %v > %v > %v", a, b, c)
						}
					}
				}
			}
		}
		// The kernel against its definition: on the raw tuples, where the
		// inputs dominate within themselves, and on a skyline with itself.
		sky := skyline.SFS(ts)
		sameMerge(t, ts[:n/2], ts[n/2:])
		sameMerge(t, sky, sky)
		// Merge idempotence: merging a skyline with itself changes nothing,
		// and the merged set is mutually non-dominated and site-unique.
		again := Merge(append([]tuple.Tuple(nil), sky...), sky)
		if !skyline.SetEqual(again, sky) {
			t.Fatalf("merge is not idempotent: %d tuples became %d", len(sky), len(again))
		}
		for i, a := range again {
			for j, b := range again {
				if i != j && (a.Dominates(b) || a.SamePlace(b)) {
					t.Fatalf("merged set contains dominated or duplicate tuple: %v vs %v", a, b)
				}
			}
		}
	})
}
