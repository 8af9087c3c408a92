package localsky

import (
	"testing"

	"manetskyline/internal/gen"
	"manetskyline/internal/storage"
	"manetskyline/internal/tuple"
)

// benchRel builds a deterministic hybrid relation for the hot-path
// benchmarks: the handheld-profile dataset of Figure 5.
func benchRel(n, dim int, dist gen.Distribution) (*storage.Hybrid, []tuple.Tuple) {
	data := gen.Generate(gen.HandheldConfig(n, dim, dist, 1))
	return storage.NewHybrid(data), data
}

// equalResults compares two evaluation results field by field; scratch and
// non-scratch paths must be observationally identical.
func equalResults(t *testing.T, want, got Result) {
	t.Helper()
	if got.Unreduced != want.Unreduced {
		t.Errorf("Unreduced = %d, want %d", got.Unreduced, want.Unreduced)
	}
	if got.Stats != want.Stats {
		t.Errorf("Stats = %+v, want %+v", got.Stats, want.Stats)
	}
	if len(got.Skyline) != len(want.Skyline) {
		t.Fatalf("skyline size = %d, want %d", len(got.Skyline), len(want.Skyline))
	}
	for i := range want.Skyline {
		if !want.Skyline[i].Equal(got.Skyline[i]) {
			t.Errorf("skyline[%d] = %v, want %v", i, got.Skyline[i], want.Skyline[i])
		}
	}
	if got.FilterVDR != want.FilterVDR {
		t.Errorf("FilterVDR = %v, want %v", got.FilterVDR, want.FilterVDR)
	}
	switch {
	case (want.Filter == nil) != (got.Filter == nil):
		t.Errorf("Filter presence mismatch: %v vs %v", want.Filter, got.Filter)
	case want.Filter != nil && !want.Filter.Equal(*got.Filter):
		t.Errorf("Filter = %v, want %v", *got.Filter, *want.Filter)
	}
}

func TestHybridSkylineScratchMatchesPlain(t *testing.T) {
	for _, dim := range []int{2, 4} {
		rel, _ := benchRel(3000, dim, gen.Independent)
		hi := make([]float64, dim)
		for j := range hi {
			hi[j] = rel.AttrMax(j) + 1
		}
		flt := rel.Tuple(rel.Len() / 2)
		queries := []struct {
			name string
			q    Query
			flt  *tuple.Tuple
			vdr  VDRFunc
		}{
			{"unconstrained", unconstrained(), nil, nil},
			{"constrained", Query{Pos: tuple.Point{X: 500, Y: 500}, D: 250}, nil, nil},
			{"spatial-index", Query{Pos: tuple.Point{X: 500, Y: 500}, D: 100, SpatialIndex: true}, nil, nil},
			{"with-filter", unconstrained(), &flt, nil},
			{"with-vdr", unconstrained(), nil, vdrExact(hi...)},
			{"filter-and-vdr", Query{Pos: tuple.Point{X: 500, Y: 500}, D: 400}, &flt, vdrExact(hi...)},
		}
		sc := GetScratch()
		for _, tc := range queries {
			want := HybridSkylineScratch(rel, tc.q, tc.flt, tc.vdr, nil)
			got := HybridSkylineScratch(rel, tc.q, tc.flt, tc.vdr, sc)
			t.Run(tc.name, func(t *testing.T) { equalResults(t, want, got) })
		}
		PutScratch(sc)
	}
}

func TestBNLSkylineScratchMatchesPlain(t *testing.T) {
	_, data := benchRel(2000, 2, gen.AntiCorrelated)
	rel := storage.NewFlat(data)
	flt := rel.Tuple(7)
	sc := GetScratch()
	defer PutScratch(sc)
	for _, q := range []Query{unconstrained(), {Pos: tuple.Point{X: 500, Y: 500}, D: 300}} {
		want := BNLSkylineScratch(rel, q, &flt, vdrExact(101, 101), nil)
		got := BNLSkylineScratch(rel, q, &flt, vdrExact(101, 101), sc)
		equalResults(t, want, got)
	}
}

// TestHybridSkylineScratchZeroAllocs pins the steady-state hot path at zero
// heap allocations: after one warm-up call sizes every scratch buffer, each
// further evaluation must allocate nothing.
func TestHybridSkylineScratchZeroAllocs(t *testing.T) {
	for _, dim := range []int{2, 4} {
		rel, _ := benchRel(2000, dim, gen.Independent)
		sc := GetScratch()
		q := unconstrained()
		HybridSkylineScratch(rel, q, nil, nil, sc) // warm up buffers
		allocs := testing.AllocsPerRun(20, func() {
			HybridSkylineScratch(rel, q, nil, nil, sc)
		})
		if allocs != 0 {
			t.Errorf("dim=%d: HybridSkylineScratch allocated %.1f objects/op, want 0", dim, allocs)
		}
		// The constrained sequential scan (no spatial index) must stay
		// allocation-free too.
		cq := Query{Pos: tuple.Point{X: 500, Y: 500}, D: 300}
		HybridSkylineScratch(rel, cq, nil, nil, sc)
		allocs = testing.AllocsPerRun(20, func() {
			HybridSkylineScratch(rel, cq, nil, nil, sc)
		})
		if allocs != 0 {
			t.Errorf("dim=%d: constrained scan allocated %.1f objects/op, want 0", dim, allocs)
		}
		PutScratch(sc)
	}
}

func benchmarkHybrid(b *testing.B, n, dim int, dist gen.Distribution, sc *Scratch) {
	rel, _ := benchRel(n, dim, dist)
	q := unconstrained()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HybridSkylineScratch(rel, q, nil, nil, sc)
	}
}

// BenchmarkHybridSkyline is the per-call-allocation baseline, a nil
// Scratch; compare with BenchmarkHybridSkylineScratch via -benchmem to see
// the hot-path win.
func BenchmarkHybridSkyline(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
		dim  int
		dist gen.Distribution
	}{
		{"IN-10k-2d", 10000, 2, gen.Independent},
		{"AC-10k-2d", 10000, 2, gen.AntiCorrelated},
		{"IN-10k-4d", 10000, 4, gen.Independent},
	} {
		b.Run(c.name, func(b *testing.B) { benchmarkHybrid(b, c.n, c.dim, c.dist, nil) })
	}
}

// BenchmarkHybridSkylineScratch must report 0 allocs/op.
func BenchmarkHybridSkylineScratch(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
		dim  int
		dist gen.Distribution
	}{
		{"IN-10k-2d", 10000, 2, gen.Independent},
		{"AC-10k-2d", 10000, 2, gen.AntiCorrelated},
		{"IN-10k-4d", 10000, 4, gen.Independent},
	} {
		b.Run(c.name, func(b *testing.B) {
			sc := GetScratch()
			defer PutScratch(sc)
			benchmarkHybrid(b, c.n, c.dim, c.dist, sc)
		})
	}
}

func BenchmarkBNLSkyline(b *testing.B) {
	_, data := benchRel(10000, 2, gen.Independent)
	rel := storage.NewFlat(data)
	q := unconstrained()
	sc := GetScratch()
	defer PutScratch(sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BNLSkylineScratch(rel, q, nil, nil, sc)
	}
}
