package localsky

import (
	"math"
	"math/rand"
	"testing"

	"manetskyline/internal/gen"
	"manetskyline/internal/skyline"
	"manetskyline/internal/storage"
	"manetskyline/internal/tuple"
)

func tp(x, y float64, attrs ...float64) tuple.Tuple {
	return tuple.Tuple{X: x, Y: y, Attrs: attrs}
}

// vdrExact builds the exact VDR function for bounds hi.
func vdrExact(hi ...float64) VDRFunc {
	return func(t tuple.Tuple) float64 {
		v := 1.0
		for j := range t.Attrs {
			v *= hi[j] - t.Attrs[j]
		}
		return v
	}
}

func unconstrained() Query { return Query{D: math.Inf(1)} }

func hotelsR1() []tuple.Tuple {
	return []tuple.Tuple{
		tp(1, 1, 20, 7), tp(1, 2, 40, 5), tp(1, 3, 80, 7),
		tp(1, 4, 80, 4), tp(1, 5, 100, 7), tp(1, 6, 100, 3),
	}
}

func TestHybridSkylineNoFilterPaperExample(t *testing.T) {
	rel := storage.NewHybrid(hotelsR1())
	res := HybridSkylineScratch(rel, unconstrained(), nil, vdrExact(200, 10), nil)
	want := []tuple.Tuple{tp(1, 1, 20, 7), tp(1, 2, 40, 5), tp(1, 4, 80, 4), tp(1, 6, 100, 3)}
	if !skyline.SetEqual(res.Skyline, want) {
		t.Fatalf("skyline = %v, want %v", res.Skyline, want)
	}
	if res.Unreduced != 4 {
		t.Errorf("Unreduced = %d, want 4", res.Unreduced)
	}
	// Max-VDR tuple of SK1: VDR(h11)=(200-20)(10-7)=540, h12=(160)(5)=800,
	// h14=(120)(6)=720, h16=(100)(7)=700 → h12.
	if res.Filter == nil || !res.Filter.Equal(tp(1, 2, 40, 5)) {
		t.Errorf("picked filter %v, want h12", res.Filter)
	}
	if res.FilterVDR != 800 {
		t.Errorf("FilterVDR = %v, want 800", res.FilterVDR)
	}
}

func TestHybridSkylineWithPaperFilter(t *testing.T) {
	// §3.2: filtering tuple h21=(60,3) eliminates h14 and h16 from SK_1.
	rel := storage.NewHybrid(hotelsR1())
	flt := tp(2, 1, 60, 3)
	res := HybridSkylineScratch(rel, unconstrained(), &flt, vdrExact(200, 10), nil)
	want := []tuple.Tuple{tp(1, 1, 20, 7), tp(1, 2, 40, 5)}
	if !skyline.SetEqual(res.Skyline, want) {
		t.Fatalf("reduced skyline = %v, want %v", res.Skyline, want)
	}
	if res.Unreduced != 4 {
		t.Errorf("Unreduced = %d, want 4", res.Unreduced)
	}
	// VDR(h21) = 140*7 = 980; local best is h12 with 800 → filter unchanged.
	if !res.Filter.Equal(flt) {
		t.Errorf("filter should remain h21, got %v", res.Filter)
	}
}

func TestDynamicFilterUpdatePaperExample(t *testing.T) {
	// §3.4: originator M4 picks h41; on M3, h31=(60,3) has larger VDR and
	// replaces it.
	r3 := storage.NewHybrid([]tuple.Tuple{
		tp(3, 1, 60, 3), tp(3, 2, 80, 5), tp(3, 3, 120, 4),
	})
	h41 := tp(4, 1, 80, 2)
	vdr := vdrExact(200, 10)
	// VDR(h41) = 120*8 = 960; VDR(h31) = 140*7 = 980 > 960.
	res := HybridSkylineScratch(r3, unconstrained(), &h41, vdr, nil)
	if res.Filter == nil || !res.Filter.Equal(tp(3, 1, 60, 3)) {
		t.Fatalf("dynamic update should pick h31, got %v", res.Filter)
	}
	if res.FilterVDR != 980 {
		t.Errorf("FilterVDR = %v, want 980", res.FilterVDR)
	}
}

func TestHybridAgainstGroundTruthRandom(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		dist := gen.Distribution(r.Intn(3))
		dim := 2 + r.Intn(3)
		c := gen.HandheldConfig(300, dim, dist, int64(trial))
		data := gen.Generate(c)
		rel := storage.NewHybrid(data)
		pos := tuple.Point{X: r.Float64() * 1000, Y: r.Float64() * 1000}
		d := 100 + r.Float64()*600
		res := HybridSkylineScratch(rel, Query{Pos: pos, D: d}, nil, nil, nil)
		want := skyline.Constrained(data, pos, d)
		if !skyline.SetEqual(res.Skyline, want) {
			t.Fatalf("trial %d: hybrid constrained skyline %d tuples, want %d",
				trial, len(res.Skyline), len(want))
		}
		if res.Unreduced != len(want) {
			t.Errorf("trial %d: Unreduced = %d, want %d", trial, res.Unreduced, len(want))
		}
	}
}

func TestBNLMatchesHybridAllModels(t *testing.T) {
	data := gen.Generate(gen.HandheldConfig(400, 3, gen.AntiCorrelated, 9))
	pos := tuple.Point{X: 500, Y: 500}
	q := Query{Pos: pos, D: 400}
	want := HybridSkylineScratch(storage.NewHybrid(data), q, nil, nil, nil).Skyline
	for _, rel := range []storage.Relation{
		storage.NewFlat(data), storage.NewDomain(data), storage.NewRing(data),
	} {
		got := BNLSkylineScratch(rel, q, nil, nil, nil).Skyline
		if !skyline.SetEqual(want, got) {
			t.Errorf("%s: BNL result differs from hybrid (%d vs %d)",
				rel.Model(), len(got), len(want))
		}
	}
}

// Filtering must never remove a tuple of the true final skyline: the safety
// property of §3.2/§3.3 ("neither over- nor under-estimation affects the
// correctness of query results").
func TestFilterSafety(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		c := gen.HandheldConfig(250, 2+r.Intn(2), gen.Distribution(r.Intn(3)), int64(100+trial))
		dataA := gen.Generate(c)
		cB := c
		cB.Seed += 5000
		dataB := gen.Generate(cB)

		// Device A is the originator: pick a filter from its local skyline.
		relA := storage.NewHybrid(dataA)
		vdr := vdrExact(9.9, 9.9, 9.9, 9.9, 9.9)
		resA := HybridSkylineScratch(relA, unconstrained(), nil, vdr, nil)
		flt := resA.Filter

		relB := storage.NewHybrid(dataB)
		resB := HybridSkylineScratch(relB, unconstrained(), flt, vdr, nil)

		// Assemble and compare against centralized ground truth.
		merged := append(append([]tuple.Tuple{}, resA.Skyline...), resB.Skyline...)
		got := skyline.SFS(merged)
		all := append(append([]tuple.Tuple{}, dataA...), dataB...)
		want := skyline.SFS(all)
		if !skyline.SetEqual(got, want) {
			t.Fatalf("trial %d: filtered distributed result differs from centralized skyline (%d vs %d)",
				trial, len(got), len(want))
		}
	}
}

func TestMBRSkip(t *testing.T) {
	// All data near the origin; query far away.
	data := gen.Generate(gen.HandheldConfig(100, 2, gen.Independent, 1))
	for i := range data {
		data[i].X = math.Mod(data[i].X, 50)
		data[i].Y = math.Mod(data[i].Y, 50)
	}
	rel := storage.NewHybrid(data)
	res := HybridSkylineScratch(rel, Query{Pos: tuple.Point{X: 900, Y: 900}, D: 100}, nil, nil, nil)
	if !res.Stats.SkippedMBR {
		t.Errorf("expected MBR skip")
	}
	if len(res.Skyline) != 0 || res.Stats.Scanned != 0 {
		t.Errorf("MBR skip should not scan: %+v", res.Stats)
	}
	// Flat path too.
	fres := BNLSkylineScratch(storage.NewFlat(data), Query{Pos: tuple.Point{X: 900, Y: 900}, D: 100}, nil, nil, nil)
	if !fres.Stats.SkippedMBR {
		t.Errorf("expected MBR skip on flat BNL")
	}
}

func TestFilterDominatesWholeRelationSkip(t *testing.T) {
	data := []tuple.Tuple{tp(0, 0, 5, 5), tp(1, 1, 6, 7), tp(2, 2, 5, 9)}
	rel := storage.NewHybrid(data)
	flt := tp(9, 9, 4, 5) // ≤ all local minima (5,5), strictly better on p1
	res := HybridSkylineScratch(rel, unconstrained(), &flt, nil, nil)
	if !res.Stats.SkippedFilter {
		t.Fatalf("filter dominating the whole relation should skip, stats %+v", res.Stats)
	}
	if len(res.Skyline) != 0 || res.Stats.Scanned != 0 {
		t.Errorf("skip should not scan")
	}
}

func TestFilterEqualToLocalMinimaDoesNotSkip(t *testing.T) {
	// Regression for the paper's unsound all-≤ skip: a local site with the
	// exact filter vector must survive.
	data := []tuple.Tuple{tp(0, 0, 5, 5), tp(1, 1, 6, 7)}
	rel := storage.NewHybrid(data)
	flt := tp(9, 9, 5, 5) // equal to the best local tuple, different site
	res := HybridSkylineScratch(rel, unconstrained(), &flt, nil, nil)
	if res.Stats.SkippedFilter {
		t.Fatalf("equal-vector filter must not skip the relation")
	}
	if len(res.Skyline) != 1 || !res.Skyline[0].Equal(data[0]) {
		t.Fatalf("local site tying the filter must survive, got %v", res.Skyline)
	}
}

func TestSpatialConstraintExcludesFarTuples(t *testing.T) {
	data := []tuple.Tuple{
		tp(0, 0, 9, 9),     // in range, bad attrs — only in-range tuple
		tp(500, 500, 1, 1), // excellent but out of range
	}
	rel := storage.NewHybrid(data)
	res := HybridSkylineScratch(rel, Query{Pos: tuple.Point{}, D: 10}, nil, nil, nil)
	if len(res.Skyline) != 1 || !res.Skyline[0].Equal(data[0]) {
		t.Fatalf("got %v, want only the in-range tuple", res.Skyline)
	}
}

func TestStatsCounting(t *testing.T) {
	data := gen.Generate(gen.HandheldConfig(200, 2, gen.Independent, 3))
	rel := storage.NewHybrid(data)
	res := HybridSkylineScratch(rel, unconstrained(), nil, nil, nil)
	if res.Stats.Scanned != 200 {
		t.Errorf("Scanned = %d, want 200", res.Stats.Scanned)
	}
	if res.Stats.InRange != 200 {
		t.Errorf("InRange = %d, want 200 (unconstrained)", res.Stats.InRange)
	}
	if res.Stats.DistChecks != 0 {
		t.Errorf("unconstrained query should not do distance checks")
	}
	if res.Stats.IDCmp == 0 {
		t.Errorf("hybrid scan should count ID comparisons")
	}
	if res.Stats.ValCmp != 0 {
		t.Errorf("no filter and no flat scan: ValCmp = %d", res.Stats.ValCmp)
	}

	q := Query{Pos: tuple.Point{X: 500, Y: 500}, D: 300}
	res2 := HybridSkylineScratch(rel, q, nil, nil, nil)
	if res2.Stats.DistChecks != 200 {
		t.Errorf("DistChecks = %d, want 200", res2.Stats.DistChecks)
	}
	if res2.Stats.InRange >= 200 {
		t.Errorf("some tuples should be out of range")
	}

	fres := BNLSkylineScratch(storage.NewFlat(data), unconstrained(), nil, nil, nil)
	if fres.Stats.ValCmp == 0 {
		t.Errorf("flat BNL should count value comparisons")
	}
	// Hybrid + presort should need fewer comparisons than flat BNL.
	if res.Stats.IDCmp >= fres.Stats.ValCmp {
		t.Logf("note: IDCmp %d vs flat ValCmp %d", res.Stats.IDCmp, fres.Stats.ValCmp)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Scanned: 1, InRange: 2, IDCmp: 3, ValCmp: 4, DistChecks: 5}
	b := Stats{Scanned: 10, SkippedMBR: true}
	a.Add(b)
	if a.Scanned != 11 || !a.SkippedMBR || a.SkippedFilter {
		t.Errorf("Add result %+v", a)
	}
}

func TestEmptyRelation(t *testing.T) {
	rel := storage.NewHybrid(nil)
	res := HybridSkylineScratch(rel, unconstrained(), nil, nil, nil)
	if len(res.Skyline) != 0 || res.Unreduced != 0 {
		t.Errorf("empty relation should yield empty result")
	}
	flt := tp(0, 0, 1, 1)
	res2 := HybridSkylineScratch(rel, unconstrained(), &flt, nil, nil)
	if res2.Filter == nil || !res2.Filter.Equal(flt) {
		t.Errorf("filter should pass through an empty relation")
	}
}

func TestDimensionMismatchedFilterIgnoredSafely(t *testing.T) {
	rel := storage.NewHybrid(hotelsR1())
	flt := tp(0, 0, 1) // 1-D filter against 2-D relation
	res := HybridSkylineScratch(rel, unconstrained(), &flt, nil, nil)
	// A mismatched filter can neither skip the relation nor prune tuples.
	if res.Stats.SkippedFilter {
		t.Errorf("mismatched filter must not skip")
	}
	if res.Unreduced != 4 || len(res.Skyline) != 4 {
		t.Errorf("mismatched filter must not prune: %d/%d", len(res.Skyline), res.Unreduced)
	}
}
