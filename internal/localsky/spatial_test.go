package localsky

import (
	"math/rand"
	"testing"

	"manetskyline/internal/gen"
	"manetskyline/internal/skyline"
	"manetskyline/internal/storage"
	"manetskyline/internal/tuple"
)

// The spatial index must never change the answer, only the work done.
func TestSpatialIndexSameResultLessWork(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 25; trial++ {
		c := gen.DefaultConfig(4000, 2+r.Intn(2), gen.Distribution(r.Intn(3)), int64(trial))
		data := gen.Generate(c)
		rel := storage.NewHybrid(data)
		pos := tuple.Point{X: r.Float64() * 1000, Y: r.Float64() * 1000}
		d := 50 + r.Float64()*300

		plain := HybridSkylineScratch(rel, Query{Pos: pos, D: d}, nil, nil, nil)
		indexed := HybridSkylineScratch(rel, Query{Pos: pos, D: d, SpatialIndex: true}, nil, nil, nil)

		if !skyline.SetEqual(plain.Skyline, indexed.Skyline) {
			t.Fatalf("trial %d: spatial index changed the result (%d vs %d)",
				trial, len(indexed.Skyline), len(plain.Skyline))
		}
		if indexed.Unreduced != plain.Unreduced {
			t.Fatalf("trial %d: Unreduced differs", trial)
		}
		if indexed.Stats.Scanned > plain.Stats.Scanned {
			t.Errorf("trial %d: index scanned more (%d) than plain (%d)",
				trial, indexed.Stats.Scanned, plain.Stats.Scanned)
		}
	}
}

func TestSpatialIndexSelectiveRangeScansFewTuples(t *testing.T) {
	data := gen.Generate(gen.DefaultConfig(20000, 2, gen.Independent, 7))
	rel := storage.NewHybrid(data)
	q := Query{Pos: tuple.Point{X: 500, Y: 500}, D: 50, SpatialIndex: true}
	res := HybridSkylineScratch(rel, q, nil, nil, nil)
	// A 50 m disc covers ~0.8% of the space; the grid should visit well
	// under a quarter of the relation.
	if res.Stats.Scanned > rel.Len()/4 {
		t.Errorf("index scanned %d of %d tuples for a tiny range", res.Stats.Scanned, rel.Len())
	}
	want := skyline.Constrained(data, q.Pos, q.D)
	if !skyline.SetEqual(res.Skyline, want) {
		t.Errorf("indexed result wrong")
	}
}

func TestSpatialIndexUnconstrainedFallsBack(t *testing.T) {
	data := gen.Generate(gen.DefaultConfig(1000, 2, gen.Independent, 9))
	rel := storage.NewHybrid(data)
	res := HybridSkylineScratch(rel, Query{D: unconstrained().D, SpatialIndex: true}, nil, nil, nil)
	if res.Stats.Scanned != rel.Len() {
		t.Errorf("unconstrained query should scan everything")
	}
}

func TestRangeCandidatesSuperset(t *testing.T) {
	data := gen.Generate(gen.DefaultConfig(3000, 2, gen.Independent, 5))
	rel := storage.NewHybrid(data)
	pos := tuple.Point{X: 300, Y: 700}
	const d = 120
	cand, ok := rel.RangeCandidates(pos, d)
	if !ok {
		t.Skip("range not selective at this configuration")
	}
	in := map[int32]bool{}
	for _, i := range cand {
		in[i] = true
	}
	for i := 0; i < rel.Len(); i++ {
		if pos.WithinDist(rel.Pos(i), d) && !in[int32(i)] {
			t.Fatalf("in-range tuple %d missing from candidates", i)
		}
	}
	// Ascending order is what preserves the SFS lex property.
	for i := 1; i < len(cand); i++ {
		if cand[i] <= cand[i-1] {
			t.Fatalf("candidates not strictly ascending at %d", i)
		}
	}
}

func TestRangeCandidatesEmptyRelation(t *testing.T) {
	rel := storage.NewHybrid(nil)
	if _, ok := rel.RangeCandidates(tuple.Point{}, 10); ok {
		t.Errorf("empty relation should fall back to scan")
	}
}
