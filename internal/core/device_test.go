package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"manetskyline/internal/gen"
	"manetskyline/internal/localsky"
	"manetskyline/internal/storage"
	"manetskyline/internal/tuple"
)

// memoRelation draws a small relation whose sites fill a box well inside the
// plane, so that query positions exist on every side of its MBR.
func memoRelation(r *rand.Rand) ([]tuple.Tuple, tuple.Schema) {
	cfg := gen.DefaultConfig(20+r.Intn(300), 2+r.Intn(3), gen.Distribution(r.Intn(3)), r.Int63())
	data := gen.Generate(cfg)
	for i := range data {
		data[i].X = 400 + data[i].X/5
		data[i].Y = 400 + data[i].Y/5
	}
	return data, cfg.Schema()
}

// memoQueries returns one query position and distance per way a range can
// relate to the relation: no range, a range past the farthest MBR corner,
// barely past it, barely short of it, reaching into the MBR but not across,
// and short of the MBR. The first three cover the relation.
func memoQueries(r *rand.Rand, mbr tuple.Rect) map[string]localsky.Query {
	inside := tuple.Point{
		X: mbr.MinX + r.Float64()*(mbr.MaxX-mbr.MinX),
		Y: mbr.MinY + r.Float64()*(mbr.MaxY-mbr.MinY),
	}
	outside := tuple.Point{X: mbr.MaxX + 50 + r.Float64()*200, Y: mbr.MinY - r.Float64()*200}
	pos := inside
	if r.Intn(2) == 0 {
		pos = outside
	}
	near, far := mbr.MinDist(outside), mbr.MaxDist(outside)
	return map[string]localsky.Query{
		"unconstrained":   {Pos: pos, D: Unconstrained()},
		"covering":        {Pos: pos, D: mbr.MaxDist(pos) * (1 + r.Float64())},
		"barely covering": {Pos: pos, D: mbr.MaxDist(pos) * (1 + 1e-9)},
		"barely partial":  {Pos: pos, D: mbr.MaxDist(pos) * (1 - 1e-9)},
		"partial":         {Pos: outside, D: near + (far-near)*r.Float64()*0.9},
		"out of range":    {Pos: outside, D: near * (0.01 + 0.98*r.Float64())},
	}
}

// memoFilters returns one filtering tuple per outcome the pre-check and the
// filter application can have: none, one that prunes part of the relation,
// and one that dominates all of it.
func memoFilters(r *rand.Rand, rel *storage.Hybrid) map[string]*tuple.Tuple {
	mid := tuple.Tuple{X: 1, Y: 1, Attrs: make([]float64, rel.Dim())}
	all := tuple.Tuple{X: 2, Y: 2, Attrs: make([]float64, rel.Dim())}
	for j := range mid.Attrs {
		mid.Attrs[j] = rel.AttrMin(j) + (rel.AttrMax(j)-rel.AttrMin(j))*(0.2+0.5*r.Float64())
		all.Attrs[j] = rel.AttrMin(j) - 1
	}
	return map[string]*tuple.Tuple{"no filter": nil, "surviving filter": &mid, "dominating filter": &all}
}

func sameResult(a, b localsky.Result) error {
	switch {
	case !reflect.DeepEqual(a.Skyline, b.Skyline):
		return fmt.Errorf("skylines of %d and %d tuples differ", len(a.Skyline), len(b.Skyline))
	case a.Unreduced != b.Unreduced:
		return fmt.Errorf("unreduced %d vs %d", a.Unreduced, b.Unreduced)
	case !reflect.DeepEqual(a.Filter, b.Filter):
		return fmt.Errorf("filter %v vs %v", a.Filter, b.Filter)
	case a.FilterVDR != b.FilterVDR:
		return fmt.Errorf("filter VDR %v vs %v", a.FilterVDR, b.FilterVDR)
	case a.Stats != b.Stats:
		return fmt.Errorf("stats %+v vs %+v", a.Stats, b.Stats)
	}
	return nil
}

// A device that already holds its scan must answer every query exactly as a
// device that has never seen one: the same tuples in the same order, the
// same forwarded filter, and the same counters, which are what the simulator
// turns into seconds.
func TestMemoizedDeviceMatchesFreshDevice(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	covered := 0
	for trial := 0; trial < 60; trial++ {
		data, schema := memoRelation(r)
		mode, dynamic := Estimation(r.Intn(3)), r.Intn(2) == 0
		fresh := func() *Device { return NewDevice(1, data, schema, mode, dynamic) }
		warm := fresh()
		warm.Process(Query{Org: 2, Cnt: 1, D: Unconstrained()})
		if warm.scan.Load() == nil {
			t.Fatalf("trial %d: an unconstrained query left no memo to test", trial)
		}
		for qname, lq := range memoQueries(r, warm.Rel.MBR()) {
			if lq.Covers(warm.Rel.MBR()) {
				covered++
			}
			for fname, flt := range memoFilters(r, warm.Rel) {
				name := fmt.Sprintf("trial %d, %s, %s", trial, qname, fname)
				q := Query{Org: 2, Cnt: 2, Pos: lq.Pos, D: lq.D, Filter: flt}
				if flt != nil {
					q.FilterVDR = warm.VDRFunc()(*flt)
				}
				if err := sameResult(warm.Process(q), fresh().Process(q)); err != nil {
					t.Fatalf("%s: Process on a warmed device differs: %v", name, err)
				}
				if flt != nil {
					continue
				}
				wq, wres := warm.Originate(lq.Pos, lq.D)
				fq, fres := fresh().Originate(lq.Pos, lq.D)
				if err := sameResult(wres, fres); err != nil {
					t.Fatalf("%s: Originate on a warmed device differs: %v", name, err)
				}
				wq.Cnt = fq.Cnt
				if !reflect.DeepEqual(wq, fq) {
					t.Fatalf("%s: Originate on a warmed device issues %v, a fresh one %v", name, wq, fq)
				}
			}
		}
	}
	if covered != 60*3 {
		t.Errorf("%d of the queries meant to cover their relation do, want %d", covered, 60*3)
	}
}

// A query short of the farthest corner must neither populate nor use the memo.
func TestMemoOnlyServesCoveringQueries(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	data, schema := memoRelation(r)
	d := NewDevice(1, data, schema, Under, true)
	qs := memoQueries(r, d.Rel.MBR())
	for _, name := range []string{"barely partial", "partial", "out of range"} {
		d.Process(Query{Org: 2, Cnt: 1, Pos: qs[name].Pos, D: qs[name].D})
		if d.scan.Load() != nil {
			t.Fatalf("a %s query populated the memo", name)
		}
	}
	d.Process(Query{Org: 2, Cnt: 2, Pos: qs["barely covering"].Pos, D: qs["barely covering"].D})
	if d.scan.Load() == nil {
		t.Fatalf("a query barely past the farthest corner did not populate the memo")
	}
}

// Rel is an exported field and manet's redistribution assigns it; the memo
// must follow the relation, not the device.
func TestMemoInvalidatedBySwappingRel(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	data, schema := memoRelation(r)
	other, _ := memoRelation(r)
	for len(other[0].Attrs) != len(data[0].Attrs) {
		other, _ = memoRelation(r)
	}
	d := NewDevice(1, data, schema, Under, true)
	q := Query{Org: 2, Cnt: 1, D: Unconstrained()}
	d.Process(q)

	d.Rel = storage.NewHybrid(other)
	q.Cnt++
	if err := sameResult(d.Process(q), NewDevice(1, other, schema, Under, true).Process(q)); err != nil {
		t.Fatalf("after swapping Rel the device still answers from the old relation: %v", err)
	}
	d.Rel = storage.NewHybrid(nil)
	q.Cnt++
	if res := d.Process(q); len(res.Skyline) != 0 || res.Unreduced != 0 || res.Stats.Scanned != 0 {
		t.Fatalf("after handing its relation off the device still reports %d tuples of %d, %d scanned",
			len(res.Skyline), res.Unreduced, res.Stats.Scanned)
	}
}

// The live tier calls Process outside the peer lock. Eight goroutines share
// one device from its first query on, so the first covered queries race to
// publish the memo; run under -race.
func TestProcessConcurrentOnOneDevice(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	data, schema := memoRelation(r)
	d := NewDevice(1, data, schema, Under, true)
	type probe struct {
		q    Query
		want localsky.Result
	}
	var probes []probe
	for _, lq := range memoQueries(r, d.Rel.MBR()) {
		for _, flt := range memoFilters(r, d.Rel) {
			q := Query{Org: 2, Cnt: 1, Pos: lq.Pos, D: lq.D, Filter: flt}
			probes = append(probes, probe{q, NewDevice(1, data, schema, Under, true).Process(q)})
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4*len(probes); i++ {
				p := probes[(i+g)%len(probes)]
				if err := sameResult(d.Process(p.q), p.want); err != nil {
					t.Errorf("goroutine %d, %v: %v", g, p.q, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// A live peer originates concurrent queries on one device (a gateway runs
// several backend executions at once), so each must get its own counter;
// run under -race.
func TestNewQueryConcurrentCountersDistinct(t *testing.T) {
	d := NewDevice(1, nil, tuple.NewSchema(2, 0, 1), Under, true)
	const goroutines, each = 8, 16 // 128 queries: no counter wraps
	cnts := make(chan uint8, goroutines*each)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				cnts <- d.NewQuery(tuple.Point{}, 100).Cnt
			}
		}()
	}
	wg.Wait()
	close(cnts)
	seen := map[uint8]bool{}
	for c := range cnts {
		if seen[c] {
			t.Fatalf("two queries share counter %d", c)
		}
		seen[c] = true
	}
}
