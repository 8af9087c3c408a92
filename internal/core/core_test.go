package core

import (
	"math"
	"testing"

	"manetskyline/internal/gen"
	"manetskyline/internal/skyline"
	"manetskyline/internal/storage"
	"manetskyline/internal/tuple"
)

func tp(x, y float64, attrs ...float64) tuple.Tuple {
	return tuple.Tuple{X: x, Y: y, Attrs: attrs}
}

func TestSelectFilterPaperExample(t *testing.T) {
	sky := []tuple.Tuple{tp(2, 1, 60, 3), tp(2, 2, 90, 2), tp(2, 3, 120, 1)}
	hi := []float64{200, 10}
	flt, v := SelectFilter(sky, func(t tuple.Tuple) float64 { return skyline.VDR(t, hi) })
	if flt == nil || !flt.Equal(tp(2, 1, 60, 3)) {
		t.Fatalf("filter = %v, want h21", flt)
	}
	if v != 980 {
		t.Errorf("VDR = %v, want 980", v)
	}
	if f, _ := SelectFilter(nil, func(tuple.Tuple) float64 { return 0 }); f != nil {
		t.Errorf("empty skyline should yield nil filter")
	}
}

func TestVDRBoundsModes(t *testing.T) {
	schema := tuple.NewSchema(2, 0, 1000)
	data := []tuple.Tuple{tp(0, 0, 100, 200), tp(1, 1, 300, 50)}
	rel := storage.NewHybrid(data)

	ext := VDRBounds(Exact, schema, rel, 0)
	if ext[0] != 1000 || ext[1] != 1000 {
		t.Errorf("Exact bounds = %v", ext)
	}
	ove := VDRBounds(Over, schema, rel, 0)
	if ove[0] <= 1000 || ove[1] <= 1000 {
		t.Errorf("Over bounds must exceed global bounds: %v", ove)
	}
	ove3 := VDRBounds(Over, schema, rel, 3)
	if ove3[0] != 3000 {
		t.Errorf("Over factor 3 bounds = %v", ove3)
	}
	une := VDRBounds(Under, schema, rel, 0)
	if une[0] != 300 || une[1] != 200 {
		t.Errorf("Under bounds should be local maxima: %v", une)
	}
	// Empty relation falls back to the schema bounds.
	empty := VDRBounds(Under, schema, storage.NewHybrid(nil), 0)
	if empty[0] != 1000 {
		t.Errorf("Under with empty relation = %v", empty)
	}
}

func TestVDRBoundsUnknownModePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("unknown mode should panic")
		}
	}()
	VDRBounds(Estimation(9), tuple.NewSchema(1, 0, 1), nil, 0)
}

func TestEstimationString(t *testing.T) {
	if Exact.String() != "EXT" || Over.String() != "OVE" || Under.String() != "UNE" {
		t.Errorf("unexpected mode names")
	}
	if Estimation(7).String() == "" {
		t.Errorf("unknown mode should render")
	}
}

func TestQueryLog(t *testing.T) {
	l := NewQueryLog()
	k := QueryKey{Org: 3, Cnt: 1}
	if !l.FirstTime(k) {
		t.Errorf("first arrival should be new")
	}
	if l.FirstTime(k) {
		t.Errorf("second arrival must be suppressed")
	}
	// Another originator's counters are its own.
	if !l.FirstTime(QueryKey{Org: 4, Cnt: 1}) {
		t.Errorf("another originator's first query should be new")
	}
	// A later query is new, and a late copy of the earlier one stays a
	// duplicate.
	k2 := QueryKey{Org: 3, Cnt: 2}
	if !l.FirstTime(k2) {
		t.Errorf("new counter should be accepted")
	}
	if l.FirstTime(k) {
		t.Errorf("a late copy of an earlier query must be suppressed")
	}
	// Queries may arrive out of order: an earlier one first seen after a
	// later one is new, once.
	k5 := QueryKey{Org: 3, Cnt: 5}
	k4 := QueryKey{Org: 3, Cnt: 4}
	if !l.FirstTime(k5) || !l.FirstTime(k4) || l.FirstTime(k4) || l.FirstTime(k5) {
		t.Errorf("out-of-order queries should each be new exactly once")
	}
	// The byte counter wraps: cnt 1 after 256 queries is again new, and a
	// counter more than 64 queries behind the newest is stale.
	for c := 6; c <= 256; c++ {
		if !l.FirstTime(QueryKey{Org: 3, Cnt: uint8(c)}) {
			t.Fatalf("counter %d should be new", c)
		}
	}
	if !l.FirstTime(QueryKey{Org: 3, Cnt: 1}) {
		t.Errorf("wrapped counter should be accepted")
	}
	if l.FirstTime(QueryKey{Org: 3, Cnt: 190}) {
		t.Errorf("a counter 67 queries behind the newest should be stale")
	}
	l.Reset()
	if !l.FirstTime(k) {
		t.Errorf("reset should clear the log")
	}
}

func TestQueryCounterIncrementsAndWraps(t *testing.T) {
	d := NewDevice(1, nil, tuple.NewSchema(2, 0, 10), Exact, true)
	q1 := d.NewQuery(tuple.Point{}, 10)
	q2 := d.NewQuery(tuple.Point{}, 10)
	if q2.Cnt != q1.Cnt+1 {
		t.Errorf("counter should increment: %d then %d", q1.Cnt, q2.Cnt)
	}
	for i := 0; i < 256; i++ {
		d.NewQuery(tuple.Point{}, 10)
	}
	q3 := d.NewQuery(tuple.Point{}, 10)
	if q3.Cnt != q2.Cnt+1 { // uint8 arithmetic wraps mod 256
		t.Errorf("byte counter should wrap: %d vs %d", q3.Cnt, q2.Cnt)
	}
}

func TestMergeBasics(t *testing.T) {
	cur := []tuple.Tuple{tp(0, 0, 5, 5)}
	cur = Merge(cur, []tuple.Tuple{tp(1, 1, 2, 9)})
	if len(cur) != 2 {
		t.Fatalf("incomparable tuples should coexist: %v", cur)
	}
	cur = Merge(cur, []tuple.Tuple{tp(2, 2, 3, 4)})
	// (3,4) dominates (5,5) but not (2,9).
	want := []tuple.Tuple{tp(1, 1, 2, 9), tp(2, 2, 3, 4)}
	if !skyline.SetEqual(cur, want) {
		t.Fatalf("Merge = %v, want %v", cur, want)
	}
	// Dominated incoming is dropped.
	cur = Merge(cur, []tuple.Tuple{tp(3, 3, 9, 9)})
	if !skyline.SetEqual(cur, want) {
		t.Fatalf("dominated incoming should be dropped: %v", cur)
	}
}

func TestMergeDuplicateElimination(t *testing.T) {
	a := tp(5, 5, 2, 2)
	cur := Merge(nil, []tuple.Tuple{a})
	cur = Merge(cur, []tuple.Tuple{a}) // same site from another device
	if len(cur) != 1 {
		t.Fatalf("duplicate site should be eliminated: %v", cur)
	}
	// Distinct sites with equal vectors both stay.
	cur = Merge(cur, []tuple.Tuple{tp(6, 6, 2, 2)})
	if len(cur) != 2 {
		t.Fatalf("equal-vector distinct sites should coexist: %v", cur)
	}
}

func TestMergeMatchesCentralizedSkyline(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		data := gen.Generate(gen.DefaultConfig(900, 3, gen.Distribution(seed%3), seed))
		parts := gen.GridPartition(data, 3, 1000)
		var cur []tuple.Tuple
		for _, p := range parts {
			cur = Merge(cur, skyline.SFS(p))
		}
		want := skyline.SFS(data)
		if !skyline.SetEqual(cur, want) {
			t.Fatalf("seed %d: merged result (%d) differs from centralized (%d)",
				seed, len(cur), len(want))
		}
	}
}

// Merge must be order-insensitive: any permutation of the incoming result
// sets yields the same final skyline.
func TestMergeOrderInsensitive(t *testing.T) {
	data := gen.Generate(gen.DefaultConfig(600, 2, gen.AntiCorrelated, 3))
	parts := gen.GridPartition(data, 3, 1000)
	skys := make([][]tuple.Tuple, len(parts))
	for i, p := range parts {
		skys[i] = skyline.SFS(p)
	}
	forward := MergeAll(skys...)
	var reversedIn [][]tuple.Tuple
	for i := len(skys) - 1; i >= 0; i-- {
		reversedIn = append(reversedIn, skys[i])
	}
	backward := MergeAll(reversedIn...)
	if !skyline.SetEqual(forward, backward) {
		t.Fatalf("merge order changed the result: %d vs %d", len(forward), len(backward))
	}
	// Idempotence: merging the final result into itself changes nothing.
	again := Merge(forward, forward)
	if !skyline.SetEqual(again, forward) {
		t.Fatalf("merge is not idempotent")
	}
}

func TestDRRAccumulator(t *testing.T) {
	var acc DRRAccumulator
	if acc.DRR() != 0 {
		t.Errorf("empty accumulator DRR = %v", acc.DRR())
	}
	// Paper's §3.2 example: SK_1 has 4 tuples, filter removes 2, so SK'_1
	// has 2; one device, one filter shipped: DRR = (4-2-1)/4 = 0.25.
	acc.Reduced = 2
	acc.Unreduced = 4
	acc.Devices = 1
	acc.Filters = 1
	if got := acc.DRR(); got != 0.25 {
		t.Errorf("DRR = %v, want 0.25", got)
	}
	var b DRRAccumulator
	b.Add(acc)
	b.Add(acc)
	if b.Unreduced != 8 || b.Reduced != 4 || b.Devices != 2 || b.Filters != 2 {
		t.Errorf("Add result %+v", b)
	}
}

func TestDeviceOriginateAndProcessPaperScenario(t *testing.T) {
	// Tables 2-5 of §3: M4 originates; M3 relays to M1 with dynamic update.
	schema := tuple.Schema{Min: []float64{0, 0}, Max: []float64{200, 10}}
	r1 := []tuple.Tuple{
		tp(10, 10, 20, 7), tp(10, 11, 40, 5), tp(10, 12, 80, 7),
		tp(10, 13, 80, 4), tp(10, 14, 100, 7), tp(10, 15, 100, 3),
	}
	r3 := []tuple.Tuple{tp(30, 30, 60, 3), tp(30, 31, 80, 5), tp(30, 32, 120, 4)}
	r4 := []tuple.Tuple{tp(40, 40, 80, 2), tp(40, 41, 120, 1), tp(40, 42, 140, 2)}

	m1 := NewDevice(1, r1, schema, Exact, true)
	m3 := NewDevice(3, r3, schema, Exact, true)
	m4 := NewDevice(4, r4, schema, Exact, true)

	q, res4 := m4.Originate(tuple.Point{X: 40, Y: 40}, Unconstrained())
	// SK_4 = {h41, h42}; VDR(h41)=(200-80)(10-2)=960, VDR(h42)=(80)(9)=720.
	if q.Filter == nil || !q.Filter.Equal(tp(40, 40, 80, 2)) {
		t.Fatalf("originator filter = %v, want h41", q.Filter)
	}
	if len(res4.Skyline) != 2 {
		t.Fatalf("SK_4 = %v", res4.Skyline)
	}

	// M3 processes: h31 has VDR 980 > 960 and replaces the filter.
	res3 := m3.Process(q)
	q3 := Forwardable(q, res3)
	if q3.Filter == nil || !q3.Filter.Equal(tp(30, 30, 60, 3)) {
		t.Fatalf("dynamic filter after M3 = %v, want h31", q3.Filter)
	}

	// M1 with h31 prunes h14 and h16 (paper's §3.4 walk-through).
	res1 := m1.Process(q3)
	want1 := []tuple.Tuple{tp(10, 10, 20, 7), tp(10, 11, 40, 5)}
	if !skyline.SetEqual(res1.Skyline, want1) {
		t.Fatalf("SK'_1 = %v, want %v", res1.Skyline, want1)
	}
	if res1.Unreduced != 4 {
		t.Errorf("|SK_1| = %d, want 4", res1.Unreduced)
	}

	// Without the dynamic update (SF), h41=(80,2) reaches M1 unchanged. The
	// paper's walk-through says it eliminates only h16, because Figure 4
	// prunes with an all-strictly-better test that spares the price tie of
	// h14=(80,4). This reproduction uses standard dominance (no worse
	// everywhere, better somewhere), under which h41 legitimately prunes
	// h14 as well — a strictly safe improvement (see localsky doc).
	m1sf := NewDevice(1, r1, schema, Exact, false)
	m3sf := NewDevice(3, r3, schema, Exact, false)
	res3sf := m3sf.Process(q)
	qsf := Forwardable(q, res3sf)
	if !qsf.Filter.Equal(tp(40, 40, 80, 2)) {
		t.Fatalf("SF must not change the filter: %v", qsf.Filter)
	}
	res1sf := m1sf.Process(qsf)
	wantSF := []tuple.Tuple{tp(10, 10, 20, 7), tp(10, 11, 40, 5)}
	if !skyline.SetEqual(res1sf.Skyline, wantSF) {
		t.Fatalf("SF at M1 = %v, want h11 and h12", res1sf.Skyline)
	}

	// Assemble the dynamic run and compare with ground truth.
	final := MergeAll(res4.Skyline, res3.Skyline, res1.Skyline)
	all := append(append(append([]tuple.Tuple{}, r1...), r3...), r4...)
	if !skyline.SetEqual(final, skyline.SFS(all)) {
		t.Fatalf("assembled result differs from centralized skyline: %v", final)
	}
}

func TestProcessShadowUnreducedOnSkip(t *testing.T) {
	schema := tuple.NewSchema(2, 0, 100)
	data := []tuple.Tuple{tp(0, 0, 50, 50), tp(1, 1, 60, 70)}
	d := NewDevice(1, data, schema, Exact, true)
	flt := tp(9, 9, 1, 1)
	q := Query{Org: 2, Cnt: 1, D: Unconstrained(), Filter: &flt, FilterVDR: skyline.VDR(flt, schema.Max)}
	res := d.Process(q)
	if !res.Stats.SkippedFilter {
		t.Fatalf("filter should skip the whole relation")
	}
	if res.Unreduced != 1 {
		t.Errorf("shadow unreduced = %d, want 1 (the true |SK_i|)", res.Unreduced)
	}
	if len(res.Skyline) != 0 {
		t.Errorf("skip should transmit nothing")
	}
}

func staticDevices(t *testing.T, n, dim, g int, dist gen.Distribution, mode Estimation, dynamic bool, seed int64) []*Device {
	t.Helper()
	c := gen.DefaultConfig(n, dim, dist, seed)
	data := gen.Generate(c)
	parts := gen.GridPartition(data, g, c.Space)
	devs := make([]*Device, len(parts))
	for i, p := range parts {
		devs[i] = NewDevice(DeviceID(i), p, c.Schema(), mode, dynamic)
	}
	return devs
}

func TestRunStaticCorrectAllModes(t *testing.T) {
	c := gen.DefaultConfig(2000, 2, gen.Independent, 11)
	data := gen.Generate(c)
	want := skyline.SFS(data)
	for _, mode := range []Estimation{Exact, Over, Under} {
		for _, dynamic := range []bool{false, true} {
			parts := gen.GridPartition(data, 4, c.Space)
			devs := make([]*Device, len(parts))
			for i, p := range parts {
				devs[i] = NewDevice(DeviceID(i), p, c.Schema(), mode, dynamic)
			}
			out := RunStatic(devs, 4, 5)
			if !skyline.SetEqual(out.Skyline, want) {
				t.Errorf("mode=%v dynamic=%v: result (%d) differs from centralized (%d)",
					mode, dynamic, len(out.Skyline), len(want))
			}
			if out.Acc.Devices != 15 {
				t.Errorf("mode=%v dynamic=%v: %d devices visited, want 15", mode, dynamic, out.Acc.Devices)
			}
		}
	}
}

func TestRunStaticDRRPositiveOnIndependentData(t *testing.T) {
	devs := staticDevices(t, 20000, 2, 5, gen.Independent, Exact, true, 7)
	out := RunStatic(devs, 5, 12)
	if out.DRR() <= 0 {
		t.Errorf("DRR = %v; filtering should pay off on independent data", out.DRR())
	}
	t.Logf("static DRR (IN, 20K, 5x5, DF/EXT) = %.3f", out.DRR())
}

func TestRunStaticDynamicBeatsOrMatchesSingleOnAverage(t *testing.T) {
	sum := func(dynamic bool) float64 {
		devs := staticDevices(t, 10000, 2, 4, gen.Independent, Under, dynamic, 13)
		outs := RunStaticAll(devs, 4, StaticOptions{})
		total := 0.0
		for _, o := range outs {
			total += o.DRR()
		}
		return total / float64(len(outs))
	}
	sf, df := sum(false), sum(true)
	t.Logf("avg DRR: SF=%.3f DF=%.3f", sf, df)
	if df < sf-0.05 {
		t.Errorf("dynamic filtering (%.3f) should not be materially worse than single (%.3f)", df, sf)
	}
}

func TestRunStaticAllResetsLogs(t *testing.T) {
	devs := staticDevices(t, 1000, 2, 3, gen.Independent, Exact, true, 5)
	outs := RunStaticAll(devs, 3, StaticOptions{})
	if len(outs) != 9 {
		t.Fatalf("got %d outcomes", len(outs))
	}
	for i, o := range outs {
		if o.Acc.Devices != 8 {
			t.Errorf("originator %d reached %d devices, want 8", i, o.Acc.Devices)
		}
	}
}

func TestRunStaticPanics(t *testing.T) {
	devs := staticDevices(t, 100, 2, 2, gen.Independent, Exact, true, 1)
	for name, f := range map[string]func(){
		"wrong grid":     func() { RunStatic(devs, 3, 0) },
		"bad originator": func() { RunStatic(devs, 2, 99) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSelectFiltersExtension(t *testing.T) {
	// An anti-correlated skyline needs several filters for good coverage.
	data := gen.Generate(gen.DefaultConfig(3000, 2, gen.AntiCorrelated, 3))
	sky := skyline.SFS(data)
	if len(sky) < 10 {
		t.Skipf("skyline too small (%d) for a meaningful multi-filter test", len(sky))
	}
	hi := []float64{1000, 1000}
	one := SelectFilters(sky, hi, 1, 0, 42)
	if len(one) != 1 {
		t.Fatalf("k=1 should return one filter")
	}
	single, _ := SelectFilter(sky, func(t tuple.Tuple) float64 { return skyline.VDR(t, hi) })
	if !one[0].Equal(*single) {
		t.Errorf("k=1 should match SelectFilter")
	}
	three := SelectFilters(sky, hi, 3, 0, 42)
	if len(three) != 3 {
		t.Fatalf("k=3 returned %d filters", len(three))
	}

	// Multi-filter pruning must strictly improve (or tie) single-filter
	// pruning on every local skyline, since filters only add prune power.
	parts := gen.GridPartition(data, 3, 1000)
	var locals [][]tuple.Tuple
	for _, p := range parts {
		locals = append(locals, skyline.SFS(p))
	}
	kept := func(filters []tuple.Tuple) (n int) {
		for _, sk := range locals {
			n += len(Survivors(sk, filters))
		}
		return n
	}
	kept1, kept3 := kept(one), kept(three)
	if kept3 > kept1 {
		t.Errorf("3 filters kept %d tuples, 1 filter kept %d — more filters must prune at least as much",
			kept3, kept1)
	}
	t.Logf("reduction: %d local skyline tuples, 1 filter keeps %d, 3 filters keep %d",
		kept(nil), kept1, kept3)

	if got := SelectFilters(nil, hi, 2, 0, 1); got != nil {
		t.Errorf("empty skyline should yield no filters")
	}
	if got := SelectFilters(sky, hi, 0, 0, 1); got != nil {
		t.Errorf("k=0 should yield no filters")
	}
}

func TestApplyFiltersSafety(t *testing.T) {
	data := gen.Generate(gen.DefaultConfig(2000, 3, gen.Independent, 21))
	global := skyline.SFS(data)
	parts := gen.GridPartition(data, 3, 1000)
	hi := []float64{1000, 1000, 1000}
	filters := SelectFilters(global, hi, 4, 0, 9)
	for _, p := range parts {
		local := skyline.SFS(p)
		pruned := ApplyFilters(append([]tuple.Tuple(nil), local...), filters)
		// No pruned-away tuple may belong to the global skyline.
		for _, g := range global {
			inLocal := skyline.Contains(local, g)
			inPruned := skyline.Contains(pruned, g)
			if inLocal && !inPruned {
				t.Fatalf("filter removed global skyline tuple %v", g)
			}
		}
	}
}

func TestQueryString(t *testing.T) {
	q := Query{Org: 7, Cnt: 3, Pos: tuple.Point{X: 1, Y: 2}, D: 100}
	if q.String() == "" {
		t.Errorf("String should render")
	}
	if Unconstrained() != math.Inf(1) {
		t.Errorf("Unconstrained should be +Inf")
	}
}

func TestMultiFilterProtocolCorrectAndAccounted(t *testing.T) {
	c := gen.DefaultConfig(4000, 2, gen.AntiCorrelated, 19)
	data := gen.Generate(c)
	parts := gen.GridPartition(data, 3, c.Space)
	want := skyline.SFS(data)

	run := func(k int) (StaticOutcome, int) {
		devs := make([]*Device, len(parts))
		for i, p := range parts {
			devs[i] = NewDevice(DeviceID(i), p, c.Schema(), Under, true)
			devs[i].NumFilters = k
		}
		out := RunStatic(devs, 3, 4)
		return out, out.Acc.Filters
	}

	single, f1 := run(1)
	multi, f3 := run(3)
	if !skyline.SetEqual(single.Skyline, want) || !skyline.SetEqual(multi.Skyline, want) {
		t.Fatalf("multi-filter protocol changed the result")
	}
	// Eight remote devices: 8 filters shipped at k=1; up to 24 at k=3
	// (fewer only if the originator's skyline is smaller than k).
	if f1 != 8 {
		t.Errorf("k=1 shipped %d filters, want 8", f1)
	}
	if f3 <= f1 {
		t.Errorf("k=3 should ship more filters than k=1: %d vs %d", f3, f1)
	}
	// More filters must prune at least as hard.
	if multi.Acc.Reduced > single.Acc.Reduced {
		t.Errorf("k=3 transmitted more tuples (%d) than k=1 (%d)",
			multi.Acc.Reduced, single.Acc.Reduced)
	}
	t.Logf("k=1: reduced %d→%d DRR %.3f; k=3: →%d DRR %.3f",
		single.Acc.Unreduced, single.Acc.Reduced, single.DRR(),
		multi.Acc.Reduced, multi.DRR())
}

func TestQueryNumFilters(t *testing.T) {
	q := Query{}
	if q.NumFilters() != 0 {
		t.Errorf("empty query has %d filters", q.NumFilters())
	}
	flt := tp(0, 0, 1, 1)
	q.Filter = &flt
	q.Extra = []tuple.Tuple{tp(1, 1, 2, 2), tp(2, 2, 3, 3)}
	if q.NumFilters() != 3 {
		t.Errorf("NumFilters = %d, want 3", q.NumFilters())
	}
}
