package bench

import (
	"fmt"
	"time"

	"manetskyline/internal/core"
	"manetskyline/internal/gen"
	"manetskyline/internal/localsky"
	"manetskyline/internal/storage"
	"manetskyline/internal/tuple"
)

// AblationStorage quantifies the §4.1 storage-model arguments the paper
// makes only in prose: local skyline evaluation time and memory footprint
// across flat, hybrid, domain, and ring storage. Hybrid should win on time
// (ID comparisons + presort) while staying close to domain storage's size;
// ring pays its value-walk on every comparison.
//
// This ablation (like AblationSpatialIndex and AblationBaselines) measures
// host wall time, so its points deliberately stay serial rather than using
// the worker pool: co-running the timed sections would contaminate them.
func AblationStorage(sc Scale) []*Table {
	p := sc.params()
	n := p.F5DimCard
	t := &Table{
		ID:      "ablation-storage",
		Title:   fmt.Sprintf("storage models: skyline time (host ms) and size (KiB) at %d tuples, 2 attrs", n),
		Columns: []string{"model", "time-IN", "time-AC", "KiB"},
	}
	for _, model := range []string{"flat", "hybrid", "domain", "ring"} {
		var timeMS [2]float64
		var kib float64
		for di, dist := range []gen.Distribution{gen.Independent, gen.AntiCorrelated} {
			data := gen.Generate(gen.HandheldConfig(n, 2, dist, p.Seed))
			var rel storage.Relation
			switch model {
			case "flat":
				rel = storage.NewFlat(data)
			case "hybrid":
				rel = storage.NewHybrid(data)
			case "domain":
				rel = storage.NewDomain(data)
			case "ring":
				rel = storage.NewRing(data)
			}
			t0 := time.Now()
			if h, ok := rel.(*storage.Hybrid); ok {
				localsky.HybridSkylineScratch(h, localsky.Query{}, nil, nil, nil)
			} else {
				localsky.BNLSkylineScratch(rel, localsky.Query{}, nil, nil, nil)
			}
			timeMS[di] = time.Since(t0).Seconds() * 1e3
			kib = float64(rel.MemBytes()) / 1024
		}
		t.AddRow(model, timeMS[0], timeMS[1], kib)
	}
	return []*Table{t}
}

// AblationMultiFilter evaluates the paper's §7 future-work idea with the
// live protocol: devices originate queries carrying k filtering tuples
// chosen by greedy dominating-region coverage, Formula 1 charges k shipped
// tuples per device, and the static pre-test measures the resulting data
// reduction rate for k = 1..5.
func AblationMultiFilter(sc Scale) []*Table {
	p := sc.params()
	t := &Table{
		ID:      "ablation-multifilter",
		Title:   fmt.Sprintf("multi-filter extension: protocol DRR vs. filter count (%d tuples, %d×%d grid, 2 attrs)", p.StaticCard, p.StaticGrid, p.StaticGrid),
		Columns: []string{"filters", "DRR-IN", "DRR-AC"},
	}
	drrFor := func(dist gen.Distribution, k int) float64 {
		cfg := gen.DefaultConfig(p.StaticCard, 2, dist, p.Seed)
		data := gen.Generate(cfg)
		parts := gen.GridPartition(data, p.StaticGrid, cfg.Space)
		devs := make([]*core.Device, len(parts))
		for i, part := range parts {
			devs[i] = core.NewDevice(core.DeviceID(i), part, cfg.Schema(), core.Under, true)
			devs[i].NumFilters = k
		}
		outs := core.RunStaticAll(devs, p.StaticGrid, core.StaticOptions{SkipAssembly: true})
		var acc core.DRRAccumulator
		for _, o := range outs {
			acc.Add(o.Acc)
		}
		return acc.DRR()
	}
	// Ten independent (k × distribution) protocol runs, fanned out over the
	// worker pool and collected positionally.
	ks := []int{1, 2, 3, 4, 5}
	drrs := make([][2]float64, len(ks))
	forEach(2*len(ks), func(i int) {
		ki, di := i/2, i%2
		dist := gen.Independent
		if di == 1 {
			dist = gen.AntiCorrelated
		}
		drrs[ki][di] = drrFor(dist, ks[ki])
	})
	for i, k := range ks {
		t.AddRow(k, drrs[i][0], drrs[i][1])
	}
	return []*Table{t}
}

// AblationSpatialIndex quantifies the beyond-the-paper spatial bucket grid:
// local constrained-skyline time with the Figure 4 sequential scan versus
// the grid-backed candidate enumeration, across query distances. The gain
// is largest for selective ranges and vanishes (by design: the index falls
// back to the scan) when the range covers the whole relation.
func AblationSpatialIndex(sc Scale) []*Table {
	p := sc.params()
	n := p.F5DimCard
	data := gen.Generate(gen.DefaultConfig(n, 2, gen.Independent, p.Seed))
	rel := storage.NewHybrid(data)
	center := tuple.Point{X: 500, Y: 500}
	t := &Table{
		ID:      "ablation-spatialindex",
		Title:   fmt.Sprintf("spatial bucket grid vs. sequential scan (%d tuples, 2 attrs, host µs)", n),
		Columns: []string{"distance", "scan-us", "index-us", "scan-visited", "index-visited"},
	}
	for _, d := range []float64{50, 100, 250, 500, 1500} {
		t0 := time.Now()
		plain := localsky.HybridSkylineScratch(rel, localsky.Query{Pos: center, D: d}, nil, nil, nil)
		scanUS := float64(time.Since(t0).Microseconds())
		t0 = time.Now()
		idx := localsky.HybridSkylineScratch(rel, localsky.Query{Pos: center, D: d, SpatialIndex: true}, nil, nil, nil)
		idxUS := float64(time.Since(t0).Microseconds())
		t.AddRow(d, scanUS, idxUS, plain.Stats.Scanned, idx.Stats.Scanned)
	}
	return []*Table{t}
}
