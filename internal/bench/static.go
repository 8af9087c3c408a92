package bench

import (
	"fmt"

	"manetskyline/internal/core"
	"manetskyline/internal/gen"
)

// staticSeries is one line of Figures 6-7: a filtering strategy (single or
// dynamic) combined with a dominating-region estimation mode.
type staticSeries struct {
	dynamic bool
	mode    core.Estimation
}

func (s staticSeries) label() string {
	if s.dynamic {
		return "DF-" + s.mode.String()
	}
	return "SF-" + s.mode.String()
}

// staticSeriesSet is the paper's six series: {SF, DF} × {OVE, EXT, UNE}.
func staticSeriesSet() []staticSeries {
	var out []staticSeries
	for _, dyn := range []bool{false, true} {
		for _, mode := range []core.Estimation{core.Over, core.Exact, core.Under} {
			out = append(out, staticSeries{dynamic: dyn, mode: mode})
		}
	}
	return out
}

// staticDRR runs the static pre-test protocol for one dataset and one
// series, averaging the pooled DRR over every device acting as originator
// once (§5.2.2-I).
func staticDRR(n, dim, grid int, dist gen.Distribution, s staticSeries, seed int64) float64 {
	cfg := gen.DefaultConfig(n, dim, dist, seed)
	data := gen.Generate(cfg)
	parts := gen.GridPartition(data, grid, cfg.Space)
	devs := make([]*core.Device, len(parts))
	for i, p := range parts {
		devs[i] = core.NewDevice(core.DeviceID(i), p, cfg.Schema(), s.mode, s.dynamic)
	}
	outs := core.RunStaticAll(devs, grid, core.StaticOptions{SkipAssembly: true})
	var acc core.DRRAccumulator
	for _, o := range outs {
		acc.Add(o.Acc)
	}
	return acc.DRR()
}

// staticFigure builds the three sub-figures of Figure 6 (independent data)
// or Figure 7 (anti-correlated data): DRR versus cardinality,
// dimensionality, and device count, across the six strategy × estimation
// series. Every (series × axis-point) pre-test builds its own dataset and
// devices from the scale's fixed seed, so the cells fan out over the worker
// pool and are collected positionally into the serial row order.
func staticFigure(sc Scale, dist gen.Distribution, figID string) []*Table {
	p := sc.params()
	series := staticSeriesSet()
	cols := []string{"param"}
	for _, s := range series {
		cols = append(cols, s.label())
	}

	type axisSpec struct{ n, dim, grid int }
	axes := [3][]axisSpec{}
	for _, n := range p.StaticCards {
		axes[0] = append(axes[0], axisSpec{n, 2, p.StaticGrid})
	}
	for _, dim := range p.StaticDims {
		axes[1] = append(axes[1], axisSpec{p.StaticCard, dim, p.StaticGrid})
	}
	for _, g := range p.StaticGrids {
		axes[2] = append(axes[2], axisSpec{p.StaticCard, 2, g})
	}

	type slot struct{ sweep, axis, ser int }
	var jobs []slot
	drrs := [3][][]float64{}
	for sw := range axes {
		drrs[sw] = make([][]float64, len(axes[sw]))
		for ai := range axes[sw] {
			drrs[sw][ai] = make([]float64, len(series))
			for si := range series {
				jobs = append(jobs, slot{sw, ai, si})
			}
		}
	}
	forEach(len(jobs), func(i int) {
		j := jobs[i]
		a := axes[j.sweep][j.axis]
		drrs[j.sweep][j.axis][j.ser] = staticDRR(a.n, a.dim, a.grid, dist, series[j.ser], p.Seed)
	})

	addRows := func(t *Table, sweep int, axisVal func(i int) any) {
		for ai := range axes[sweep] {
			row := []any{axisVal(ai)}
			for _, v := range drrs[sweep][ai] {
				row = append(row, v)
			}
			t.AddRow(row...)
		}
	}

	card := &Table{
		ID:      figID + "a",
		Title:   fmt.Sprintf("static DRR vs. cardinality (%v data, %d×%d grid, 2 attrs)", dist, p.StaticGrid, p.StaticGrid),
		Columns: append([]string{"tuples"}, cols[1:]...),
	}
	addRows(card, 0, func(i int) any { return p.StaticCards[i] })

	dims := &Table{
		ID:      figID + "b",
		Title:   fmt.Sprintf("static DRR vs. dimensionality (%v data, %d tuples, %d×%d grid)", dist, p.StaticCard, p.StaticGrid, p.StaticGrid),
		Columns: append([]string{"attrs"}, cols[1:]...),
	}
	addRows(dims, 1, func(i int) any { return p.StaticDims[i] })

	grids := &Table{
		ID:      figID + "c",
		Title:   fmt.Sprintf("static DRR vs. number of devices (%v data, %d tuples, 2 attrs)", dist, p.StaticCard),
		Columns: append([]string{"devices"}, cols[1:]...),
	}
	addRows(grids, 2, func(i int) any { return p.StaticGrids[i] * p.StaticGrids[i] })

	return []*Table{card, dims, grids}
}

// Fig6 reproduces Figure 6: data reduction rate on independent datasets in
// the static setting, for {SF, DF} × {OVE, EXT, UNE}.
func Fig6(sc Scale) []*Table { return staticFigure(sc, gen.Independent, "fig6") }

// Fig7 reproduces Figure 7: the same pre-tests on anti-correlated datasets.
func Fig7(sc Scale) []*Table { return staticFigure(sc, gen.AntiCorrelated, "fig7") }
