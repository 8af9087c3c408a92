package bench

import (
	"fmt"
	"time"

	"manetskyline/internal/device"
	"manetskyline/internal/gen"
	"manetskyline/internal/localsky"
	"manetskyline/internal/storage"
)

// localRun evaluates one local skyline query under both storage schemes and
// returns estimated device seconds (the paper's Figure 5 quantity) and
// measured host seconds for each.
type localRun struct {
	hsDevice, fsDevice float64 // handheld cost-model estimate (s)
	hsHost, fsHost     float64 // measured wall time on this machine (s)
}

func runLocal(n, dim int, dist gen.Distribution, seed int64) localRun {
	cfg := gen.HandheldConfig(n, dim, dist, seed)
	data := gen.Generate(cfg)
	model := device.Handheld200MHz()
	q := localsky.Query{} // unconstrained: pure skyline cost, as in §5.1

	hs := storage.NewHybrid(data)
	t0 := time.Now()
	hres := localsky.HybridSkylineScratch(hs, q, nil, nil, nil)
	hsHost := time.Since(t0).Seconds()

	fs := storage.NewFlat(data)
	t0 = time.Now()
	fres := localsky.BNLSkylineScratch(fs, q, nil, nil, nil)
	fsHost := time.Since(t0).Seconds()

	return localRun{
		hsDevice: model.Time(hres.Stats),
		fsDevice: model.Time(fres.Stats),
		hsHost:   hsHost,
		fsHost:   fsHost,
	}
}

// Fig5a reproduces Figure 5(a): local skyline processing time, hybrid
// storage (HS, the Figure 4 algorithm) versus flat storage (FS, BNL), as
// cardinality grows, on independent (IN) and anti-correlated (AC) data with
// two non-spatial attributes. The first table is the paper's quantity
// (estimated seconds on a 200 MHz handheld); the second reports the host
// measurements backing the estimate.
func Fig5a(sc Scale) []*Table {
	p := sc.params()
	dev := &Table{
		ID:      "fig5a",
		Title:   "local processing time vs. cardinality (estimated handheld seconds)",
		Columns: []string{"tuples", "FS-IN", "HS-IN", "FS-AC", "HS-AC"},
	}
	host := &Table{
		ID:      "fig5a-host",
		Title:   "local processing time vs. cardinality (measured host milliseconds)",
		Columns: []string{"tuples", "FS-IN", "HS-IN", "FS-AC", "HS-AC"},
	}
	// Each (cardinality × distribution) evaluation is independent and runs
	// on the worker pool. The estimated-device columns are deterministic
	// work counters; only the backing host wall times pick up co-scheduling
	// noise, as any wall measurement on a busy machine does.
	ins := make([]localRun, len(p.F5Cards))
	acs := make([]localRun, len(p.F5Cards))
	forEach(2*len(p.F5Cards), func(i int) {
		if i < len(p.F5Cards) {
			ins[i] = runLocal(p.F5Cards[i], 2, gen.Independent, p.Seed)
		} else {
			acs[i-len(p.F5Cards)] = runLocal(p.F5Cards[i-len(p.F5Cards)], 2, gen.AntiCorrelated, p.Seed)
		}
	})
	for i, n := range p.F5Cards {
		in, ac := ins[i], acs[i]
		dev.AddRow(n, in.fsDevice, in.hsDevice, ac.fsDevice, ac.hsDevice)
		host.AddRow(n, in.fsHost*1e3, in.hsHost*1e3, ac.fsHost*1e3, ac.hsHost*1e3)
	}
	return []*Table{dev, host}
}

// Fig5b reproduces Figure 5(b): local skyline processing time versus
// dimensionality at fixed cardinality, averaging the IN and AC costs as the
// paper does ("their costs are very close to each other for each
// dimensionality" does not hold for BNL at high dimensions, so the average
// is reported the same way regardless).
func Fig5b(sc Scale) []*Table {
	p := sc.params()
	dev := &Table{
		ID:      "fig5b",
		Title:   fmt.Sprintf("local processing time vs. dimensionality at %d tuples (estimated handheld seconds, avg of IN and AC)", p.F5DimCard),
		Columns: []string{"attrs", "FS", "HS"},
	}
	host := &Table{
		ID:      "fig5b-host",
		Title:   "local processing time vs. dimensionality (measured host milliseconds, avg of IN and AC)",
		Columns: []string{"attrs", "FS", "HS"},
	}
	ins := make([]localRun, len(p.F5Dims))
	acs := make([]localRun, len(p.F5Dims))
	forEach(2*len(p.F5Dims), func(i int) {
		if i < len(p.F5Dims) {
			ins[i] = runLocal(p.F5DimCard, p.F5Dims[i], gen.Independent, p.Seed)
		} else {
			acs[i-len(p.F5Dims)] = runLocal(p.F5DimCard, p.F5Dims[i-len(p.F5Dims)], gen.AntiCorrelated, p.Seed)
		}
	})
	for i, dim := range p.F5Dims {
		in, ac := ins[i], acs[i]
		dev.AddRow(dim, (in.fsDevice+ac.fsDevice)/2, (in.hsDevice+ac.hsDevice)/2)
		host.AddRow(dim, (in.fsHost+ac.fsHost)/2*1e3, (in.hsHost+ac.hsHost)/2*1e3)
	}
	return []*Table{dev, host}
}
