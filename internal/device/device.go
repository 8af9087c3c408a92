// Package device models the processing speed of the resource-constrained
// handhelds the paper targets (an HP iPAQ h6365: 200 MHz TI OMAP1510
// running interpreted SuperWaba code, §5.1).
//
// The paper measured local skyline processing on the real device and then,
// in the MANET experiments, *estimated* per-device processing costs and
// added them to the simulated communication delays (§5.2.3). This package
// is that estimator: it converts the work counters recorded by
// internal/localsky into simulated seconds using per-operation costs
// calibrated to a 200 MHz-class interpreted runtime. The HS-vs-FS shape of
// Figure 5 (ID comparisons several times cheaper than raw float
// comparisons, both dwarfed by an interpreter's per-operation overhead)
// is what matters, not the absolute constants.
package device

import (
	"fmt"

	"manetskyline/internal/localsky"
)

// CostModel maps work counters to seconds.
type CostModel struct {
	// Fixed is the per-query dispatch overhead.
	Fixed float64
	// PerTuple is the per-scanned-tuple loop overhead.
	PerTuple float64
	// PerIDCmp is the cost of one integer ID comparison (hybrid storage).
	PerIDCmp float64
	// PerValCmp is the cost of one raw attribute-value comparison,
	// including the addressing/dereference work flat storage needs.
	PerValCmp float64
	// PerDist is the cost of one spatial distance check.
	PerDist float64
}

// Handheld200MHz returns constants for the paper's iPAQ-class device: an
// interpreted runtime on a 200 MHz core, where a float comparison with
// offset addressing costs on the order of microseconds and a byte-ID
// comparison roughly a quarter of that.
func Handheld200MHz() CostModel {
	return CostModel{
		Fixed:     5e-3,
		PerTuple:  1e-6,
		PerIDCmp:  0.5e-6,
		PerValCmp: 2e-6,
		PerDist:   3e-6,
	}
}

// Desktop returns constants for the paper's simulation host (a ~3 GHz
// Pentium IV running compiled code), provided for comparison benches.
func Desktop() CostModel {
	return CostModel{
		Fixed:     1e-5,
		PerTuple:  5e-9,
		PerIDCmp:  2e-9,
		PerValCmp: 6e-9,
		PerDist:   8e-9,
	}
}

// Validate checks that all constants are non-negative. It checks them in
// declaration order, so the error names the first negative one.
func (c CostModel) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Fixed", c.Fixed}, {"PerTuple", c.PerTuple}, {"PerIDCmp", c.PerIDCmp},
		{"PerValCmp", c.PerValCmp}, {"PerDist", c.PerDist},
	} {
		if f.v < 0 {
			return fmt.Errorf("device: negative cost %s = %g", f.name, f.v)
		}
	}
	return nil
}

// Time converts one evaluation's work counters into seconds.
func (c CostModel) Time(s localsky.Stats) float64 {
	return c.Fixed +
		float64(s.Scanned)*c.PerTuple +
		float64(s.IDCmp)*c.PerIDCmp +
		float64(s.ValCmp)*c.PerValCmp +
		float64(s.DistChecks)*c.PerDist
}
