package core

import (
	"fmt"

	"manetskyline/internal/localsky"
	"manetskyline/internal/skyline"
	"manetskyline/internal/storage"
	"manetskyline/internal/tuple"
)

// Estimation selects how a device computes the volume of a tuple's
// dominating region when scoring filtering-tuple candidates (§3.2-3.3).
type Estimation int

const (
	// Exact computes VDR_j = Π(b_k - p_jk) from the known global domain
	// bounds b_k ("EXT" in the figures).
	Exact Estimation = iota
	// Over uses pre-specified bounds max_k larger than any global bound
	// ("OVE"): VDR_o = Π(max_k - p_jk). Devices need no global knowledge.
	Over
	// Under uses the device-local maxima h_k ("UNE"):
	// VDR_u = Π(h_k - p_jk). Devices need no global knowledge either.
	Under
)

// String names the estimation mode the way the paper's figures do.
func (e Estimation) String() string {
	switch e {
	case Exact:
		return "EXT"
	case Over:
		return "OVE"
	case Under:
		return "UNE"
	default:
		return fmt.Sprintf("Estimation(%d)", int(e))
	}
}

// DefaultOverFactor scales the global upper bounds to obtain the
// pre-specified over-estimation bounds max_k. Any factor > 1 satisfies the
// paper's "larger than the global domain upper bound".
const DefaultOverFactor = 2.0

// VDRBounds returns the upper bounds a device should use under the given
// estimation mode. schema carries the global bounds (consulted only for
// Exact and Over); rel supplies the local maxima for Under; overFactor > 1
// scales the global bounds for Over (DefaultOverFactor when zero).
func VDRBounds(mode Estimation, schema tuple.Schema, rel storage.Relation, overFactor float64) []float64 {
	dim := schema.Dim()
	hi := make([]float64, dim)
	switch mode {
	case Exact:
		copy(hi, schema.Max)
	case Over:
		if overFactor <= 1 {
			overFactor = DefaultOverFactor
		}
		for k := range hi {
			hi[k] = schema.Max[k] * overFactor
			if hi[k] <= schema.Max[k] { // non-positive bound: still exceed it
				hi[k] = schema.Max[k] + 1
			}
		}
	case Under:
		for k := range hi {
			if rel != nil && rel.Len() > 0 {
				hi[k] = rel.AttrMax(k)
			} else {
				hi[k] = schema.Max[k]
			}
		}
	default:
		panic(fmt.Sprintf("core: unknown estimation mode %d", int(mode)))
	}
	return hi
}

// VDRFunc builds the localsky scoring function for the given mode: the
// skyline.VDR volume against the mode's bounds.
func VDRFunc(mode Estimation, schema tuple.Schema, rel storage.Relation, overFactor float64) localsky.VDRFunc {
	hi := VDRBounds(mode, schema, rel, overFactor)
	return func(t tuple.Tuple) float64 { return skyline.VDR(t, hi) }
}

// SelectFilter picks the tuple with the maximum VDR from a local skyline —
// the originator's filtering-tuple choice of §3.2. It returns nil for an
// empty skyline.
func SelectFilter(sky []tuple.Tuple, vdr localsky.VDRFunc) (*tuple.Tuple, float64) {
	var best *tuple.Tuple
	bestV := 0.0
	for i := range sky {
		if v := vdr(sky[i]); best == nil || v > bestV {
			best = &sky[i]
			bestV = v
		}
	}
	if best == nil {
		return nil, 0
	}
	t := best.Clone()
	return &t, bestV
}
