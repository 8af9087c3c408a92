package core

import (
	"fmt"

	"manetskyline/internal/localsky"
	"manetskyline/internal/tuple"
)

// StaticOutcome reports one query's execution in the static setting of the
// pre-tests (§5.2.2-I): no mobility, recursive forwarding from the
// originator to its outer grid neighbours, distance constraint ignored.
type StaticOutcome struct {
	// Skyline is the assembled final result SK.
	Skyline []tuple.Tuple
	// Acc holds the Formula 1 sums over the m−1 non-originator devices.
	Acc DRRAccumulator
	// Stats aggregates the local-processing work across all devices.
	Stats localsky.Stats
}

// DRR is the query's data reduction rate.
func (o StaticOutcome) DRR() float64 { return o.Acc.DRR() }

// StaticOptions tunes the static executor.
type StaticOptions struct {
	// SkipAssembly disables merging the final skyline at the originator.
	// The DRR pre-tests of §5.2.2-I only measure reduction sums; on
	// anti-correlated high-dimensional data the assembled skyline is huge
	// and the merge dominates the experiment's cost without affecting it.
	SkipAssembly bool
}

// RunStatic executes one distributed skyline query over a g×g grid of
// devices in the static setting. devices must have length g*g, laid out
// row-major as produced by gen.GridPartition; org indexes the originator.
//
// Forwarding follows the paper's pre-test description: the query spreads
// recursively from the originator to its outer neighbours (breadth-first
// over 4-neighbour grid adjacency), every device processes it exactly once,
// and under the dynamic strategy each device forwards its own possibly
// upgraded filter to the neighbours it discovers.
func RunStatic(devices []*Device, g int, org DeviceID) StaticOutcome {
	return RunStaticOpt(devices, g, org, StaticOptions{})
}

// RunStaticOpt is RunStatic with options.
func RunStaticOpt(devices []*Device, g int, org DeviceID, opt StaticOptions) StaticOutcome {
	if len(devices) != g*g {
		panic(fmt.Sprintf("core: %d devices for a %d×%d grid", len(devices), g, g))
	}
	if int(org) < 0 || int(org) >= len(devices) {
		panic(fmt.Sprintf("core: originator %d out of range", org))
	}

	orgDev := devices[org]
	pos := orgDev.Rel.MBR().Center()
	q, orgRes := orgDev.Originate(pos, Unconstrained())

	out := StaticOutcome{Skyline: orgRes.Skyline}
	out.Stats.Add(orgRes.Stats)
	parts := [][]tuple.Tuple{orgRes.Skyline}

	// BFS over the grid; each queue entry carries the query as forwarded by
	// the device that discovered it (whose filter may have been upgraded).
	type hop struct {
		dev DeviceID
		q   Query
	}
	visited := make([]bool, len(devices))
	visited[org] = true
	queue := make([]hop, 0, len(devices)-1)
	enqueueNeighbors := func(from DeviceID, fq Query) {
		r, c := int(from)/g, int(from)%g
		for _, d := range gridNeighbors {
			nr, nc := r+d[0], c+d[1]
			if nr < 0 || nr >= g || nc < 0 || nc >= g {
				continue
			}
			id := DeviceID(nr*g + nc)
			if !visited[id] {
				visited[id] = true
				queue = append(queue, hop{dev: id, q: fq})
			}
		}
	}
	enqueueNeighbors(org, q)

	for head := 0; head < len(queue); head++ {
		h := queue[head]
		dev := devices[h.dev]
		if !dev.Log.FirstTime(h.q.Key()) {
			continue
		}
		res := dev.Process(h.q)
		out.Acc.ObserveFilters(res, h.q.NumFilters())
		out.Stats.Add(res.Stats)
		parts = append(parts, res.Skyline)
		enqueueNeighbors(h.dev, Forwardable(h.q, res))
	}
	if !opt.SkipAssembly {
		out.Skyline = MergeAll(parts...)
	}
	return out
}

// gridNeighbors are the row and column offsets of 4-neighbour adjacency.
var gridNeighbors = [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}}

// RunStaticAll runs the pre-test protocol once per originator (the paper's
// m×m-query experiments average over every device originating) and returns
// the outcomes in originator order. Device query logs are reset between
// runs so each query is fresh.
func RunStaticAll(devices []*Device, g int, opt StaticOptions) []StaticOutcome {
	outs := make([]StaticOutcome, len(devices))
	for org := range devices {
		for _, d := range devices {
			d.Log.Reset()
		}
		outs[org] = RunStaticOpt(devices, g, DeviceID(org), opt)
	}
	return outs
}
