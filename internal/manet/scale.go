package manet

import "manetskyline/internal/gen"

// This file is the scale preset. The paper's experiments stop at 100
// devices (Table 6); the preset probes how far the simulator itself carries
// beyond that — struct-of-arrays node state, compact events, the epoch grid
// and per-link transmit modeling are exactly the machinery it exercises.
//
// Geometry keeps density constant instead of the figure sweeps' fixed 1 km²
// field: the cell side stays at scaleCellSide regardless of node count, so
// the spatial domain grows as grid·scaleCellSide and every node sees
// ~π·Range²/cellSide² ≈ 12 neighbours whether the network has 1k or 100k
// devices. A fixed field would turn 100k nodes into a single collision
// domain and measure nothing but broadcast storms.

const (
	// scaleCellSide is the per-device cell side in meters (one device per
	// cell). With scaleRange = 250 the mean degree is π·250²/125² ≈ 12.6.
	scaleCellSide = 125.0
	// scaleRange is the radio range for scale runs.
	scaleRange = 250.0
	// scaleTuplesPerDevice keeps local relations small: the preset measures
	// simulator throughput, not skyline processing cost.
	scaleTuplesPerDevice = 4
)

// ScaleConfig parameterizes one point of the scale preset.
type ScaleConfig struct {
	// Nodes is the requested device count; the actual count is the next
	// perfect square (one device per grid cell).
	Nodes int
	// Strategy selects BF, DF or SF forwarding.
	Strategy Forwarding
	// SimTime is the simulated duration in seconds (0 ⇒ 300).
	SimTime float64
	// Originators caps how many devices issue queries (0 ⇒ 4). At 30k+
	// devices letting everyone flood measures queue collapse, not
	// throughput.
	Originators int
	// Seed drives all randomness (0 ⇒ 1).
	Seed int64
}

// ScaleParams builds the Params for one scale point: constant density
// geometry, compact struct-of-arrays mobility, flood-installed reverse
// routes, bounded per-link transmit queues, and an epoch grid fed by the
// mobility speed bound.
func ScaleParams(cfg ScaleConfig) Params {
	grid := 1
	for grid*grid < cfg.Nodes {
		grid++
	}
	p := DefaultParams()
	p.Grid = grid
	p.GlobalN = scaleTuplesPerDevice * grid * grid
	p.Dim = 2
	p.Dist = gen.Independent
	p.Space = scaleCellSide * float64(grid)
	p.Mobility.Space = p.Space
	p.QueryDist = scaleRange
	p.Strategy = cfg.Strategy

	p.SimTime = cfg.SimTime
	if p.SimTime <= 0 {
		p.SimTime = 300
	}
	p.MinQueries, p.MaxQueries = 1, 1
	p.originators = cfg.Originators
	if p.originators <= 0 {
		p.originators = 4
	}
	// DF serializes the traversal over every device, so at scale it cannot
	// finish inside any reasonable horizon; the deadline finalizes partial
	// results instead of leaving queries open.
	p.QueryDeadline = p.SimTime / 2

	p.Radio.Range = scaleRange
	p.Radio.LinkQueue = 16
	p.scalePath = true

	p.Seed = cfg.Seed
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}
