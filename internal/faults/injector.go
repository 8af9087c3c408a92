package faults

import (
	"math/rand"

	"manetskyline/internal/radio"
	"manetskyline/internal/tuple"
)

// Stats tallies what the injector actually did to a run, by cause.
type Stats struct {
	// OutageDrops counts frames silenced because an endpoint was down.
	OutageDrops int
	// LinkDrops, RegionDrops, and PartitionDrops count frames removed by the
	// corresponding schedules.
	LinkDrops      int
	RegionDrops    int
	PartitionDrops int
	// Duplicated counts extra frame copies scheduled; Reordered counts
	// frames whose delivery was postponed.
	Duplicated int
	Reordered  int
}

// Injector applies one Plan to a running simulation through the radio
// medium's fault hooks. All randomness flows through a private seeded
// source: the medium's own stream is never consulted, so attaching an empty
// plan (or none) leaves a run byte-identical, and any plan replays
// bit-identically for the same (plan seed, scenario seed) pair.
type Injector struct {
	plan *Plan
	rng  *rand.Rand

	// outagesByNode indexes outage windows for O(k) NodeDown checks under
	// churn plans with many outages.
	outagesByNode map[int][]Window
	// groups[i] maps node → group index for plan.Partitions[i]; nodes not
	// listed share the implicit group -1.
	groups []map[int]int

	dupScratch []float64

	// Stats is exported for assertions and reports.
	Stats Stats
}

// NewInjector builds the injector for a plan. The scenario seed feeds the
// private random stream when the plan does not pin its own seed.
func NewInjector(p *Plan, scenarioSeed int64) *Injector {
	seed := p.Seed
	if seed == 0 {
		// An arbitrary odd constant decorrelates the fault stream from the
		// scenario stream that shares the same user-facing seed.
		seed = scenarioSeed*0x9E3779B9 + 0x1D872B41
	}
	in := &Injector{
		plan:          p,
		rng:           rand.New(rand.NewSource(seed)),
		outagesByNode: make(map[int][]Window),
	}
	for _, o := range p.Outages {
		in.outagesByNode[o.Node] = append(in.outagesByNode[o.Node], o.Window)
	}
	for _, pt := range p.Partitions {
		m := make(map[int]int)
		for g, nodes := range pt.Groups {
			for _, n := range nodes {
				m[n] = g
			}
		}
		in.groups = append(in.groups, m)
	}
	return in
}

// Plan returns the schedule the injector executes.
func (in *Injector) Plan() *Plan { return in.plan }

// NodeDown reports whether the node is inside an outage window at now.
func (in *Injector) NodeDown(id radio.NodeID, now float64) bool {
	for _, w := range in.outagesByNode[int(id)] {
		if w.Active(now) {
			return true
		}
	}
	return false
}

// CutLink decides, at delivery time, whether the frame from → to must be
// removed by the schedule: a downed receiver silences the frame, partitions
// sever deterministically, and link and region loss windows draw from the
// injector's private stream. The sender's liveness is not re-checked here —
// it was checked at transmit time, and a frame already in flight when its
// sender goes down still arrives.
func (in *Injector) CutLink(from, to radio.NodeID, now float64, fromPos, toPos tuple.Point) bool {
	if in.NodeDown(to, now) {
		in.Stats.OutageDrops++
		return true
	}
	for i, pt := range in.plan.Partitions {
		if !pt.Active(now) {
			continue
		}
		m := in.groups[i]
		gf, okf := m[int(from)]
		gt, okt := m[int(to)]
		if !okf {
			gf = -1
		}
		if !okt {
			gt = -1
		}
		if gf != gt {
			in.Stats.PartitionDrops++
			return true
		}
	}
	for _, l := range in.plan.LinkLoss {
		match := (l.From == int(from) && l.To == int(to)) ||
			(l.Bidirectional && l.From == int(to) && l.To == int(from))
		if !match || !l.Active(now) {
			continue
		}
		if l.Prob >= 1 || in.rng.Float64() < l.Prob {
			in.Stats.LinkDrops++
			return true
		}
	}
	for _, r := range in.plan.RegionLoss {
		if !r.Active(now) {
			continue
		}
		if !r.contains(fromPos.X, fromPos.Y) && !r.contains(toPos.X, toPos.Y) {
			continue
		}
		if r.Prob >= 1 || in.rng.Float64() < r.Prob {
			in.Stats.RegionDrops++
			return true
		}
	}
	return false
}

// dupSpread is the default spacing of duplicated copies when a Duplicate
// window does not set MaxDelay: tight enough to land amid the original
// frame's contemporaries, nonzero so copies occupy distinct event slots.
const dupSpread = 0.005

// TxEffects perturbs one transmission: extraDelay postpones the nominal
// delivery (reordering it past later frames) and each entry of dupDelays
// schedules one duplicate copy that many seconds after the (postponed)
// delivery. The returned slice is reused across calls.
func (in *Injector) TxEffects(from radio.NodeID, now float64) (extraDelay float64, dupDelays []float64) {
	for _, c := range in.plan.Reorder {
		if !c.Active(now) {
			continue
		}
		if in.rng.Float64() < c.Prob {
			extraDelay += in.rng.Float64() * c.MaxDelay
			in.Stats.Reordered++
		}
	}
	in.dupScratch = in.dupScratch[:0]
	for _, c := range in.plan.Duplicate {
		if !c.Active(now) {
			continue
		}
		if in.rng.Float64() >= c.Prob {
			continue
		}
		extra := 1
		if c.MaxExtra > 1 {
			extra += in.rng.Intn(c.MaxExtra)
		}
		spread := c.MaxDelay
		if spread <= 0 {
			spread = dupSpread
		}
		for i := 0; i < extra; i++ {
			in.dupScratch = append(in.dupScratch, in.rng.Float64()*spread)
			in.Stats.Duplicated++
		}
	}
	return extraDelay, in.dupScratch
}
