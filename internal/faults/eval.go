package faults

import (
	"math/rand"

	"manetskyline/internal/tuple"
)

// Stats tallies what an evaluator did to a run, by cause.
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

// Eval answers "what does this plan do to the frame from → to at time
// now?" for both tiers: the simulator's radio medium consults it through
// radio.FaultInjector, and the live chaos proxies map wall clock onto plan
// time and ask it the same questions. Every random decision comes from one
// private seeded stream, in a fixed order, so a simulated run replays
// bit-identically for the same (plan, seed) pair.
//
// Eval is not safe for concurrent use. NodeDown, Severed and SeveredUntil
// are the exception: they draw nothing and write nothing.
type Eval struct {
	plan *Plan
	rng  *rand.Rand

	// outagesByNode indexes outage windows for O(k) NodeDown checks under
	// churn plans with many outages.
	outagesByNode map[int][]Window
	// groups[i] maps node → group index + 1 for plan.Partitions[i], so an
	// unlisted node reads 0: the implicit extra group.
	groups []map[int]int

	dupScratch []float64

	// Stats is exported for assertions and reports.
	Stats Stats
}

// NewEval builds the evaluator for a plan. The seed feeds the private
// random stream unless the plan pins its own.
func NewEval(p *Plan, seed int64) *Eval {
	if p.Seed != 0 {
		seed = p.Seed
	}
	e := &Eval{
		plan:          p,
		rng:           rand.New(rand.NewSource(seed)),
		outagesByNode: make(map[int][]Window),
	}
	for _, o := range p.Outages {
		e.outagesByNode[o.Node] = append(e.outagesByNode[o.Node], o.Window)
	}
	for _, pt := range p.Partitions {
		m := make(map[int]int)
		for g, nodes := range pt.Groups {
			for _, n := range nodes {
				m[n] = g + 1
			}
		}
		e.groups = append(e.groups, m)
	}
	return e
}

// NodeDown reports whether the node sits inside an outage window at now.
func (e *Eval) NodeDown(node int, now float64) bool {
	for _, w := range e.outagesByNode[node] {
		if w.Active(now) {
			return true
		}
	}
	return false
}

// split reports whether partition i puts from and to in different groups,
// whether or not the partition is active.
func (e *Eval) split(i, from, to int) bool {
	return e.groups[i][from] != e.groups[i][to]
}

// Severed reports whether a partition (or an endpoint outage) blocks the
// link from → to at now.
func (e *Eval) Severed(from, to int, now float64) bool {
	if e.NodeDown(from, now) || e.NodeDown(to, now) {
		return true
	}
	for i, pt := range e.plan.Partitions {
		if pt.Active(now) && e.split(i, from, to) {
			return true
		}
	}
	return false
}

// SeveredUntil returns the plan time at which every currently-severing
// window over from → to has ended, and whether any of them is open-ended
// (a permanent cut). When the link is not severed it returns (now, false).
func (e *Eval) SeveredUntil(from, to int, now float64) (until float64, forever bool) {
	until = now
	extend := func(w Window) {
		if !w.Active(now) {
			return
		}
		if w.End <= 0 {
			forever = true
		} else if w.End > until {
			until = w.End
		}
	}
	for _, w := range e.outagesByNode[from] {
		extend(w)
	}
	for _, w := range e.outagesByNode[to] {
		extend(w)
	}
	for i, pt := range e.plan.Partitions {
		if e.split(i, from, to) {
			extend(pt.Window)
		}
	}
	return until, forever
}

// CutLink decides, at delivery time, whether the frame from → to must be
// removed by the schedule: a downed receiver silences the frame, partitions
// sever deterministically, and link and region loss windows draw from the
// private stream. Endpoint positions feed region loss. The sender's
// liveness is not re-checked here — it was checked at transmit time, and a
// frame already in flight when its sender goes down still arrives.
func (e *Eval) CutLink(from, to int, now float64, fromPos, toPos tuple.Point) bool {
	if e.NodeDown(to, now) {
		e.Stats.OutageDrops++
		return true
	}
	for i, pt := range e.plan.Partitions {
		if pt.Active(now) && e.split(i, from, to) {
			e.Stats.PartitionDrops++
			return true
		}
	}
	for _, l := range e.plan.LinkLoss {
		match := (l.From == from && l.To == to) ||
			(l.Bidirectional && l.From == to && l.To == from)
		if !match || !l.Active(now) {
			continue
		}
		if l.Prob >= 1 || e.rng.Float64() < l.Prob {
			e.Stats.LinkDrops++
			return true
		}
	}
	for _, r := range e.plan.RegionLoss {
		if !r.Active(now) {
			continue
		}
		if !r.contains(fromPos.X, fromPos.Y) && !r.contains(toPos.X, toPos.Y) {
			continue
		}
		if r.Prob >= 1 || e.rng.Float64() < r.Prob {
			e.Stats.RegionDrops++
			return true
		}
	}
	return false
}

// dupSpread is the default spacing of duplicated copies when a Duplicate
// window does not set MaxDelay: tight enough to land amid the original
// frame's contemporaries, nonzero so copies occupy distinct event slots.
const dupSpread = 0.005

// TxEffects perturbs one transmission at now: extraDelay postpones the
// nominal delivery (reordering it past later frames) and each entry of
// dupDelays schedules one duplicate copy that many seconds after the
// (postponed) delivery. The returned slice is reused across calls.
func (e *Eval) TxEffects(now float64) (extraDelay float64, dupDelays []float64) {
	for _, c := range e.plan.Reorder {
		if c.Active(now) && e.rng.Float64() < c.Prob {
			extraDelay += e.rng.Float64() * c.MaxDelay
			e.Stats.Reordered++
		}
	}
	e.dupScratch = e.dupScratch[:0]
	for _, c := range e.plan.Duplicate {
		if !c.Active(now) || e.rng.Float64() >= c.Prob {
			continue
		}
		extra := 1
		if c.MaxExtra > 1 {
			extra += e.rng.Intn(c.MaxExtra)
		}
		spread := c.MaxDelay
		if spread <= 0 {
			spread = dupSpread
		}
		for i := 0; i < extra; i++ {
			e.dupScratch = append(e.dupScratch, e.rng.Float64()*spread)
			e.Stats.Duplicated++
		}
	}
	return extraDelay, e.dupScratch
}
