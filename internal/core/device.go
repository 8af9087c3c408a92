package core

import (
	"sync/atomic"

	"manetskyline/internal/localsky"
	"manetskyline/internal/storage"
	"manetskyline/internal/tuple"
)

// Device couples one mobile device's local relation with its protocol
// state: the duplicate-suppression log, its belief about global attribute
// bounds, and its dominating-region estimation mode. The same Device type
// backs the static executor, the MANET simulator, and the live peer
// runtime.
type Device struct {
	// ID identifies the device.
	ID DeviceID
	// Rel is the device's local relation R_i in hybrid storage.
	Rel *storage.Hybrid
	// Log suppresses duplicate query processing.
	Log *QueryLog
	// Schema carries the globally agreed attribute bounds; only consulted
	// under the Exact and Over estimation modes.
	Schema tuple.Schema
	// Mode selects the dominating-region estimation (§3.3).
	Mode Estimation
	// OverFactor scales global bounds for Over estimation (0 ⇒ default).
	OverFactor float64
	// Dynamic enables the hop-by-hop filter update of §3.4 ("DF" in the
	// figures); when false the originator's filter is used unchanged
	// ("SF").
	Dynamic bool
	// NumFilters selects how many filtering tuples this device attaches
	// when originating (§7 multi-filter extension); 0 and 1 both mean the
	// paper's single-filter scheme.
	NumFilters int
	// Met is the device's telemetry surface; the zero value disables it.
	Met Metrics

	// nextCnt counts minted queries; it is atomic because a live peer
	// originates concurrent queries. Cnt is its low byte (§3.4).
	nextCnt atomic.Uint32
	// scan memoizes the Figure 4 scan over Rel; see evaluate.
	scan atomic.Pointer[scanMemo]
}

// scanMemo is the outcome of the Figure 4 scan over one whole relation:
// what the scan of every query that covers the relation recomputes.
type scanMemo struct {
	rel   *storage.Hybrid
	slots []int32 // SK_i as ascending storage indices
	idCmp int     // ID comparisons the scan spent
}

// NewDevice builds a device over the given tuples.
func NewDevice(id DeviceID, ts []tuple.Tuple, schema tuple.Schema, mode Estimation, dynamic bool) *Device {
	return &Device{
		ID:      id,
		Rel:     storage.NewHybrid(ts),
		Log:     NewQueryLog(),
		Schema:  schema,
		Mode:    mode,
		Dynamic: dynamic,
	}
}

// VDRFunc returns the device's tuple-scoring function under its estimation
// mode and local knowledge.
func (d *Device) VDRFunc() localsky.VDRFunc {
	return VDRFunc(d.Mode, d.Schema, d.Rel, d.OverFactor)
}

// NewQuery mints a fresh query originating at this device, incrementing the
// byte counter of §3.4.
func (d *Device) NewQuery(pos tuple.Point, dist float64) Query {
	return Query{Org: d.ID, Cnt: uint8(d.nextCnt.Add(1)), Pos: pos, D: dist}
}

// Originate runs the originator's side of query issue: the local skyline
// SK_org is computed, the max-VDR filtering tuple is selected from it, and
// the query to broadcast is returned together with the initial partial
// result (§3.1-3.2). With NumFilters > 1, additional filters chosen by
// greedy dominating-region coverage travel in Query.Extra.
func (d *Device) Originate(pos tuple.Point, dist float64) (Query, localsky.Result) {
	q := d.NewQuery(pos, dist)
	d.Log.FirstTime(q.Key())
	sc := localsky.GetScratch()
	res := d.evaluate(d.Rel, localsky.Query{Pos: q.Pos, D: q.D}, nil, sc)
	res.Skyline = localsky.CloneTuples(res.Skyline)
	localsky.PutScratch(sc)
	q = q.WithFilter(res.Filter, res.FilterVDR)
	if d.NumFilters > 1 && len(res.Skyline) > 1 {
		hi := VDRBounds(d.Mode, d.Schema, d.Rel, d.OverFactor)
		filters := SelectFilters(res.Skyline, hi, d.NumFilters, 0, int64(q.Cnt)+int64(d.ID)<<8)
		// filters[0] is the max-VDR tuple, already the primary.
		if len(filters) > 1 {
			q.Extra = filters[1:]
		}
	}
	d.observeOriginate(res.Unreduced)
	return q, res
}

// Process runs one remote device's side of query handling: the Figure 4
// local skyline with the query's filtering tuple. The returned result's
// Filter field carries the filter this device should forward — the possibly
// updated one under the dynamic strategy, the incoming one otherwise.
//
// Result.Unreduced is always the true |SK_i| (Formula 1 needs it): when the
// filter pre-check skips the scan entirely, a shadow unfiltered evaluation
// supplies the size for accounting. Result.Stats reflects only the work the
// protocol actually performed.
func (d *Device) Process(q Query) localsky.Result {
	sc := localsky.GetScratch()
	rel, lq := d.Rel, localsky.Query{Pos: q.Pos, D: q.D}
	res := d.evaluate(rel, lq, q.Filter, sc)
	if res.Stats.SkippedFilter {
		// The skipped scan produced no skyline, so reusing sc for the
		// shadow evaluation clobbers nothing.
		if lq.Covers(rel.MBR()) {
			res.Unreduced = len(d.scanOf(rel, sc).slots)
		} else {
			res.Unreduced = localsky.HybridSkylineScratch(rel, lq, nil, nil, sc).Unreduced
		}
	}
	// Callers retain and merge results, so detach the skyline from the
	// scratch before recycling it; the filter is already detached.
	res.Skyline = localsky.CloneTuples(res.Skyline)
	localsky.PutScratch(sc)
	if len(q.Extra) > 0 {
		res.Skyline = ApplyFilters(res.Skyline, q.Extra)
	}
	if !d.Dynamic {
		res.Filter = q.Filter
		res.FilterVDR = q.FilterVDR
	}
	d.observeProcess(res.Unreduced, res.Unreduced-len(res.Skyline), FilterReplaced(q, res))
	return res
}

// evaluate is localsky.HybridSkylineScratch over rel (the device's relation,
// read once by the caller) under the device's estimation mode, skipping the
// scan when its outcome is already known.
//
// A query that covers the relation — unconstrained, or reaching the farthest
// corner of its MBR — rejects no tuple on range, so its scan accepts the same
// slots with the same ID comparisons whatever its position, distance or
// filter. The first such query runs the scan and the device keeps the slots;
// later ones replay the counters (Stats feed device.Time, so simulated
// seconds must not notice) and go straight to filter application. The
// pre-checks stay live and first. Any other query takes the full evaluation.
func (d *Device) evaluate(rel *storage.Hybrid, q localsky.Query, flt *tuple.Tuple, sc *localsky.Scratch) localsky.Result {
	vdr := VDRFunc(d.Mode, d.Schema, rel, d.OverFactor)
	if !q.Covers(rel.MBR()) {
		return localsky.HybridSkylineScratch(rel, q, flt, vdr, sc)
	}
	res, skipped := localsky.Precheck(rel, q, flt, vdr)
	if skipped {
		return res
	}
	m := d.scanOf(rel, sc)
	n := rel.Len()
	res.Stats.Scanned, res.Stats.InRange, res.Stats.IDCmp = n, n, m.idCmp
	if !q.Unconstrained() {
		res.Stats.DistChecks = n
	}
	localsky.Reduce(rel, m.slots, vdr, sc, &res)
	return res
}

// scanOf returns the memoized scan of rel, running it through sc when the
// device holds none or holds one of a relation since swapped out of Rel.
// Process runs outside the peer lock on the live tier, so the memo is
// published atomically; two racing first queries both scan and either
// result stands.
func (d *Device) scanOf(rel *storage.Hybrid, sc *localsky.Scratch) *scanMemo {
	if m := d.scan.Load(); m != nil && m.rel == rel {
		return m
	}
	slots, idCmp := localsky.ScanAll(rel, sc)
	m := &scanMemo{rel: rel, slots: make([]int32, len(slots)), idCmp: idCmp}
	for i, s := range slots {
		m.slots[i] = int32(s)
	}
	d.scan.Store(m)
	return m
}

// FilterReplaced reports whether processing q produced a dynamic filter
// upgrade (§3.4): the result forwards a filter whose VDR strictly beats the
// one the query arrived with.
func FilterReplaced(q Query, res localsky.Result) bool {
	return res.Filter != nil && res.FilterVDR > q.FilterVDR
}

// Forwardable returns the query to send onward from this device after
// Process produced res: under the dynamic strategy the filter may have been
// upgraded.
func Forwardable(q Query, res localsky.Result) Query {
	return q.WithFilter(res.Filter, res.FilterVDR)
}

// DRRAccumulator accumulates the sums of Formula 1 over the non-originator
// devices a query reached.
type DRRAccumulator struct {
	// Reduced is Σ |SK'_i|.
	Reduced int
	// Unreduced is Σ |SK_i|.
	Unreduced int
	// Devices is the number of non-originator devices that processed the
	// query.
	Devices int
	// Filters is the total number of filtering tuples shipped to those
	// devices — Formula 1's per-device cost term, which the multi-filter
	// extension raises from one to k.
	Filters int
}

// Observe records one non-originator device's outcome under the paper's
// single-filter scheme (one filtering tuple shipped).
func (a *DRRAccumulator) Observe(res localsky.Result) {
	a.ObserveFilters(res, 1)
}

// ObserveFilters records one non-originator device's outcome for a query
// that shipped the given number of filtering tuples.
func (a *DRRAccumulator) ObserveFilters(res localsky.Result, filters int) {
	a.Reduced += len(res.Skyline)
	a.Unreduced += res.Unreduced
	a.Devices++
	a.Filters += filters
}

// Add merges another accumulator.
func (a *DRRAccumulator) Add(o DRRAccumulator) {
	a.Reduced += o.Reduced
	a.Unreduced += o.Unreduced
	a.Devices += o.Devices
	a.Filters += o.Filters
}

// DRR evaluates Formula 1: Σ(|SK_i| − |SK'_i| − k) / Σ|SK_i|, where k is
// the number of filtering tuples each device received (1 in the paper). It
// returns 0 when no tuples were at stake.
func (a DRRAccumulator) DRR() float64 {
	if a.Unreduced == 0 {
		return 0
	}
	return float64(a.Unreduced-a.Reduced-a.Filters) / float64(a.Unreduced)
}
