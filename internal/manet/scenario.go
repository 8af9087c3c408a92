package manet

import (
	"sort"

	"manetskyline/internal/aodv"
	"manetskyline/internal/core"
	"manetskyline/internal/faults"
	"manetskyline/internal/gen"
	"manetskyline/internal/localsky"
	"manetskyline/internal/mobility"
	"manetskyline/internal/radio"
	"manetskyline/internal/sim"
	"manetskyline/internal/skyline"
	"manetskyline/internal/telemetry"
	"manetskyline/internal/tuple"
)

// QueryMetrics records one query's life in the simulation.
type QueryMetrics struct {
	// Key identifies the query; Org is its originator.
	Key core.QueryKey
	Org core.DeviceID
	// Pos and D are the query's spatial predicate (originator position at
	// issue time and distance of interest), kept so ground truth can be
	// recomputed.
	Pos tuple.Point
	D   float64
	// Issued is the simulated issue time.
	Issued float64
	// Done reports whether the query completed (BF: the quorum of results
	// arrived; DF: the originator exhausted its neighbours).
	Done bool
	// ResponseTime is the paper's §5.2.3 metric, valid when Done.
	ResponseTime float64
	// Results counts result messages the originator received (BF).
	Results int
	// Acc holds the Formula 1 sums over the devices that processed the
	// query with in-range data.
	Acc core.DRRAccumulator
	// Messages counts hop-level protocol transmissions attributed to this
	// query (query forwards, DF hand-offs, and result hops; DF's acks are
	// not counted), the Figure 12 metric; Bytes is their payload bytes.
	Messages int
	Bytes    int
	// ResultTuples is the final merged skyline size at the originator.
	ResultTuples int
	// Skyline is the final merged result (only with Params.KeepSkylines).
	Skyline []tuple.Tuple
	// Partial marks a query finalized by Params.QueryDeadline before its
	// normal completion condition.
	Partial bool
	// Retries counts originator re-issues under the retry policy.
	Retries int
	// Recall and Precision compare the query's result against the
	// centralized constrained skyline of the union of all device relations;
	// TruthTuples is that oracle's size. Set only with Params.Recall.
	Recall      float64
	Precision   float64
	TruthTuples int
}

// DRR is the query's data reduction rate.
func (m *QueryMetrics) DRR() float64 { return m.Acc.DRR() }

// Outcome aggregates one scenario run.
type Outcome struct {
	// Queries lists per-query metrics in issue order.
	Queries []*QueryMetrics
	// Radio and Aodv expose substrate counters (routing overhead etc.).
	Radio radio.Counters
	Aodv  aodv.Counters
	// SkippedIssues counts issue opportunities dropped because the device
	// still had a query in progress (§5.2.1).
	SkippedIssues int
	// Events is the number of simulation events executed.
	Events uint64
	// Transfers counts relation hand-offs under Params.Redistribute.
	Transfers int
	// DeviceTuples holds every device's local relation (as of simulation
	// end, after any redistribution), for verification; the union equals
	// the global relation regardless of hand-offs.
	DeviceTuples [][]tuple.Tuple
	// Spans is a snapshot of Params.Spans at the end of the run.
	Spans []*telemetry.Span
	// Faults holds the fault evaluator's drop/duplication tallies when a
	// fault plan was attached.
	Faults faults.Stats
	// RecallComputed reports that Params.Recall populated the per-query
	// Recall/Precision fields.
	RecallComputed bool
}

// PooledDRR evaluates Formula 1 over all queries' pooled sums.
func (o *Outcome) PooledDRR() float64 {
	var acc core.DRRAccumulator
	for _, q := range o.Queries {
		acc.Add(q.Acc)
	}
	return acc.DRR()
}

// MeanResponseTime averages response times over completed queries; ok is
// false when none completed.
func (o *Outcome) MeanResponseTime() (mean float64, ok bool) {
	n := 0
	for _, q := range o.Queries {
		if q.Done {
			mean += q.ResponseTime
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return mean / float64(n), true
}

// MeanMessages averages per-query message counts.
func (o *Outcome) MeanMessages() float64 {
	if len(o.Queries) == 0 {
		return 0
	}
	total := 0
	for _, q := range o.Queries {
		total += q.Messages
	}
	return float64(total) / float64(len(o.Queries))
}

// CompletionRate is the fraction of issued queries that completed.
func (o *Outcome) CompletionRate() float64 {
	if len(o.Queries) == 0 {
		return 0
	}
	done := 0
	for _, q := range o.Queries {
		if q.Done {
			done++
		}
	}
	return float64(done) / float64(len(o.Queries))
}

// MeanRecall averages per-query recall against the centralized oracle; ok
// is false when recall was not computed or no queries were issued.
func (o *Outcome) MeanRecall() (mean float64, ok bool) {
	if !o.RecallComputed || len(o.Queries) == 0 {
		return 0, false
	}
	for _, q := range o.Queries {
		mean += q.Recall
	}
	return mean / float64(len(o.Queries)), true
}

// MeanPrecision averages per-query precision against the centralized
// oracle; ok is false when recall accounting was off or no queries ran.
func (o *Outcome) MeanPrecision() (mean float64, ok bool) {
	if !o.RecallComputed || len(o.Queries) == 0 {
		return 0, false
	}
	for _, q := range o.Queries {
		mean += q.Precision
	}
	return mean / float64(len(o.Queries)), true
}

// scenario wires the substrates together for one run.
type scenario struct {
	p   Params
	eng *sim.Engine
	med *radio.Medium
	net *aodv.Network
	// nodes is a value slice sized once at build: device bookkeeping lives
	// in one contiguous allocation indexed by NodeID instead of m separate
	// heap objects, which is what lets 30k-device scenarios fit in cache
	// and the GC skip per-node tracing.
	nodes   []node
	metrics map[core.QueryKey]*QueryMetrics
	order   []core.QueryKey
	// done lists completed queries in completion order.
	done    []*QueryMetrics
	skipped int
	redist  redistributionState
	inj     *faults.Eval

	spans *telemetry.SpanLog
	// except is Next's reusable copy of a walk's tried list.
	except []radio.NodeID

	// DF's ack and subtree timers fire a fixed delay after they are armed
	// and are mostly cancelled, so each has a lane; dfKind runs one.
	ackLane, subtreeLane *sim.Lane
	dfKind               sim.Kind
}

// dfLane returns the lane of DF timer t.
func (sc *scenario) dfLane(t core.Timer) *sim.Lane {
	if t == core.TimerAck {
		return sc.ackLane
	}
	return sc.subtreeLane
}

// fireDF runs a DF timer from its lane.
func (sc *scenario) fireDF(a uint32, b uint64) {
	id, key, t, token := unpackDF(a, b)
	n := &sc.nodes[id]
	n.fl.Fire(key, t, token, n)
}

// spanKey converts a query key to the telemetry span key.
func spanKey(k core.QueryKey) telemetry.SpanKey {
	return telemetry.SpanKey{Org: int32(k.Org), Cnt: int32(k.Cnt)}
}

// Run executes one scenario and returns its outcome.
func Run(p Params) *Outcome {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if p.Recall {
		p.KeepSkylines = true
	}
	sc := build(p)
	sc.eng.Run(p.SimTime)

	out := &Outcome{
		Radio:         sc.med.Counters,
		Aodv:          sc.net.Counters,
		SkippedIssues: sc.skipped,
		Events:        sc.eng.Executed(),
		Transfers:     sc.redist.transfers,
	}
	for _, k := range sc.order {
		out.Queries = append(out.Queries, sc.metrics[k])
	}
	for i := range sc.nodes {
		out.DeviceTuples = append(out.DeviceTuples, sc.nodes[i].tuples)
	}
	if sc.inj != nil {
		out.Faults = sc.inj.Stats
	}
	if p.Recall {
		sc.computeRecall(out)
	}
	out.Spans = sc.spans.Spans()
	publish(p.Metrics, out, sc.done)
	return out
}

// build constructs the devices, network, and query schedule.
func build(p Params) *scenario {
	eng := sim.NewEngine(p.Seed)
	// Declare the mobility speed bound to the radio's spatial grid unless
	// the caller pinned one: static scenarios build the grid once, mobile
	// ones rebuild only when accumulated drift could change a cell. Neighbor
	// sets are exact in every mode, so this never perturbs a run.
	rcfg := p.Radio
	if rcfg.MaxSpeed == 0 {
		if p.Static {
			rcfg.MaxSpeed = -1
		} else {
			rcfg.MaxSpeed = p.Mobility.SpeedMax
		}
	}
	med := radio.New(eng, rcfg)
	net := aodv.New(eng, med, p.Aodv)
	sc := &scenario{
		p:       p,
		eng:     eng,
		med:     med,
		net:     net,
		metrics: make(map[core.QueryKey]*QueryMetrics),
		spans:   p.Spans,
	}
	sc.ackLane, sc.subtreeLane = eng.NewLane(p.AckTimeout), eng.NewLane(p.SubtreeTimeout)
	sc.dfKind = eng.RegisterKind(sc.fireDF)
	// Fault schedule: the evaluator draws from its own RNG and every hook is
	// gated on its presence, so fault-free runs stay byte-identical. An
	// arbitrary odd constant decorrelates the fault stream from the
	// scenario stream that shares the same user-facing seed.
	if p.Faults != nil && !p.Faults.Empty() {
		inj := faults.NewEval(p.Faults, p.Seed*0x9E3779B9+0x1D872B41)
		med.SetFaults(inj)
		sc.inj = inj
	}
	// The devices' core_* metrics are live; the simulator's own counts go
	// to the registry when the run ends (see publish). Instrumentation only
	// reads simulation state, so instrumented runs stay bit-identical.
	devMet := core.NewMetrics(p.Metrics, p.Mode)
	// Hop-level message attribution: query hand-offs and result returns
	// count toward Figure 12's metric; the ack/nack control chatter of this
	// implementation's DF failure handling does not (the paper's protocol
	// has no acks).
	net.ForwardHook = func(payload radio.Payload) {
		fm, ok := payload.(*floodMsg)
		if !ok || fm.Kind == core.MsgAck {
			return
		}
		sc.countQueryMessages(fm.Key(), 1, fm.SizeBytes())
	}

	// Dataset and partitioning.
	dcfg := gen.DefaultConfig(p.GlobalN, p.Dim, p.Dist, p.Seed)
	dcfg.Space = p.Space
	data := gen.Generate(dcfg)
	parts := gen.OverlapPartition(data, p.Grid, p.Space, p.Overlap, p.Seed+1)
	schema := dcfg.Schema()

	var field *mobility.Field
	if p.scalePath && !p.Static {
		field = mobility.NewField(p.Mobility)
	}
	flood := core.FloodOptions{
		Retries: p.QueryRetries, SampleK: p.sampleK(), SampleTTL: p.sampleTTL(), FilterK: p.filterK(),
	}
	rng := eng.RNG()
	sc.nodes = make([]node, len(parts))
	for i, part := range parts {
		dev := core.NewDevice(core.DeviceID(i), part, schema, p.Mode, p.Dynamic)
		dev.OverFactor = p.OverFactor
		dev.NumFilters = p.NumFilters
		dev.Met = devMet

		// Each device starts at the centre of its data's grid cell.
		start := gen.CellRect(i/p.Grid, i%p.Grid, p.Grid, p.Space).Center()
		var mob mobility.Model
		switch {
		case p.Static:
			mob = mobility.Static(start)
		case field != nil:
			field.Add(start, p.Seed+int64(i)*7919)
			mob = field.Model(i)
		default:
			mob = mobility.NewWaypointAt(p.Mobility, start, p.Seed+int64(i)*7919)
		}

		n := &sc.nodes[i]
		n.sc = sc
		n.dev = dev
		n.fl = core.Flood{Dev: dev, Opt: flood}
		n.tuples = part
		n.id = net.AddNode(mob, n.onData, n.onLocal)
	}

	if p.Redistribute {
		sc.scheduleRedistribution()
	}

	// Query schedule: each device issues Min..Max queries at random times
	// in the first 90% of the simulation, skipping issues while a query is
	// in progress. Params.originators caps how many devices draw schedules
	// at all — the scale preset's way of measuring a handful of queries
	// over a 30k-device substrate.
	issuers := len(sc.nodes)
	if p.originators > 0 && p.originators < issuers {
		issuers = p.originators
	}
	for ni := 0; ni < issuers; ni++ {
		n := &sc.nodes[ni]
		k := p.MinQueries
		if p.MaxQueries > p.MinQueries {
			k += rng.Intn(p.MaxQueries - p.MinQueries + 1)
		}
		times := make([]float64, k)
		for i := range times {
			times[i] = rng.Float64() * p.SimTime * 0.9
		}
		sort.Float64s(times)
		for _, t := range times {
			eng.At(t, n.maybeIssue)
		}
	}
	return sc
}

// newMetrics registers a fresh query.
func (sc *scenario) newMetrics(q core.Query) *QueryMetrics {
	m := &QueryMetrics{Key: q.Key(), Org: q.Org, Pos: q.Pos, D: q.D, Issued: sc.eng.Now()}
	sc.metrics[q.Key()] = m
	sc.order = append(sc.order, q.Key())
	return m
}

// observe records one non-originator device's processing outcome for
// Formula 1. Only devices that actually held in-range data participate:
// devices rejected by the MBR pre-check, and devices whose constrained
// local skyline was empty, contribute nothing to the reduction sums —
// counting their shipped filter as pure cost would push the rate negative
// for small query distances, which is not what the paper's Figures 8-9
// measure.
func (sc *scenario) observe(key core.QueryKey, acc core.DRRAccumulator, skippedMBR bool) {
	m := sc.metrics[key]
	if m == nil || skippedMBR || acc.Unreduced == 0 {
		return
	}
	m.Acc.Add(acc)
}

// processAcc is one device's Formula 1 contribution for processing q.
func processAcc(q core.Query, res localsky.Result) core.DRRAccumulator {
	return core.DRRAccumulator{Reduced: len(res.Skyline), Unreduced: res.Unreduced, Devices: 1, Filters: q.NumFilters()}
}

// countQueryMessages attributes query-forwarding messages to a query; a
// breadth-first broadcast counts once per addressed receiver (every
// reception consumes air time and receiver energy), matching the paper's
// Figure 12 semantics where flooding's cost grows with network density.
// sizeBytes is the per-transmission payload size feeding the bytes ledger.
func (sc *scenario) countQueryMessages(key core.QueryKey, n, sizeBytes int) {
	if m := sc.metrics[key]; m != nil {
		m.Messages += n
		m.Bytes += n * sizeBytes
	}
}

// computeRecall runs the centralized oracle after the simulation: for every
// query, the constrained skyline of the site-deduplicated union of all
// device relations is the ground truth, and skyline.Score rates the
// query's merged result against it.
func (sc *scenario) computeRecall(out *Outcome) {
	union := skyline.UnionBySite(out.DeviceTuples...)
	for _, qm := range out.Queries {
		truth := skyline.Constrained(union, qm.Pos, qm.D)
		qm.TruthTuples = len(truth)
		qm.Recall, qm.Precision = skyline.Score(truth, qm.Skyline)
		// Per-query timelines carry their oracle score.
		sc.spans.SetRecall(spanKey(qm.Key), qm.Recall)
	}
	out.RecallComputed = true
}
