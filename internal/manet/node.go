package manet

import (
	"slices"

	"manetskyline/internal/core"
	"manetskyline/internal/localsky"
	"manetskyline/internal/radio"
	"manetskyline/internal/telemetry"
	"manetskyline/internal/tuple"
)

// node is one simulated mobile device: protocol state machine over the
// AODV/radio substrate, local processing through the core.Device, and CPU
// time consumption through the cost model.
type node struct {
	sc     *scenario
	id     radio.NodeID
	dev    *core.Device
	tuples []tuple.Tuple // the device's raw local relation, for verification

	// busy marks a query in progress as originator (§5.2.1: a device does
	// not issue a new query while one is outstanding).
	busy bool

	// fl runs BF and SF; the node is its core.FloodIO.
	fl core.Flood
	df map[core.QueryKey]*dfState
}

// dfState is a device's per-query state under depth-first forwarding.
type dfState struct {
	q      core.Query
	parent radio.NodeID   // -1 at the originator
	tried  []radio.NodeID // ascending: the parent and every neighbour handed the query
	merged []tuple.Tuple
	flt    *tuple.Tuple
	fltVDR float64

	waitingAck   bool
	waitingChild radio.NodeID // -1 when none
	gen          int          // invalidates stale timers
	done         bool

	attempts     int
	retryPending bool // a traversal restart is scheduled (gen changes during
	// the resumed walk, so a generation guard cannot protect the retry timer)
}

// maybeIssue fires at a scheduled issue time; a device with a query in
// progress skips the opportunity.
func (n *node) maybeIssue() {
	if n.busy {
		n.sc.skipped++
		n.sc.met.QueriesSkipped.Inc()
		return
	}
	// A crashed or paused device cannot originate.
	if n.sc.inj != nil && n.sc.inj.NodeDown(n.id, n.sc.eng.Now()) {
		n.sc.skipped++
		n.sc.met.QueriesSkipped.Inc()
		return
	}
	n.busy = true
	pos := n.sc.med.PosOf(n.id)
	q, res := n.dev.Originate(pos, n.sc.p.QueryDist)
	n.sc.newMetrics(q)
	n.sc.met.QueriesIssued.Inc()
	if d := n.sc.p.QueryDeadline; d > 0 {
		key := q.Key()
		n.sc.eng.Schedule(d, func() { n.deadlineExpire(key) })
	}
	n.sc.spans.Begin(spanKey(q.Key()), n.sc.eng.Now())
	// Local processing consumes simulated device time before anything is
	// transmitted.
	n.sc.eng.Schedule(n.sc.p.Cost.Time(res.Stats), func() {
		if n.sc.p.Strategy == DepthFirst {
			n.dfStart(q, res)
			return
		}
		if qm := n.sc.metrics[q.Key()]; qm != nil && qm.Done {
			return // the deadline fired during local processing
		}
		n.fl.Originate(q, res.Skyline, core.Quorum(n.sc.p.BFQuorum, len(n.sc.nodes)),
			n.sc.p.Strategy == SamplingFilter, n)
	})
}

// Complete closes out an originator's query: its quorum answered (the
// flood machine's Complete), its DF traversal ended, or its deadline fired.
func (n *node) Complete(key core.QueryKey, merged []tuple.Tuple) {
	m := n.sc.metrics[key]
	if m == nil || m.Done {
		return
	}
	m.Done = true
	m.ResponseTime = n.sc.eng.Now() - m.Issued
	m.ResultTuples = len(merged)
	n.sc.met.QueriesCompleted.Inc()
	n.sc.met.ResponseTime.Observe(m.ResponseTime)
	if m.Partial {
		n.sc.spans.MarkPartial(spanKey(key))
	}
	n.sc.spans.Complete(spanKey(key), n.sc.eng.Now(), len(merged))
	if n.sc.p.KeepSkylines {
		m.Skyline = merged
	}
	n.busy = false
}

// deadlineExpire finalizes a still-open query when its deadline fires: the
// originator keeps whatever it merged so far and the result is flagged
// partial. Queries that already completed are untouched.
func (n *node) deadlineExpire(key core.QueryKey) {
	m := n.sc.metrics[key]
	if m == nil || m.Done {
		return
	}
	m.Partial = true
	n.sc.met.QueriesPartial.Inc()
	var merged []tuple.Tuple
	if st := n.df[key]; st != nil {
		merged = st.merged
		st.done = true
		st.gen++ // invalidate ack/subtree timers of the abandoned traversal
	} else {
		merged = n.fl.Expire(key)
	}
	n.Complete(key, merged)
}

// recordRetry accounts one originator re-issue across the metric surfaces.
func (n *node) recordRetry(key core.QueryKey, attempt int) {
	if m := n.sc.metrics[key]; m != nil {
		m.Retries = attempt
	}
	n.sc.met.QueryRetries.Inc()
	n.sc.spans.Observe(spanKey(key), telemetry.Stage{
		T: n.sc.eng.Now(), Kind: telemetry.StageRetry, Device: int32(n.dev.ID),
	})
}

// --- breadth-first and sampling-filter: the core.FloodIO driver ------------

// Process runs the local evaluation the flood machine asks for and hands the
// result back once the cost model's processing time has passed.
func (n *node) Process(m *core.Msg) {
	res := n.dev.Process(m.Q)
	n.sc.eng.Schedule(n.sc.p.Cost.Time(res.Stats), func() {
		if m.Kind == core.MsgQuery {
			n.sc.observe(m.Key(), processAcc(m.Q, res), res.Stats.SkippedMBR)
		}
		n.observeProcess(m.Q, res, m.Hops)
		n.fl.Processed(m, res, n)
	})
}

// Send returns a reply to the originator over AODV (multi-hop).
func (n *node) Send(m core.Msg) {
	if m.Kind == core.MsgSurvivors {
		n.sc.observe(m.Key(), m.Acc, false)
	}
	n.sc.net.Send(n.id, radio.NodeID(m.Q.Org), &floodMsg{Msg: m})
}

// Flood broadcasts one hop of a flood. With Params.FloodRoutes the frame
// carries the originator and hop count so receivers install reverse routes
// for their replies (see aodv.BroadcastLocalRouted); otherwise it is a
// plain local broadcast, as in the paper.
func (n *node) Flood(m core.Msg) {
	key := m.Key()
	switch {
	case m.Attempt > 0:
		n.recordRetry(key, m.Attempt)
	case m.Kind == core.MsgFilters && m.Hops == 1:
		// The originator's first filter flood: the set was just selected.
		n.sc.spans.Observe(spanKey(key), telemetry.Stage{
			T: n.sc.eng.Now(), Kind: telemetry.StageFilterSet,
			Device: int32(n.dev.ID), Tuples: len(m.Tuples),
		})
	}
	p := &floodMsg{Msg: m}
	var sent int
	if n.sc.p.FloodRoutes {
		sent = n.sc.net.BroadcastLocalRouted(n.id, radio.NodeID(key.Org), m.Hops, p)
	} else {
		sent = n.sc.net.BroadcastLocal(n.id, p)
	}
	n.sc.countQueryMessages(key, sent, p.SizeBytes())
}

// Arm schedules a flood timer: SF's sample wait or the retry back-off.
func (n *node) Arm(key core.QueryKey, t core.Timer, attempt int) {
	d := n.sc.p.sampleWait()
	if t == core.TimerRetry {
		d = n.sc.p.retryDelay(attempt)
	}
	n.sc.eng.Schedule(d, func() { n.fl.Fire(key, t, n) })
}

// Merged records a reply the originator folded in: a sample, or a result
// counted toward the quorum.
func (n *node) Merged(m *core.Msg, merged []tuple.Tuple) {
	key := m.Key()
	stage := telemetry.Stage{
		T: n.sc.eng.Now(), Kind: telemetry.StageResult,
		Device: int32(m.From), Tuples: len(m.Tuples), Hops: m.Hops,
	}
	if m.Kind == core.MsgSample {
		stage.Kind = telemetry.StageSample
		n.sc.spans.Observe(spanKey(key), stage)
		return
	}
	qm := n.sc.metrics[key]
	if qm == nil {
		return
	}
	qm.Results++
	qm.ResultTuples = len(merged)
	n.sc.spans.Observe(spanKey(key), stage)
	if n.sc.p.KeepSkylines {
		qm.Skyline = merged
	}
}

// observeProcess records the process (and, on a §3.4 dynamic upgrade, the
// filter-update) span stages for one Process outcome.
// hops is the flood depth (BF) or route length (DF) of the triggering
// message.
func (n *node) observeProcess(q core.Query, res localsky.Result, hops int) {
	key := q.Key()
	pruned := res.Unreduced - len(res.Skyline)
	n.sc.spans.Observe(spanKey(key), telemetry.Stage{
		T: n.sc.eng.Now(), Kind: telemetry.StageProcess,
		Device: int32(n.dev.ID), Tuples: len(res.Skyline),
		Hops: hops, Pruned: pruned,
	})
	if n.dev.Dynamic && core.FilterReplaced(q, res) {
		n.sc.spans.Observe(spanKey(key), telemetry.Stage{
			T: n.sc.eng.Now(), Kind: telemetry.StageFilterUpdate,
			Device: int32(n.dev.ID), Hops: hops,
		})
	}
}

// --- depth-first ------------------------------------------------------------

func (n *node) dfStart(q core.Query, res localsky.Result) {
	st := &dfState{
		q:            q,
		parent:       -1,
		merged:       res.Skyline,
		flt:          q.Filter,
		fltVDR:       q.FilterVDR,
		waitingChild: -1,
	}
	n.putDF(q.Key(), st)
	if qm := n.sc.metrics[q.Key()]; qm != nil && qm.Done {
		st.done = true // the deadline fired during local processing
		return
	}
	n.dfTryNext(st)
}

func (n *node) putDF(key core.QueryKey, st *dfState) {
	if n.df == nil {
		n.df = make(map[core.QueryKey]*dfState)
	}
	n.df[key] = st
}

// dfTryNext hands the query to the next untried neighbour, or returns the
// merged subtree result when none remain.
func (n *node) dfTryNext(st *dfState) {
	if st.done || st.waitingAck || st.waitingChild >= 0 {
		return
	}
	// The traversal visits neighbours in ascending ID order.
	next := n.sc.med.FirstNeighborExcept(n.id, st.tried)
	if next < 0 {
		n.dfFinish(st)
		return
	}
	i, _ := slices.BinarySearch(st.tried, next)
	st.tried = slices.Insert(st.tried, i, next)
	st.waitingAck = true
	st.gen++
	g := st.gen
	n.sc.net.Send(n.id, next, &dfQueryMsg{Q: st.q.WithFilter(st.flt, st.fltVDR)})
	n.sc.eng.Schedule(n.sc.p.AckTimeout, func() {
		if st.gen == g && st.waitingAck && !st.done {
			st.waitingAck = false
			n.dfTryNext(st)
		}
	})
}

// dfFinish returns the merged result up the reverse path (or completes the
// query at the originator). An originator with retry budget left restarts
// the traversal instead of completing: mobility and recovered nodes may have
// changed the reachable neighbourhood since the exhausted walk began.
func (n *node) dfFinish(st *dfState) {
	key := st.q.Key()
	if st.parent < 0 {
		qm := n.sc.metrics[key]
		if qm != nil && !qm.Done && st.attempts < n.sc.p.QueryRetries && !st.retryPending {
			st.attempts++
			st.retryPending = true
			n.sc.eng.Schedule(n.sc.p.retryDelay(st.attempts-1), func() {
				if st.done || !st.retryPending {
					return
				}
				st.retryPending = false
				if m := n.sc.metrics[key]; m == nil || m.Done {
					return
				}
				n.recordRetry(key, st.attempts)
				st.tried = st.tried[:0]
				n.dfTryNext(st)
			})
			return
		}
		if st.retryPending {
			// A straggler result re-entered the walk while a restart is
			// scheduled; let the restart decide.
			return
		}
		st.done = true
		n.Complete(key, st.merged)
		return
	}
	st.done = true
	n.sc.net.Send(n.id, st.parent, &dfResultMsg{
		Key: key, Tuples: st.merged, Filter: st.flt, FilterVDR: st.fltVDR,
	})
}

// dfHandleQuery runs one receiver's side of a DF hand-off. hops is the
// route length the hand-off travelled (usually 1: DF targets neighbours).
func (n *node) dfHandleQuery(from radio.NodeID, hops int, m *dfQueryMsg) {
	key := m.Q.Key()
	if !n.dev.FirstTime(key) {
		n.sc.net.Send(n.id, from, &dfAckMsg{Key: key, Accept: false})
		return
	}
	n.sc.net.Send(n.id, from, &dfAckMsg{Key: key, Accept: true})
	st := &dfState{
		q:            m.Q,
		parent:       from,
		tried:        []radio.NodeID{from},
		waitingChild: -1,
	}
	n.putDF(key, st)
	res := n.dev.Process(m.Q)
	n.sc.eng.Schedule(n.sc.p.Cost.Time(res.Stats), func() {
		n.sc.observe(key, processAcc(m.Q, res), res.Stats.SkippedMBR)
		n.observeProcess(m.Q, res, hops)
		st.merged = res.Skyline
		st.flt = res.Filter
		st.fltVDR = res.FilterVDR
		n.dfTryNext(st)
	})
}

// dfHandleAck resolves a pending hand-off: accepted children get a subtree
// timer; refusals move on immediately.
func (n *node) dfHandleAck(from radio.NodeID, m *dfAckMsg) {
	st := n.df[m.Key]
	if st == nil || st.done || !st.waitingAck {
		return
	}
	st.waitingAck = false
	st.gen++
	if !m.Accept {
		n.dfTryNext(st)
		return
	}
	st.waitingChild = from
	g := st.gen
	n.sc.eng.Schedule(n.sc.p.SubtreeTimeout, func() {
		if st.gen == g && st.waitingChild == from && !st.done {
			st.waitingChild = -1
			n.dfTryNext(st)
		}
	})
}

// dfHandleResult merges a child's subtree result and continues with the
// remaining neighbours. hops is the route length the result travelled.
func (n *node) dfHandleResult(from radio.NodeID, hops int, m *dfResultMsg) {
	st := n.df[m.Key]
	if st == nil {
		return
	}
	st.merged = core.Merge(st.merged, m.Tuples)
	if st.parent < 0 {
		// Subtree results reaching the originator are DF's result arrivals.
		n.sc.spans.Observe(spanKey(m.Key), telemetry.Stage{
			T: n.sc.eng.Now(), Kind: telemetry.StageResult,
			Device: int32(from), Tuples: len(m.Tuples), Hops: hops,
		})
	}
	// Adopt the child's filter when it prunes harder (the backtracking
	// counterpart of the §3.4 dynamic update).
	if n.dev.Dynamic && m.Filter != nil && (st.flt == nil || m.FilterVDR > st.fltVDR) {
		st.flt = m.Filter
		st.fltVDR = m.FilterVDR
	}
	if st.done {
		// A straggler subtree returned after this node already reported:
		// at the originator the late data still improves the final answer;
		// elsewhere it is lost, as in any best-effort MANET protocol.
		if st.parent < 0 {
			if qm := n.sc.metrics[m.Key]; qm != nil {
				qm.ResultTuples = len(st.merged)
				if n.sc.p.KeepSkylines {
					qm.Skyline = st.merged
				}
			}
		}
		return
	}
	if st.waitingChild == from {
		st.waitingChild = -1
		st.gen++
	}
	n.dfTryNext(st)
}

// --- dispatch ---------------------------------------------------------------

// onData receives routed unicasts (results, DF control traffic). hops is
// the number of links the payload traversed, supplied by the routing layer.
func (n *node) onData(src radio.NodeID, hops int, payload radio.Payload) {
	switch m := payload.(type) {
	case *floodMsg:
		// A reply reports the route length it travelled. Routed delivery
		// hands a payload to its one destination, so this write is the
		// payload's last use.
		m.Hops = hops
		n.fl.Receive(&m.Msg, n)
	case *dfQueryMsg:
		n.dfHandleQuery(src, hops, m)
	case *dfAckMsg:
		n.dfHandleAck(src, m)
	case *dfResultMsg:
		n.dfHandleResult(src, hops, m)
	}
}

// onLocal receives one-hop broadcasts (the BF flood and both SF floods).
func (n *node) onLocal(from radio.NodeID, payload radio.Payload) {
	if m, ok := payload.(*floodMsg); ok {
		n.fl.Receive(&m.Msg, n)
	}
}
