package manet

import (
	"manetskyline/internal/core"
	"manetskyline/internal/localsky"
	"manetskyline/internal/radio"
	"manetskyline/internal/sim"
	"manetskyline/internal/telemetry"
	"manetskyline/internal/tuple"
)

// node is one simulated mobile device: the flood machine's driver over the
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

	// fl runs the query protocol; the node is its core.FloodIO.
	fl core.Flood
	// reflooding marks the flood that follows a BF or SF re-issue.
	reflooding bool
	// dfTimers holds the DF timer last armed for each query (see armDF).
	dfTimers map[core.QueryKey]dfTimer
}

// maybeIssue fires at a scheduled issue time; a device with a query in
// progress skips the opportunity.
func (n *node) maybeIssue() {
	if n.busy {
		n.sc.skipped++
		return
	}
	// A crashed or paused device cannot originate.
	if n.sc.inj != nil && n.sc.inj.NodeDown(int(n.id), n.sc.eng.Now()) {
		n.sc.skipped++
		return
	}
	n.busy = true
	pos := n.sc.med.PosOf(n.id)
	q, res := n.dev.Originate(pos, n.sc.p.QueryDist)
	n.sc.newMetrics(q)
	if d := n.sc.p.QueryDeadline; d > 0 {
		key := q.Key()
		n.sc.eng.Schedule(d, func() { n.deadlineExpire(key) })
	}
	n.sc.spans.Begin(spanKey(q.Key()), n.sc.eng.Now())
	// Local processing consumes simulated device time before anything is
	// transmitted.
	n.sc.eng.Schedule(n.sc.p.Cost.Time(res.Stats), func() {
		if qm := n.sc.metrics[q.Key()]; qm != nil && qm.Done {
			return // the deadline fired during local processing
		}
		n.fl.Originate(q, res.Skyline, core.Quorum(n.sc.p.BFQuorum, len(n.sc.nodes)), n.sc.p.Strategy, n)
	})
}

// Complete closes out an originator's query: the flood machine completed it
// (BF and SF: its quorum answered; DF: its walk ended), or its deadline
// fired.
func (n *node) Complete(key core.QueryKey, merged []tuple.Tuple) {
	m := n.sc.metrics[key]
	if m == nil || m.Done {
		return
	}
	m.Done = true
	m.ResponseTime = n.sc.eng.Now() - m.Issued
	m.ResultTuples = len(merged)
	n.sc.done = append(n.sc.done, m)
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
	n.Complete(key, n.fl.Expire(key))
}

// --- the core.FloodIO driver ------------------------------------------------

// Reissued accounts one originator re-issue across the metric surfaces. A
// BF or SF re-issue floods at once, and Flood does not take a repeated
// filter flood for a freshly selected filter set.
func (n *node) Reissued(key core.QueryKey, attempt int) {
	n.reflooding = true
	if m := n.sc.metrics[key]; m != nil {
		m.Retries = attempt
	}
	n.sc.spans.Observe(spanKey(key), telemetry.Stage{
		T: n.sc.eng.Now(), Kind: telemetry.StageRetry, Device: int32(n.dev.ID),
	})
}

// Process runs the local evaluation the flood machine asks for and hands the
// result back once the cost model's processing time has passed.
func (n *node) Process(m *core.Msg) {
	res := n.dev.Process(m.Q)
	n.sc.eng.Schedule(n.sc.p.Cost.Time(res.Stats), func() {
		if m.Kind == core.MsgQuery || m.Kind == core.MsgHandoff {
			n.sc.observe(m.Key(), processAcc(m.Q, res), res.Stats.SkippedMBR)
		}
		n.observeProcess(m.Q, res, m.Hops)
		n.fl.Processed(m, res, n)
	})
}

// Send unicasts a reply to the originator, or a DF message to a neighbour
// or the DF parent, over AODV (multi-hop).
func (n *node) Send(to core.DeviceID, m core.Msg) {
	if m.Kind == core.MsgSurvivors {
		n.sc.observe(m.Key(), m.Acc, false)
	}
	n.sc.net.Send(n.id, radio.NodeID(to), &floodMsg{Msg: m})
}

// Next picks DF's next hop: the smallest-ID in-range device not yet tried.
func (n *node) Next(tried []core.DeviceID) core.DeviceID {
	except := n.sc.except[:0]
	for _, id := range tried {
		except = append(except, radio.NodeID(id))
	}
	n.sc.except = except
	return core.DeviceID(n.sc.med.FirstNeighborExcept(n.id, except))
}

// Flood broadcasts one hop of a flood. On the scale path the frame
// carries the originator and hop count so receivers install reverse routes
// for their replies (see aodv.BroadcastLocalRouted); otherwise it is a
// plain local broadcast, as in the paper.
func (n *node) Flood(m core.Msg) {
	key := m.Key()
	if m.Kind == core.MsgFilters && m.Hops == 1 && !n.reflooding {
		// The originator's first filter flood: the set was just selected.
		n.sc.spans.Observe(spanKey(key), telemetry.Stage{
			T: n.sc.eng.Now(), Kind: telemetry.StageFilterSet,
			Device: int32(n.dev.ID), Tuples: len(m.Tuples),
		})
	}
	n.reflooding = false
	p := &floodMsg{Msg: m}
	var sent int
	if n.sc.p.scalePath {
		sent = n.sc.net.BroadcastLocalRouted(n.id, radio.NodeID(key.Org), m.Hops, p)
	} else {
		sent = n.sc.net.BroadcastLocal(n.id, p)
	}
	n.sc.countQueryMessages(key, sent, p.SizeBytes())
}

// Arm schedules a protocol timer: SF's sample wait, the retry back-off, or
// DF's ack and subtree timeouts.
func (n *node) Arm(key core.QueryKey, t core.Timer, arg int) {
	var d float64
	switch t {
	case core.TimerSampleWait:
		d = n.sc.p.sampleWait()
	case core.TimerRetry:
		d = n.sc.p.retryDelay(arg)
	case core.TimerAck, core.TimerSubtree:
		n.armDF(key, t, arg)
		return
	}
	n.sc.eng.Schedule(d, func() { n.fl.Fire(key, t, arg, n) })
}

// dfTimer is the one DF timer a node last armed for a query.
type dfTimer struct {
	t core.Timer
	h sim.Handle
}

// armDF puts a DF ack or subtree timer on its lane and cancels the node's
// previous DF timer of the same query. core.Flood keeps one live token per
// walk, and step and ack overwrite it before they call Arm, so the
// cancelled timer could only have fired as a no-op: only the walk's
// current token matches on Fire, and tokens are never reused.
func (n *node) armDF(key core.QueryKey, t core.Timer, token int) {
	if n.dfTimers == nil {
		n.dfTimers = make(map[core.QueryKey]dfTimer)
	}
	if old, ok := n.dfTimers[key]; ok {
		n.sc.dfLane(old.t).Cancel(old.h)
	}
	a, b := packDF(n.id, key, t, token)
	n.dfTimers[key] = dfTimer{t: t, h: n.sc.dfLane(t).Arm(n.sc.dfKind, a, b)}
}

// packDF packs a DF timer into a lane event's two argument words: the node
// and the timer in a, the query key and the token in b. unpackDF reverses
// it.
func packDF(id radio.NodeID, key core.QueryKey, t core.Timer, token int) (uint32, uint64) {
	if uint(id) >= 1<<24 || uint(key.Org) >= 1<<24 || uint(token) >= 1<<32 {
		panic("manet: DF timer does not fit a lane event")
	}
	return uint32(id) | uint32(t)<<24, uint64(key.Org)<<40 | uint64(key.Cnt)<<32 | uint64(token)
}

func unpackDF(a uint32, b uint64) (id radio.NodeID, key core.QueryKey, t core.Timer, token int) {
	key = core.QueryKey{Org: core.DeviceID(b >> 40), Cnt: uint8(b >> 32)}
	return radio.NodeID(a & (1<<24 - 1)), key, core.Timer(a >> 24), int(uint32(b))
}

// Merged records a reply the originator folded in: a sample, a result
// counted toward the quorum, or a DF subtree result.
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
	n.sc.spans.Observe(spanKey(key), stage)
	if m.Kind == core.MsgSubtree {
		// Complete records the walk's answer; only a straggler that
		// arrives after it updates the record.
		if !qm.Done {
			return
		}
	} else {
		qm.Results++
	}
	qm.ResultTuples = len(merged)
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

// --- dispatch ---------------------------------------------------------------

// onData receives routed unicasts (replies and DF's messages). hops is the
// number of links the payload traversed, supplied by the routing layer.
func (n *node) onData(_ radio.NodeID, hops int, payload radio.Payload) {
	if m, ok := payload.(*floodMsg); ok {
		// A message reports the route length it travelled. Routed delivery
		// hands a payload to its one destination, so this write is the
		// payload's last use.
		m.Hops = hops
		n.fl.Receive(&m.Msg, n)
	}
}

// onLocal receives one-hop broadcasts (the BF flood and both SF floods).
func (n *node) onLocal(from radio.NodeID, payload radio.Payload) {
	if m, ok := payload.(*floodMsg); ok {
		n.fl.Receive(&m.Msg, n)
	}
}
