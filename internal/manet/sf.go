package manet

import (
	"manetskyline/internal/core"
	"manetskyline/internal/localsky"
	"manetskyline/internal/radio"
	"manetskyline/internal/skyline"
	"manetskyline/internal/telemetry"
	"manetskyline/internal/tuple"
)

// This file implements the SF (sampling-filter) strategy, the
// communication-optimal third forwarding mode beside the paper's BF and DF
// (Zhang & Zhang, arXiv:1611.00423): instead of shipping every device's
// reduced local skyline to the originator, SF spends one cheap sampling
// round to learn a strong filter set first.
//
//	phase 0 (sample):  the originator broadcasts a bare query with a small
//	                   TTL (default one hop — the sampling round stays off
//	                   the flood budget); every receiver computes its full
//	                   constrained local skyline and returns a seeded
//	                   deterministic sample of it.
//	phase 1 (collect): after SampleWait, the originator selects FilterK
//	                   tuples from everything collected so far by greedy
//	                   dominating-region coverage (internal/skyline) and
//	                   floods them together with the query spec — SF's one
//	                   full flood, which both disseminates the query to
//	                   devices beyond the sampling TTL and arms them with
//	                   the filter set. Devices return only the tuples that
//	                   survive it.
//
// Every filter is a real in-range tuple the originator holds, so fault-free
// the merged result is exactly the centralized constrained skyline, while
// on the wire SF replaces BF's (query + own filter + VDR score) flood with
// a (query + k attribute-only filters) flood and shrinks the returned
// results to near-empty survivor messages.

// sfOrigState is the originator's state for one SF query.
type sfOrigState struct {
	q      core.Query // bare query: no filter travels with SF floods
	merged []tuple.Tuple
	// filters is the broadcast filter set, fixed when phase flips to 1.
	filters []tuple.Tuple
	quorum  int
	from    senderSet // survivor senders counted toward the quorum
	// phase is 0 while sampling, 1 while collecting survivors.
	phase    int
	attempts int
}

// sfDevState is a non-originator device's state for one SF query: the full
// local skyline computed in the sampling round, kept for the collect phase.
type sfDevState struct {
	skyline   []tuple.Tuple
	unreduced int
	sampled   int  // tuples volunteered in the sampling round
	replied   bool // survivors already sent (collect-phase dedup)
}

// sfSeed derives the filter-selection seed from the query key, mirroring
// the multi-filter extension's per-query determinism.
func sfSeed(key core.QueryKey) int64 {
	return int64(key.Cnt) + int64(key.Org)<<8
}

// sfBare strips the filtering tuples Originate attached: SF floods carry no
// filter (devices must compute their full local skylines for the collect
// phase to prune against the stronger sampled filter set).
func sfBare(q core.Query) core.Query {
	q.Filter = nil
	q.FilterVDR = 0
	q.Extra = nil
	return q
}

// sfFlood broadcasts one hop of an SF flood, installing reverse routes when
// FloodRoutes is on (same contract as bfFlood).
func (n *node) sfFlood(org core.DeviceID, hops int, payload radio.Payload) int {
	if n.sc.p.FloodRoutes {
		return n.sc.net.BroadcastLocalRouted(n.id, radio.NodeID(org), hops, payload)
	}
	return n.sc.net.BroadcastLocal(n.id, payload)
}

// sfStart runs the originator's side of SF query issue: broadcast the
// TTL-limited sample request and arm the sample-collection deadline.
func (n *node) sfStart(q core.Query, res localsky.Result) {
	if n.sf == nil {
		n.sf = make(map[core.QueryKey]*sfOrigState)
	}
	bare := sfBare(q)
	key := bare.Key()
	st := &sfOrigState{q: bare, merged: res.Skyline, quorum: n.sc.quorum(),
		from: newSenderSet(len(n.sc.nodes))}
	n.sf[key] = st
	if qm := n.sc.metrics[key]; qm != nil && qm.Done {
		return // the deadline fired during local processing
	}
	if st.quorum == 0 {
		n.finishQuery(key, st.merged)
		return
	}
	first := &sfQueryMsg{Q: bare, SampleK: n.sc.p.sampleK(), TTL: n.sc.p.sampleTTL(), Hops: 1}
	n.sc.countQueryMessages(key, n.sfFlood(bare.Org, first.Hops, first), first.SizeBytes())
	n.sc.eng.Schedule(n.sc.p.sampleWait(), func() { n.sfBroadcastFilters(key, st) })
	n.sfScheduleRetry(key, st)
}

// sfScheduleRetry arms the next re-flood under the retry policy: whichever
// phase the query is in when the backoff elapses is flooded again, reaching
// devices the original flood missed (devices that saw it dedup as usual).
func (n *node) sfScheduleRetry(key core.QueryKey, st *sfOrigState) {
	if st.attempts >= n.sc.p.QueryRetries {
		return
	}
	n.sc.eng.Schedule(n.sc.p.retryDelay(st.attempts), func() {
		qm := n.sc.metrics[key]
		if qm == nil || qm.Done {
			return
		}
		st.attempts++
		n.recordRetry(key, st.attempts)
		if st.phase == 0 {
			refl := &sfQueryMsg{Q: st.q, SampleK: n.sc.p.sampleK(), TTL: n.sc.p.sampleTTL(), Hops: 1}
			n.sc.countQueryMessages(key, n.sfFlood(st.q.Org, refl.Hops, refl), refl.SizeBytes())
		} else {
			refl := &sfFilterMsg{Q: st.q, Filters: st.filters, Hops: 1}
			n.sc.countQueryMessages(key, n.sfFlood(st.q.Org, refl.Hops, refl), refl.SizeBytes())
		}
		n.sfScheduleRetry(key, st)
	})
}

// sfBroadcastFilters flips the originator into the collect phase: select
// the filter set from everything sampled so far and flood it.
func (n *node) sfBroadcastFilters(key core.QueryKey, st *sfOrigState) {
	qm := n.sc.metrics[key]
	if qm == nil || qm.Done || st.phase != 0 {
		return
	}
	st.phase = 1
	hi := core.VDRBounds(n.dev.Mode, n.dev.Schema, n.dev.Rel, n.dev.OverFactor)
	selected := skyline.SelectFilterSet(st.merged, hi, n.sc.p.filterK(), 0, sfSeed(key))
	// The flood ships 16-bit fixed-point attribute codes; quantizing here
	// means the pruning every device performs matches what actually
	// travelled (conservative: rounded toward worse, exactness preserved).
	st.filters = core.QuantizeFilters(selected, n.dev.Schema)
	n.sc.spans.Observe(spanKey(key), telemetry.Stage{
		T: n.sc.eng.Now(), Kind: telemetry.StageFilterSet,
		Device: int32(n.dev.ID), Tuples: len(st.filters),
	})
	msg := &sfFilterMsg{Q: st.q, Filters: st.filters, Hops: 1}
	n.sc.countQueryMessages(key, n.sfFlood(st.q.Org, msg.Hops, msg), msg.SizeBytes())
}

// sfHandleQuery runs a first-time receiver's side of the sampling round:
// compute the full local skyline, keep it for the collect phase, return a
// seeded sample, and rebroadcast while TTL remains. The rebroadcast happens
// before the processing delay so the sampling wave is not serialized by
// per-device CPU cost.
func (n *node) sfHandleQuery(msg *sfQueryMsg) {
	q := msg.Q
	key := q.Key()
	if !n.dev.FirstTime(key) {
		return
	}
	if msg.TTL > 1 {
		fwd := &sfQueryMsg{Q: q, SampleK: msg.SampleK, TTL: msg.TTL - 1, Hops: msg.Hops + 1}
		n.sc.countQueryMessages(key, n.sfFlood(q.Org, fwd.Hops, fwd), fwd.SizeBytes())
	}
	res := n.dev.Process(q) // bare query: the full constrained local skyline
	n.sc.eng.Schedule(n.sc.p.Cost.Time(res.Stats), func() {
		n.observeProcess(q, res, msg.Hops)
		if n.sfDev == nil {
			n.sfDev = make(map[core.QueryKey]*sfDevState)
		}
		sample := core.SampleTuples(res.Skyline, msg.SampleK, core.SampleSeed(key, n.dev.ID))
		n.sfDev[key] = &sfDevState{
			skyline: res.Skyline, unreduced: res.Unreduced, sampled: len(sample),
		}
		n.sc.net.Send(n.id, radio.NodeID(q.Org), &sfSampleMsg{
			Key: key, From: n.dev.ID, Tuples: sample,
		})
	})
}

// sfHandleSample merges one device's sample at the originator. Samples that
// arrive after the phase flip still improve the final result; they simply
// no longer influence filter selection.
func (n *node) sfHandleSample(m *sfSampleMsg, hops int) {
	st := n.sf[m.Key]
	if st == nil {
		return
	}
	st.merged = core.Merge(st.merged, m.Tuples)
	n.sc.spans.Observe(spanKey(m.Key), telemetry.Stage{
		T: n.sc.eng.Now(), Kind: telemetry.StageSample,
		Device: int32(m.From), Tuples: len(m.Tuples), Hops: hops,
	})
}

// sfHandleFilter runs a device's side of the collect phase: prune the
// stored skyline with the filter set, return the survivors, keep flooding.
// A device that missed the sampling round processes the query fresh — the
// filter flood carries the full query spec for exactly this case. The
// re-flood happens at acceptance, before any processing delay, so the
// flood wave is not serialized by per-device CPU cost.
func (n *node) sfHandleFilter(msg *sfFilterMsg) {
	key := msg.Q.Key()
	ds := n.sfDev[key]
	if ds != nil {
		if ds.replied {
			return
		}
		n.sfRefloodFilter(key, msg)
		n.sfSendSurvivors(key, ds, msg)
		return
	}
	if !n.dev.FirstTime(key) {
		return // originator, or a duplicate while the first copy processes
	}
	n.sfRefloodFilter(key, msg)
	res := n.dev.Process(msg.Q)
	n.sc.eng.Schedule(n.sc.p.Cost.Time(res.Stats), func() {
		n.observeProcess(msg.Q, res, msg.Hops)
		late := &sfDevState{skyline: res.Skyline, unreduced: res.Unreduced}
		if n.sfDev == nil {
			n.sfDev = make(map[core.QueryKey]*sfDevState)
		}
		n.sfDev[key] = late
		n.sfSendSurvivors(key, late, msg)
	})
}

// sfRefloodFilter forwards the filter flood one hop.
func (n *node) sfRefloodFilter(key core.QueryKey, msg *sfFilterMsg) {
	fwd := &sfFilterMsg{Q: msg.Q, Filters: msg.Filters, Hops: msg.Hops + 1}
	n.sc.countQueryMessages(key, n.sfFlood(key.Org, fwd.Hops, fwd), fwd.SizeBytes())
}

// sfSendSurvivors computes and returns one device's surviving tuples.
func (n *node) sfSendSurvivors(key core.QueryKey, ds *sfDevState, msg *sfFilterMsg) {
	ds.replied = true
	surv := core.Survivors(ds.skyline, msg.Filters)
	// Formula 1 accounting: the tuples this device shipped are its sample
	// plus the survivors, against the filter set it received.
	n.sc.observe(key, processOutcome{
		reducedLen: len(surv) + ds.sampled,
		unreduced:  ds.unreduced,
		filters:    len(msg.Filters),
	})
	n.sc.net.Send(n.id, radio.NodeID(key.Org), &sfResultMsg{
		Key: key, From: n.dev.ID, Tuples: surv,
	})
}

// sfHandleResult merges one device's survivors at the originator and
// completes the query at quorum; a repeat from the same device is ignored.
func (n *node) sfHandleResult(m *sfResultMsg, hops int) {
	st := n.sf[m.Key]
	if st == nil || !st.from.add(m.From) {
		return
	}
	st.merged = core.Merge(st.merged, m.Tuples)
	qm := n.sc.metrics[m.Key]
	if qm == nil {
		return
	}
	qm.Results++
	qm.ResultTuples = len(st.merged)
	n.sc.spans.Observe(spanKey(m.Key), telemetry.Stage{
		T: n.sc.eng.Now(), Kind: telemetry.StageResult,
		Device: int32(m.From), Tuples: len(m.Tuples), Hops: hops,
	})
	if n.sc.p.KeepSkylines {
		qm.Skyline = st.merged
	}
	if !qm.Done && qm.Results >= st.quorum {
		n.finishQuery(m.Key, st.merged)
	}
}
