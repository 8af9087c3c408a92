package tcp

import (
	"time"

	"manetskyline/internal/core"
	"manetskyline/internal/telemetry"
	"manetskyline/internal/tuple"
	"manetskyline/internal/wire"
)

// This file drives core.Flood, the BF and SF protocol machine, over
// sockets. The machine decides; the peer encodes its messages as frames,
// sends them over the managed links, runs Device.Process outside the peer
// lock, wakes blocked queries, and traces stages. BF travels as KindQuery
// and KindResult frames; SF as KindFilterSet frames, one kind with a phase
// byte:
//
//	phase 0: the sampling round, to direct neighbours only (one hop);
//	phase 1: a neighbour's seeded sample of its local skyline;
//	phase 2: the filter-set flood with the query spec, which a peer that
//	         missed the sampling round answers from alone;
//	phase 3: a peer's survivors of the filter set.
//
// Peers built before KindFilterSet existed drop those frames at Peek
// (counted in tcp_frames_dropped_total) and keep serving — mixed-version
// grids degrade, they do not crash.

// pendingQuery is what a blocked Query waits on. The machine holds the
// protocol state; this is the socket tier's.
type pendingQuery struct {
	done   chan struct{}
	closed bool
	// sent is how many initial flood frames the originator issued; failed
	// tracks neighbours whose tagged frame dead-lettered (queue overflow,
	// retry exhaustion, open breaker, or unresolvable peer). When every
	// flood frame failed and nothing answered, no result can ever arrive:
	// the query wakes immediately with deadErr instead of idling to its
	// deadline.
	sent    int
	failed  map[core.DeviceID]bool
	deadErr error
	// timers are the machine's armed timers, stopped when the query ends.
	timers []*time.Timer
}

// wake releases the blocked Query once.
func (pq *pendingQuery) wake() {
	if !pq.closed {
		pq.closed = true
		close(pq.done)
	}
}

// unreachable reports that every initial flood frame of query key failed
// and nothing answered. Callers hold p.mu.
func (p *Peer) unreachable(key core.QueryKey, pq *pendingQuery) bool {
	_, results, _ := p.fl.Outcome(key)
	return pq.sent > 0 && len(pq.failed) >= pq.sent && results == 0
}

// Query originates a distributed constrained skyline query at this peer,
// floods it over the neighbour links, and blocks until the quorum of other
// peers responded or the timeout elapsed. totalPeers is the network size
// the quorum is computed against. Closing the peer releases a blocked
// Query immediately with the results merged so far.
func (p *Peer) Query(d float64, totalPeers int) (QueryResult, error) {
	return p.query(d, totalPeers, core.BreadthFirst)
}

// QuerySF originates a distributed constrained skyline query under the SF
// strategy: a one-hop sampling round, a filter-set flood after
// SFSampleWait, and a survivors collection, completing at the same quorum
// contract as Query. Fault-free, the result equals Query's exactly; on the
// wire the flood carries k quantized filters instead of each hop's best
// filter, and the replies shrink to survivor sets.
func (p *Peer) QuerySF(d float64, totalPeers int) (QueryResult, error) {
	return p.query(d, totalPeers, core.SamplingFilter)
}

func (p *Peer) query(d float64, totalPeers int, s core.Strategy) (QueryResult, error) {
	start := time.Now()
	q, res := p.dev.Originate(p.pos, d)
	key := q.Key()
	if p.cfg.Spans != nil {
		p.cfg.Spans.Begin(spanKey(key), nowSecs())
	}
	pq := &pendingQuery{failed: make(map[core.DeviceID]bool), done: make(chan struct{})}
	ob := &outbox{p: p}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return QueryResult{}, ErrClosed
	}
	p.pending[key] = pq
	p.fl.Originate(q, res.Skyline, core.Quorum(p.cfg.Quorum, totalPeers), s, ob)
	p.mu.Unlock()
	sent := p.act(ob)
	// Arm the unreachability check only after every flood frame is tagged
	// out, so a fast failSlot during the loop cannot fire early.
	p.mu.Lock()
	pq.sent = sent
	if p.unreachable(key, pq) {
		pq.wake()
	}
	p.mu.Unlock()
	timer := time.NewTimer(p.cfg.QueryTimeout)
	select {
	case <-pq.done:
	case <-timer.C:
	}
	timer.Stop()

	p.mu.Lock()
	merged, results, complete := p.fl.Outcome(key)
	var qerr error
	if !complete && pq.deadErr != nil && p.unreachable(key, pq) {
		qerr = pq.deadErr
	}
	out := QueryResult{
		Skyline:  append([]tuple.Tuple(nil), merged...),
		Results:  results,
		Complete: complete,
		Elapsed:  time.Since(start),
	}
	for _, t := range pq.timers {
		t.Stop()
	}
	p.fl.Forget(key)
	delete(p.pending, key)
	p.mu.Unlock()
	p.met.QueriesIssued.Inc()
	p.met.QueryLatency.Observe(out.Elapsed.Seconds())
	if complete {
		p.met.QueriesCompleted.Inc()
	}
	if p.cfg.Spans != nil {
		if !complete {
			p.cfg.Spans.MarkPartial(spanKey(key))
		}
		p.cfg.Spans.Complete(spanKey(key), nowSecs(), len(out.Skyline))
	}
	return out, qerr
}

// decode maps one frame onto a protocol message; a kind with no protocol
// role (a gateway reject frame) yields the zero Msg. Flood frames report
// their hop from the trace context, 1 when untraced.
func decode(kind wire.Kind, frame []byte, tc *wire.TraceContext) (core.Msg, error) {
	hops := 1
	if tc != nil {
		hops = int(tc.Hop)
	}
	switch kind {
	case wire.KindQuery:
		q, err := wire.DecodeQuery(frame)
		return core.Msg{Kind: core.MsgQuery, Q: q, Hops: hops}, err
	case wire.KindResult:
		r, err := wire.DecodeResult(frame)
		return core.Msg{Kind: core.MsgResult, Q: core.Query{Org: r.Key.Org, Cnt: r.Key.Cnt}, From: r.From, Tuples: r.Tuples, Hops: hops}, err
	case wire.KindFilterSet:
		f, err := wire.DecodeFilterSet(frame)
		if err != nil {
			return core.Msg{}, err
		}
		q := core.Query{Org: f.Key.Org, Cnt: f.Key.Cnt, Pos: f.Pos, D: f.D}
		m := core.Msg{Q: q, From: f.From, Tuples: f.Tuples, Hops: hops}
		switch f.Phase {
		case wire.SFPhaseSampleRequest:
			m.Kind, m.SampleK, m.TTL = core.MsgSampleReq, int(f.SampleK), 1
		case wire.SFPhaseSampleReply:
			m.Kind = core.MsgSample
		case wire.SFPhaseFilterSet:
			m.Kind = core.MsgFilters
		case wire.SFPhaseSurvivors:
			m.Kind = core.MsgSurvivors
		}
		return m, nil
	}
	return core.Msg{}, nil
}

// encode is decode's inverse.
func encode(m *core.Msg) []byte {
	key := m.Key()
	switch m.Kind {
	case core.MsgQuery:
		return wire.EncodeQuery(m.Q)
	case core.MsgResult:
		return wire.EncodeResult(wire.Result{Key: key, From: m.From, Tuples: m.Tuples})
	case core.MsgSampleReq:
		return wire.EncodeFilterSet(wire.FilterSet{Key: key, Phase: wire.SFPhaseSampleRequest,
			Pos: m.Q.Pos, D: m.Q.D, SampleK: uint16(m.SampleK)})
	case core.MsgSample:
		return wire.EncodeFilterSet(wire.FilterSet{Key: key, Phase: wire.SFPhaseSampleReply,
			From: m.From, Tuples: m.Tuples})
	case core.MsgFilters:
		return wire.EncodeFilterSet(wire.FilterSet{Key: key, Phase: wire.SFPhaseFilterSet,
			Pos: m.Q.Pos, D: m.Q.D, Tuples: m.Tuples})
	default:
		return wire.EncodeFilterSet(wire.FilterSet{Key: key, Phase: wire.SFPhaseSurvivors,
			From: m.From, Tuples: m.Tuples})
	}
}

// receive hands one decoded frame to the machine and carries out what it
// asked for through ob, the calling goroutine's outbox. tc is the frame's
// trace context, nil when untraced.
func (p *Peer) receive(m *core.Msg, tc *wire.TraceContext, ob *outbox) {
	switch m.Kind {
	case core.MsgResult, core.MsgSurvivors:
		p.traceStage(tc, telemetry.StageResult, m.From, 0)
	case core.MsgSample:
		p.traceStage(tc, telemetry.StageSample, m.From, 0)
	}
	p.mu.Lock()
	dup := p.fl.Receive(m, ob)
	p.mu.Unlock()
	if dup {
		p.met.DupResults.Inc()
	}
	if tc != nil && len(ob.frames)+len(ob.procs) > 0 {
		// The machine took up a flood copy.
		p.traceStage(tc, telemetry.StageHandle, core.DeviceID(tc.Parent), 0)
	}
	p.act(ob)
}

// fire hands a timer expiry to the machine.
func (p *Peer) fire(key core.QueryKey, t core.Timer, n int) {
	ob := &outbox{p: p}
	p.mu.Lock()
	p.fl.Fire(key, t, n, ob)
	p.mu.Unlock()
	p.act(ob)
}

// outbox is the peer's core.FloodIO. The machine runs under p.mu, so
// frames and Process requests queue here and run once the lock is released
// (act); merges, completions and timers touch only lock-guarded state and
// happen at once. Each goroutine that calls the machine owns one outbox and
// reuses it, so the frame path allocates nothing for it.
type outbox struct {
	p      *Peer
	frames []frame
	procs  []core.Msg
}

// frame is one queued protocol message: a reply to the originator to, or a
// flood to every neighbour but the originator.
type frame struct {
	flood bool
	to    core.DeviceID
	m     core.Msg
}

func (o *outbox) Process(m *core.Msg)               { o.procs = append(o.procs, *m) }
func (o *outbox) Send(to core.DeviceID, m core.Msg) { o.frames = append(o.frames, frame{to: to, m: m}) }
func (o *outbox) Flood(m core.Msg)                  { o.frames = append(o.frames, frame{flood: true, m: m}) }

// Next and Reissued are never called: the socket tier runs neither DF nor
// re-floods.
func (o *outbox) Next([]core.DeviceID) core.DeviceID { return -1 }
func (o *outbox) Reissued(core.QueryKey, int)        {}

// Arm starts a machine timer. The socket tier runs no re-floods, so the
// only timer is SF's sample wait.
func (o *outbox) Arm(key core.QueryKey, t core.Timer, n int) {
	if pq := o.p.pending[key]; pq != nil {
		pq.timers = append(pq.timers, time.AfterFunc(o.p.cfg.SFSampleWait, func() { o.p.fire(key, t, n) }))
	}
}

// Merged un-fails the slot of a peer that answered: its direct flood frame
// may have dead-lettered while the flood reached it through others.
func (o *outbox) Merged(m *core.Msg, _ []tuple.Tuple) {
	if pq := o.p.pending[m.Key()]; pq != nil && m.Kind != core.MsgSample {
		delete(pq.failed, m.From)
	}
}

func (o *outbox) Complete(key core.QueryKey, _ []tuple.Tuple) {
	if pq := o.p.pending[key]; pq != nil {
		pq.wake()
	}
}

// act sends what a machine call queued, then runs each requested Process
// outside the lock and sends what its result produced, leaving ob empty.
// It returns how many frames it tagged for dead-letter accounting: those of
// the originator's BF flood.
func (p *Peer) act(ob *outbox) (tagged int) {
	tagged = p.flush(ob)
	// Processed never asks for another Process, so ob.procs stays put.
	for i := range ob.procs {
		m := &ob.procs[i]
		res := p.dev.Process(m.Q)
		p.mu.Lock()
		p.fl.Processed(m, res, ob)
		p.mu.Unlock()
		tagged += p.flush(ob)
	}
	clear(ob.procs) // drop references to the tuples they carried
	ob.procs = ob.procs[:0]
	return tagged
}

// flush emits the queued frames in order.
func (p *Peer) flush(ob *outbox) (tagged int) {
	for i := range ob.frames {
		tagged += p.emit(&ob.frames[i])
	}
	clear(ob.frames)
	ob.frames = ob.frames[:0]
	return tagged
}

// emit encodes and sends one queued frame, returning how many copies it
// tagged with the query key.
func (p *Peer) emit(f *frame) (tagged int) {
	m := &f.m
	key := m.Key()
	msg := encode(m)
	tc := p.traceCtx(key, uint8(m.Hops))
	if !f.flood {
		p.traceStage(tc, telemetry.StageReply, f.to, wire.FrameWireSize(len(msg), tc != nil))
		p.send(f.to, msg, tc, nil)
		return 0
	}
	if m.Kind == core.MsgFilters && m.Hops == 1 && p.cfg.Spans != nil {
		// The originator just selected the filter set.
		p.cfg.Spans.ObserveAuto(spanKey(key), telemetry.Stage{
			T: nowSecs(), Kind: telemetry.StageFilterSet,
			Device: int32(p.dev.ID), Tuples: len(m.Tuples),
		})
	}
	// A frame of the originator's BF flood that can never be delivered
	// fails its quorum slot (failSlot).
	var fk *core.QueryKey
	if m.Kind == core.MsgQuery && key.Org == p.dev.ID {
		fk = &key
	}
	p.mu.Lock()
	neighbors := append([]core.DeviceID(nil), p.neighbors...)
	p.mu.Unlock()
	for _, nb := range neighbors {
		if nb == key.Org {
			continue
		}
		p.send(nb, msg, tc, fk)
		if fk != nil {
			tagged++
		}
	}
	return tagged
}
