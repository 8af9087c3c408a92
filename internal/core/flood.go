package core

import (
	"fmt"
	"math"
	"slices"

	"manetskyline/internal/localsky"
	"manetskyline/internal/skyline"
	"manetskyline/internal/tuple"
)

// This file is the flood protocol as one transport-agnostic state machine:
// breadth-first forwarding (BF, §3–4: process locally, prune by filter,
// reply, forward, merge, dedupe by (org, cnt)), depth-first forwarding (DF,
// §5.2.1: hand the query to one untried neighbour at a time, merge results
// along the reverse path) and the sampling-filter strategy (SF, Zhang &
// Zhang, arXiv:1611.00423: a sampling round, one filter-set flood, survivor
// replies). It owns every protocol decision — first-time checks, quorum,
// sender dedupe, merge-and-complete, SF phase sequencing, DF's walk and
// re-issues — and no I/O: the discrete-event simulator (internal/manet) and
// the socket peer (internal/tcp) drive it through FloodIO and carry its
// messages in their own encodings.
//
// A Flood is not safe for concurrent use; a driver that calls it from
// several goroutines serializes the calls.

// Strategy selects how a query travels (§5.2.1).
type Strategy int

const (
	// BreadthFirst floods the query: every device processes it, replies
	// straight to the originator, and forwards it to all its neighbours.
	BreadthFirst Strategy = iota
	// DepthFirst walks the query: each device hands it to one untried
	// neighbour at a time, and subtree results merge along the reverse
	// path back to the originator.
	DepthFirst
	// SamplingFilter is the sampling-based multi-round strategy beyond the
	// paper (Zhang & Zhang, arXiv:1611.00423): the originator floods a
	// sample request, every device returns a small seeded sample of its
	// constrained local skyline, the originator selects a k-tuple filter
	// set by greedy dominating-region coverage and floods it, and devices
	// return only the tuples that survive the filter set (minus what they
	// already sampled). Fault-free, the merged result is the exact
	// constrained skyline; the collect phase ships far fewer tuples than a
	// BF flood.
	SamplingFilter
)

// String names the strategy the way the paper's figures do ("SF" follows
// the sampling-filter literature; the paper's figures use SF for "static
// filter", which this codebase calls dynamic=false).
func (s Strategy) String() string {
	switch s {
	case BreadthFirst:
		return "BF"
	case DepthFirst:
		return "DF"
	case SamplingFilter:
		return "SF"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// MsgKind names a flood-protocol message.
type MsgKind uint8

const (
	// MsgQuery is BF's flood: the query with its (possibly upgraded)
	// filtering tuple.
	MsgQuery MsgKind = iota + 1
	// MsgResult returns one device's reduced local skyline to the
	// originator.
	MsgResult
	// MsgSampleReq is SF's sampling round: the bare query, the per-device
	// sample budget and a hop budget.
	MsgSampleReq
	// MsgSample returns one device's seeded sample of its local skyline.
	MsgSample
	// MsgFilters is SF's one full flood: the bare query and the filter set.
	// A device outside the sampling round answers from it alone.
	MsgFilters
	// MsgSurvivors returns the tuples of one device's local skyline that
	// survive the filter set.
	MsgSurvivors
	// MsgHandoff is DF's hand-off: the query, with the best filter its
	// sender adopted, to one neighbour.
	MsgHandoff
	// MsgAck answers a hand-off: Refused when the device had already
	// processed the query ("try someone else").
	MsgAck
	// MsgSubtree returns a DF device's merged subtree result to the device
	// that handed it the query, with the best filter the subtree adopted in
	// Q.Filter and Q.FilterVDR.
	MsgSubtree
)

// Msg is one flood-protocol message. The flood kinds (MsgQuery,
// MsgSampleReq, MsgFilters) travel one hop to every neighbour; the reply
// kinds travel to the originator, Q.Org; DF's kinds travel between a device
// and one neighbour.
type Msg struct {
	Kind MsgKind
	// Refused marks a MsgAck that turns the hand-off down.
	Refused bool
	// Q is the query. Replies and acks carry only its key, Org and Cnt; a
	// subtree result adds the filter.
	Q Query
	// From is the replying device, or the sender of a DF message.
	From DeviceID
	// Tuples is a reply's tuples, or MsgFilters' filter set.
	Tuples []tuple.Tuple
	// SampleK and TTL ride MsgSampleReq: how many tuples each device
	// samples, and the remaining hop budget (forwarded while TTL > 1).
	SampleK, TTL int
	// Hops is the flood depth: 1 at the originator, one more per forward.
	// A reply carries the depth of the flood copy it answers; a driver may
	// overwrite it on receipt with the route length the reply travelled,
	// as it does for DF's messages. Hops is bookkeeping, not payload.
	Hops int
	// Acc is a MsgSurvivors sender's Formula 1 contribution: its sample
	// plus survivors against its |SK_i|, for the filter set it received.
	Acc DRRAccumulator
}

// Key returns the query key the message belongs to.
func (m *Msg) Key() QueryKey { return m.Q.Key() }

// Timer names a protocol timer; the driver maps each to its own delay.
type Timer uint8

const (
	// TimerSampleWait ends SF's sampling round: the originator selects the
	// filter set from what it collected and floods it.
	TimerSampleWait Timer = iota
	// TimerRetry re-issues an open query: BF and SF re-flood the current
	// phase, DF restarts its exhausted walk.
	TimerRetry
	// TimerAck ends DF's wait for a hand-off's ack: the device tries the
	// next neighbour.
	TimerAck
	// TimerSubtree ends DF's wait for an accepted child's subtree result.
	TimerSubtree
)

// FloodIO is what a driver does for the machine. Send and Flood take their
// message by value, so emitting one allocates nothing; the *Msg handed to
// Process is the driver's own, passed back unchanged to Processed. No
// method may call back into the Flood.
type FloodIO interface {
	// Process asks for Device.Process on m.Q. The driver runs it at once and
	// calls Processed with the result when its tier says processing is
	// over.
	Process(m *Msg)
	// Send unicasts m to device to: a reply to the originator, or a DF
	// message to a neighbour or to the device's DF parent.
	Send(to DeviceID, m Msg)
	// Flood transmits a flood message one hop to the neighbourhood.
	Flood(m Msg)
	// Next returns DF's next hop: a current neighbour of the device that is
	// not in tried (ascending), or -1 when none is left.
	Next(tried []DeviceID) DeviceID
	// Arm schedules Fire(key, t, n) after the driver's delay for t. For
	// TimerRetry, n is the number of re-issues so far, for back-off; for
	// TimerAck and TimerSubtree it is a token the machine matches on Fire.
	Arm(key QueryKey, t Timer, n int)
	// Reissued reports the originator's attempt-th re-issue of query key,
	// made just before the re-issue's first message.
	Reissued(key QueryKey, attempt int)
	// Merged reports that the originator folded reply m into its skyline,
	// now merged: a counted result or survivors set, a sample, or a DF
	// subtree result.
	Merged(m *Msg, merged []tuple.Tuple)
	// Complete reports that the query completed: quorum distinct devices
	// answered it (BF and SF), or its walk ended (DF).
	Complete(key QueryKey, merged []tuple.Tuple)
}

// FloodOptions are a driver's protocol settings.
type FloodOptions struct {
	// Retries is how many times an originator re-issues a query: BF and SF
	// re-flood the phase still open when TimerRetry fires, DF restarts its
	// walk after the walk ran out of neighbours.
	Retries int
	// SampleK is how many local-skyline tuples each SF device samples.
	SampleK int
	// SampleTTL is the hop budget of SF's sampling round.
	SampleTTL int
	// FilterK is the size of SF's filter set.
	FilterK int
}

// Flood is one device's side of the flood protocol.
type Flood struct {
	Dev *Device
	Opt FloodOptions

	orig map[QueryKey]*origin
	// local holds SF receiver state by originator: the newest query's
	// entry, which a newer query replaces and an older one, arriving late,
	// leaves in place.
	local map[DeviceID]*sfLocal
	// walks holds DF state of the walks this device relays. A relay drops
	// its entry once it has reported its subtree result.
	walks map[QueryKey]*walk
	// token numbers DF's ack and subtree timers across every walk, so a
	// timer never matches a walk it was not armed for.
	token int
}

// walk is a device's part in one query: the query, the skyline merged so
// far and whether it is over, for the originator under every strategy;
// plus DF's walk state at every device the walk visits.
type walk struct {
	// q is the query as issued or handed on: bare under SF, carrying the
	// best filter adopted so far under DF.
	q      Query
	merged []tuple.Tuple
	// done is set when the originator completed or expired the query, and
	// when a relay reported its subtree.
	done bool
	// parent is the device that handed the query here, -1 at the
	// originator.
	parent DeviceID
	// tried is ascending: the parent and every device handed the query.
	tried []DeviceID
	// child is the accepted child whose subtree result is awaited, -1 when
	// none; acking marks a hand-off awaiting its ack. token is the armed
	// ack or subtree timer's.
	child  DeviceID
	acking bool
	token  int
}

// origin is the originator's state for one query.
type origin struct {
	walk     // parent -1
	strategy Strategy
	quorum   int
	from     map[DeviceID]struct{} // senders counted toward the quorum
	// filtering is SF's collect phase: filters is out (possibly empty).
	filtering bool
	filters   []tuple.Tuple
	attempts  int
	// restarting marks a DF restart armed; a walk that ends meanwhile
	// leaves the decision to it.
	restarting bool
}

// sfLocal is an SF receiver's state for one query: the full local skyline
// computed once, kept for the collect phase.
type sfLocal struct {
	key       QueryKey
	skyline   []tuple.Tuple
	unreduced int
	sampled   int  // tuples volunteered in the sampling round
	replied   bool // survivors sent
}

// Quorum is the number of distinct other devices whose results complete a
// query among peers devices: the fraction f of the others, rounded up (the
// paper's 80 % at f = 0.8, §5.2.3).
func Quorum(f float64, peers int) int {
	others := peers - 1
	if others <= 0 {
		return 0
	}
	return int(math.Ceil(f * float64(others)))
}

// Originate starts a query this device issued: q and local are
// Device.Originate's outcome, quorum the BF and SF completion threshold,
// and s the strategy. A BF or SF query with a zero quorum completes at
// once; a DF query completes when its walk ends.
func (f *Flood) Originate(q Query, local []tuple.Tuple, quorum int, s Strategy, io FloodIO) {
	if s == SamplingFilter {
		// SF floods carry no filter: devices compute their full local
		// skylines for the collect phase to prune.
		q.Filter, q.FilterVDR, q.Extra = nil, 0, nil
	}
	key := q.Key()
	st := &origin{walk: walk{q: q, merged: local, parent: -1, child: -1}, strategy: s,
		quorum: quorum, from: make(map[DeviceID]struct{})}
	if f.orig == nil {
		f.orig = make(map[QueryKey]*origin)
	}
	f.orig[key] = st
	if s == DepthFirst {
		f.step(&st.walk, io)
		return
	}
	if quorum == 0 {
		st.done = true
		io.Complete(key, local)
		return
	}
	f.flood(st, io)
	if s == SamplingFilter {
		io.Arm(key, TimerSampleWait, 0)
	}
	f.armRetry(st, io)
}

// flood emits the originator's flood for st's current phase.
func (f *Flood) flood(st *origin, io FloodIO) {
	m := Msg{Kind: MsgQuery, Q: st.q, Hops: 1}
	switch {
	case st.filtering:
		m.Kind, m.Tuples = MsgFilters, st.filters
	case st.strategy == SamplingFilter:
		m.Kind, m.SampleK, m.TTL = MsgSampleReq, f.Opt.SampleK, f.Opt.SampleTTL
	}
	io.Flood(m)
}

// armRetry arms the next re-issue while the retry budget lasts and reports
// whether it did.
func (f *Flood) armRetry(st *origin, io FloodIO) bool {
	if st.attempts >= f.Opt.Retries {
		return false
	}
	io.Arm(st.q.Key(), TimerRetry, st.attempts)
	return true
}

// Fire handles a timer armed through FloodIO.Arm with the n it was armed
// with. Timers of a query that completed, expired or was forgotten, and DF
// timers whose wait already ended, do nothing.
func (f *Flood) Fire(key QueryKey, t Timer, n int, io FloodIO) {
	if t == TimerAck || t == TimerSubtree {
		if w := f.walkOf(key); w != nil && !w.done && w.token == n {
			w.acking, w.child = false, -1
			f.step(w, io)
		}
		return
	}
	st := f.orig[key]
	if st == nil || st.done {
		return
	}
	switch t {
	case TimerSampleWait:
		if st.filtering {
			return
		}
		st.filtering = true
		hi := VDRBounds(f.Dev.Mode, f.Dev.Schema, f.Dev.Rel, f.Dev.OverFactor)
		selected := skyline.SelectFilterSet(st.merged, hi, f.Opt.FilterK, 0, filterSeed(key))
		// The flood ships 16-bit attribute codes, so devices prune against
		// exactly what travelled (rounded toward worse: still exact).
		st.filters = QuantizeFilters(selected, f.Dev.Schema)
		f.flood(st, io)
	case TimerRetry:
		st.attempts++
		io.Reissued(key, st.attempts)
		if st.strategy == DepthFirst {
			// Mobility and recovered devices may have changed the
			// neighbourhood since the exhausted walk began.
			st.restarting = false
			st.tried = st.tried[:0]
			f.step(&st.walk, io)
			return
		}
		// Devices that saw the earlier flood ignore the repeat, so a
		// re-flood only reaches devices the first one missed.
		f.flood(st, io)
		f.armRetry(st, io)
	}
}

// filterSeed derives SF's filter-selection seed from the query key, the
// multi-filter extension's per-query determinism.
func filterSeed(key QueryKey) int64 {
	return int64(key.Cnt) + int64(key.Org)<<8
}

// Receive handles one received message. dup reports a reply from a sender
// the originator had already counted; it is dropped.
func (f *Flood) Receive(m *Msg, io FloodIO) (dup bool) {
	key := m.Key()
	switch m.Kind {
	case MsgQuery:
		if f.Dev.FirstTime(key) {
			io.Process(m)
		}
	case MsgSampleReq:
		if !f.Dev.FirstTime(key) {
			return false
		}
		// Forward before processing, so per-device CPU cost does not
		// serialize the sampling wave.
		if m.TTL > 1 {
			f.forward(m, io)
		}
		io.Process(m)
	case MsgFilters:
		// A copy that arrives while the sampling round's processing is
		// still pending finds neither state nor a first time and changes
		// nothing, so a later copy is still answered.
		if ls := f.localOf(key); ls != nil {
			if !ls.replied {
				f.forward(m, io)
				f.survivors(ls, m, io)
			}
		} else if f.Dev.FirstTime(key) {
			f.forward(m, io)
			io.Process(m)
		}
	case MsgSample:
		// Samples improve the result but never count toward the quorum.
		if st := f.orig[key]; st != nil {
			st.merged = Merge(st.merged, m.Tuples)
			io.Merged(m, st.merged)
		}
	case MsgResult, MsgSurvivors:
		st := f.orig[key]
		if st == nil {
			return false
		}
		if _, seen := st.from[m.From]; seen {
			return true
		}
		st.from[m.From] = struct{}{}
		st.merged = Merge(st.merged, m.Tuples)
		io.Merged(m, st.merged)
		if !st.done && len(st.from) >= st.quorum {
			st.done = true
			io.Complete(key, st.merged)
		}
	case MsgHandoff:
		f.handoff(m, io)
	case MsgAck:
		f.ack(m, io)
	case MsgSubtree:
		f.subtree(m, io)
	}
	return false
}

// Processed continues after the driver's Process(m) with its result.
func (f *Flood) Processed(m *Msg, res localsky.Result, io FloodIO) {
	key := m.Key()
	switch m.Kind {
	case MsgQuery:
		// Reply even when empty, then keep flooding with the possibly
		// upgraded filter.
		io.Send(key.Org, Msg{Kind: MsgResult, Q: keyQuery(key), From: f.Dev.ID, Tuples: res.Skyline, Hops: m.Hops})
		io.Flood(Msg{Kind: MsgQuery, Q: Forwardable(m.Q, res), Hops: m.Hops + 1})
	case MsgSampleReq:
		ls := f.keep(key, res)
		sample := SampleTuples(res.Skyline, m.SampleK, SampleSeed(key, f.Dev.ID))
		ls.sampled = len(sample)
		io.Send(key.Org, Msg{Kind: MsgSample, Q: keyQuery(key), From: f.Dev.ID, Tuples: sample, Hops: m.Hops})
	case MsgFilters:
		f.survivors(f.keep(key, res), m, io)
	case MsgHandoff:
		// The walk may have ended meanwhile; then the result has no use.
		if w := f.walks[key]; w != nil {
			w.merged = res.Skyline
			w.q = Forwardable(m.Q, res)
			f.step(w, io)
		}
	}
}

// forward floods a received flood message one hop further.
func (f *Flood) forward(m *Msg, io FloodIO) {
	fwd := *m
	fwd.Hops++
	if m.Kind == MsgSampleReq {
		fwd.TTL--
	}
	io.Flood(fwd)
}

// survivors answers a filter flood from the device's stored local skyline.
func (f *Flood) survivors(ls *sfLocal, m *Msg, io FloodIO) {
	ls.replied = true
	surv := Survivors(ls.skyline, m.Tuples)
	io.Send(ls.key.Org, Msg{Kind: MsgSurvivors, Q: keyQuery(ls.key), From: f.Dev.ID, Tuples: surv, Hops: m.Hops,
		Acc: DRRAccumulator{Reduced: len(surv) + ls.sampled, Unreduced: ls.unreduced, Devices: 1, Filters: len(m.Tuples)}})
}

// localOf returns the receiver state of query key, nil when none is held.
func (f *Flood) localOf(key QueryKey) *sfLocal {
	if ls := f.local[key.Org]; ls != nil && ls.key == key {
		return ls
	}
	return nil
}

// keep stores the local skyline res computed for SF query key, replacing
// any state of the originator's earlier query. The state of an older query
// is returned but not stored, so it never displaces a newer query's.
func (f *Flood) keep(key QueryKey, res localsky.Result) *sfLocal {
	if f.local == nil {
		f.local = make(map[DeviceID]*sfLocal)
	}
	ls := &sfLocal{key: key, skyline: res.Skyline, unreduced: res.Unreduced}
	if held := f.local[key.Org]; held == nil || newer(key.Cnt, held.key.Cnt) >= 0 {
		f.local[key.Org] = ls
	}
	return ls
}

// keyQuery is the query part a reply carries: the key alone.
func keyQuery(key QueryKey) Query { return Query{Org: key.Org, Cnt: key.Cnt} }

// --- depth-first walk ---------------------------------------------------

// walkOf returns the DF walk of query key this device takes part in: the
// one it relays, else its own as originator; nil when it holds neither.
func (f *Flood) walkOf(key QueryKey) *walk {
	if w := f.walks[key]; w != nil {
		return w
	}
	if st := f.orig[key]; st != nil && st.strategy == DepthFirst {
		return &st.walk
	}
	return nil
}

// step hands w's query to the next untried neighbour, or ends w's part of
// the walk when none is left. A walk waiting for an ack or a subtree result
// does not move.
func (f *Flood) step(w *walk, io FloodIO) {
	if w.done || w.acking || w.child >= 0 {
		return
	}
	next := io.Next(w.tried)
	if next < 0 {
		f.finish(w, io)
		return
	}
	i, _ := slices.BinarySearch(w.tried, next)
	w.tried = slices.Insert(w.tried, i, next)
	f.token++
	w.acking, w.token = true, f.token
	io.Send(next, Msg{Kind: MsgHandoff, Q: w.q, From: f.Dev.ID})
	io.Arm(w.q.Key(), TimerAck, w.token)
}

// finish returns a relay's merged subtree result to its parent and drops
// the relay's state, or completes the query at the originator. An
// originator with retry budget left restarts the walk instead (TimerRetry).
func (f *Flood) finish(w *walk, io FloodIO) {
	key := w.q.Key()
	if w.parent >= 0 {
		w.done = true
		delete(f.walks, key)
		io.Send(w.parent, Msg{Kind: MsgSubtree, Q: keyQuery(key).WithFilter(w.q.Filter, w.q.FilterVDR),
			From: f.Dev.ID, Tuples: w.merged})
		return
	}
	// A walk that ends again while its restart is armed (a straggler moved
	// it on) leaves the decision to the restart.
	st := f.orig[key]
	if st.restarting || f.armRetry(st, io) {
		st.restarting = true
		return
	}
	st.done = true
	io.Complete(key, st.merged)
}

// handoff accepts a hand-off the device has not processed yet, and joins
// the walk as a relay; it refuses any other.
func (f *Flood) handoff(m *Msg, io FloodIO) {
	key := m.Key()
	ack := Msg{Kind: MsgAck, Q: keyQuery(key), From: f.Dev.ID, Refused: !f.Dev.FirstTime(key)}
	io.Send(m.From, ack)
	if ack.Refused {
		return
	}
	if f.walks == nil {
		f.walks = make(map[QueryKey]*walk)
	}
	// The device hands on no filter before its own processing ends.
	f.walks[key] = &walk{q: m.Q.WithFilter(nil, 0), parent: m.From, tried: []DeviceID{m.From}, child: -1}
	io.Process(m)
}

// ack resolves the pending hand-off: an accepting child gets a subtree
// timer, a refusal moves the walk on at once.
func (f *Flood) ack(m *Msg, io FloodIO) {
	w := f.walkOf(m.Key())
	if w == nil || w.done || !w.acking {
		return
	}
	w.acking, w.token = false, 0
	if m.Refused {
		f.step(w, io)
		return
	}
	f.token++
	w.child, w.token = m.From, f.token
	io.Arm(m.Key(), TimerSubtree, w.token)
}

// subtree merges a child's subtree result and moves the walk on. At the
// originator a straggler, arriving after the query closed, still improves
// the answer; a relay that already reported holds no state, and the
// straggler is lost, as in any best-effort MANET protocol.
func (f *Flood) subtree(m *Msg, io FloodIO) {
	w := f.walkOf(m.Key())
	if w == nil {
		return
	}
	w.merged = Merge(w.merged, m.Tuples)
	if w.parent < 0 {
		io.Merged(m, w.merged)
	}
	// Adopt the child's filter when it prunes harder (the backtracking
	// counterpart of the §3.4 dynamic update).
	if f.Dev.Dynamic && m.Q.Filter != nil && (w.q.Filter == nil || m.Q.FilterVDR > w.q.FilterVDR) {
		w.q = w.q.WithFilter(m.Q.Filter, m.Q.FilterVDR)
	}
	if w.done {
		return
	}
	if w.child == m.From {
		w.child, w.token = -1, 0
	}
	f.step(w, io)
}

// Expire closes an open query without completing it and returns what the
// originator merged so far; nil when this device holds no such query.
func (f *Flood) Expire(key QueryKey) []tuple.Tuple {
	st := f.orig[key]
	if st == nil {
		return nil
	}
	st.done = true
	return st.merged
}

// Outcome reports an originated query's merged skyline, how many distinct
// devices' results it counted, and whether they reached the quorum (BF and
// SF).
func (f *Flood) Outcome(key QueryKey) (merged []tuple.Tuple, results int, complete bool) {
	st := f.orig[key]
	if st == nil {
		return nil, 0, false
	}
	return st.merged, len(st.from), len(st.from) >= st.quorum
}

// Forget drops an originated query's state; later replies and timers for it
// do nothing.
func (f *Flood) Forget(key QueryKey) { delete(f.orig, key) }
