package core

import (
	"math"

	"manetskyline/internal/localsky"
	"manetskyline/internal/skyline"
	"manetskyline/internal/tuple"
)

// This file is the flood protocol as one transport-agnostic state machine:
// breadth-first forwarding (BF, §3–4: process locally, prune by filter,
// reply, forward, merge, dedupe by (org, cnt)) and the sampling-filter
// strategy (SF, Zhang & Zhang, arXiv:1611.00423: a sampling round, one
// filter-set flood, survivor replies). It owns every protocol decision —
// first-time checks, quorum, sender dedupe, merge-and-complete, SF phase
// sequencing and re-floods — and no I/O: the discrete-event simulator
// (internal/manet) and the socket peer (internal/tcp) drive it through
// FloodIO and carry its messages in their own encodings.
//
// A Flood is not safe for concurrent use; a driver that calls it from
// several goroutines serializes the calls.

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
)

// Msg is one flood-protocol message. The flood kinds (MsgQuery,
// MsgSampleReq, MsgFilters) travel one hop to every neighbour; the reply
// kinds travel to the originator, Q.Org.
type Msg struct {
	Kind MsgKind
	// Q is the query. Replies carry only its key, Org and Cnt.
	Q Query
	// From is the replying device.
	From DeviceID
	// Tuples is a reply's tuples, or MsgFilters' filter set.
	Tuples []tuple.Tuple
	// SampleK and TTL ride MsgSampleReq: how many tuples each device
	// samples, and the remaining hop budget (forwarded while TTL > 1).
	SampleK, TTL int
	// Hops is the flood depth: 1 at the originator, one more per forward.
	// A reply carries the depth of the flood copy it answers; a driver may
	// overwrite it on receipt with the route length the reply travelled.
	// Hops is bookkeeping, not payload.
	Hops int
	// Attempt numbers an originator's floods of one query: 0 for the first
	// issue of a phase, n for the query's n-th re-flood. Forwards carry 0.
	Attempt int
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
	// TimerRetry re-floods an open query's current phase.
	TimerRetry
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
	// Send unicasts a reply to the originator, m.Q.Org.
	Send(m Msg)
	// Flood transmits a flood message one hop to the neighbourhood.
	Flood(m Msg)
	// Arm schedules Fire(key, t) after the driver's delay for t; attempt is
	// the number of re-floods so far, for back-off.
	Arm(key QueryKey, t Timer, attempt int)
	// Merged reports that the originator folded reply m into its skyline,
	// now merged: a counted result or survivors set, or a sample.
	Merged(m *Msg, merged []tuple.Tuple)
	// Complete reports that quorum distinct devices answered the query.
	Complete(key QueryKey, merged []tuple.Tuple)
}

// FloodOptions are a driver's protocol settings.
type FloodOptions struct {
	// Retries is how many times an originator re-floods the current phase
	// of a query still open when TimerRetry fires.
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
	// local holds SF receiver state by originator: a device keeps one
	// query in flight per originator (the QueryLog contract), so a newer
	// query replaces the older one's entry.
	local map[DeviceID]*sfLocal
}

// origin is the originator's state for one query.
type origin struct {
	q      Query // as flooded: bare under SF
	sf     bool
	merged []tuple.Tuple
	quorum int
	from   map[DeviceID]struct{} // senders counted toward the quorum
	done   bool                  // completed or expired
	// filtering is SF's collect phase: filters is out (possibly empty).
	filtering bool
	filters   []tuple.Tuple
	attempts  int
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
// Device.Originate's outcome, quorum the completion threshold, and sf
// selects the sampling-filter strategy over BF. A zero quorum completes at
// once.
func (f *Flood) Originate(q Query, local []tuple.Tuple, quorum int, sf bool, io FloodIO) {
	if sf {
		// SF floods carry no filter: devices compute their full local
		// skylines for the collect phase to prune.
		q.Filter, q.FilterVDR, q.Extra = nil, 0, nil
	}
	key := q.Key()
	st := &origin{q: q, sf: sf, merged: local, quorum: quorum, from: make(map[DeviceID]struct{})}
	if f.orig == nil {
		f.orig = make(map[QueryKey]*origin)
	}
	f.orig[key] = st
	if quorum == 0 {
		st.done = true
		io.Complete(key, local)
		return
	}
	f.flood(st, 0, io)
	if sf {
		io.Arm(key, TimerSampleWait, 0)
	}
	f.armRetry(st, io)
}

// flood emits the originator's flood for st's current phase; attempt is 0
// for the phase's first issue and the re-flood number after it.
func (f *Flood) flood(st *origin, attempt int, io FloodIO) {
	m := Msg{Kind: MsgQuery, Q: st.q, Hops: 1, Attempt: attempt}
	switch {
	case st.filtering:
		m.Kind, m.Tuples = MsgFilters, st.filters
	case st.sf:
		m.Kind, m.SampleK, m.TTL = MsgSampleReq, f.Opt.SampleK, f.Opt.SampleTTL
	}
	io.Flood(m)
}

// armRetry arms the next re-flood while the retry budget lasts.
func (f *Flood) armRetry(st *origin, io FloodIO) {
	if st.attempts < f.Opt.Retries {
		io.Arm(st.q.Key(), TimerRetry, st.attempts)
	}
}

// Fire handles a timer armed through FloodIO.Arm. Timers of a query that
// completed, expired or was forgotten do nothing.
func (f *Flood) Fire(key QueryKey, t Timer, io FloodIO) {
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
		f.flood(st, 0, io)
	case TimerRetry:
		// Devices that saw the earlier flood ignore the repeat, so a
		// re-flood only reaches devices the first one missed.
		st.attempts++
		f.flood(st, st.attempts, io)
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
		io.Send(Msg{Kind: MsgResult, Q: keyQuery(key), From: f.Dev.ID, Tuples: res.Skyline, Hops: m.Hops})
		io.Flood(Msg{Kind: MsgQuery, Q: Forwardable(m.Q, res), Hops: m.Hops + 1})
	case MsgSampleReq:
		ls := f.keep(key, res)
		sample := SampleTuples(res.Skyline, m.SampleK, SampleSeed(key, f.Dev.ID))
		ls.sampled = len(sample)
		io.Send(Msg{Kind: MsgSample, Q: keyQuery(key), From: f.Dev.ID, Tuples: sample, Hops: m.Hops})
	case MsgFilters:
		f.survivors(f.keep(key, res), m, io)
	}
}

// forward floods a received flood message one hop further.
func (f *Flood) forward(m *Msg, io FloodIO) {
	fwd := *m
	fwd.Hops++
	fwd.Attempt = 0
	if m.Kind == MsgSampleReq {
		fwd.TTL--
	}
	io.Flood(fwd)
}

// survivors answers a filter flood from the device's stored local skyline.
func (f *Flood) survivors(ls *sfLocal, m *Msg, io FloodIO) {
	ls.replied = true
	surv := Survivors(ls.skyline, m.Tuples)
	io.Send(Msg{Kind: MsgSurvivors, Q: keyQuery(ls.key), From: f.Dev.ID, Tuples: surv, Hops: m.Hops,
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
// any state of the originator's earlier query.
func (f *Flood) keep(key QueryKey, res localsky.Result) *sfLocal {
	if f.local == nil {
		f.local = make(map[DeviceID]*sfLocal)
	}
	ls := &sfLocal{key: key, skyline: res.Skyline, unreduced: res.Unreduced}
	f.local[key.Org] = ls
	return ls
}

// keyQuery is the query part a reply carries: the key alone.
func keyQuery(key QueryKey) Query { return Query{Org: key.Org, Cnt: key.Cnt} }

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
// devices' results it counted, and whether they reached the quorum.
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
