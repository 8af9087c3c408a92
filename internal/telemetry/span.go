package telemetry

import (
	"encoding/json"
	"io"
	"slices"
	"sync"
)

// Spans record queries as per-query timelines: one Span per query,
// accumulating its issue→process→filter-update→result→complete stages
// together with hop counts and filter-prune tallies. The simulator
// (internal/manet) and the TCP peer runtime feed the same structure, and
// WriteJSONL is the one trace format both emit. Spans are an enabled-only
// feature and may allocate (stage slices grow); the zero-alloc guarantee of
// this package covers counters, gauges, and histograms.

// Stage kinds, in canonical lifecycle order.
const (
	StageIssue        = "issue"
	StageProcess      = "process"
	StageFilterUpdate = "filter-update"
	StageResult       = "result"
	StageRetry        = "retry"
	StageComplete     = "complete"
)

// SF (sampling-filter) stage kinds: the originator's sample arrivals and
// its filter-set broadcast, between issue and the survivor results.
const (
	StageSample    = "sample"
	StageFilterSet = "filter-set"
)

// Transport stage kinds recorded by the live TCP tier: one frame's journey
// is enqueue → (dial) → write on the sender and decode → handle → (reply)
// on the receiver. Merging the write/decode pairs across peers (see
// internal/trace) recovers the causal per-hop timeline.
const (
	StageEnqueue = "enqueue"
	StageDial    = "dial"
	StageWrite   = "write"
	StageDecode  = "decode"
	StageHandle  = "handle"
	StageReply   = "reply"
)

// SpanKey identifies one query instance (the paper's (id, cnt) pair).
type SpanKey struct {
	Org int32 `json:"org"`
	Cnt int32 `json:"cnt"`
}

// Stage is one step of a query's timeline.
type Stage struct {
	// T is the stage's timestamp: simulated seconds in the simulator,
	// wall-clock seconds since query start in the live runtime.
	T float64 `json:"t"`
	// Kind is one of the Stage* constants.
	Kind string `json:"kind"`
	// Device is the device the stage happened on.
	Device int32 `json:"device"`
	// Tuples counts tuples involved (local skyline size, result size).
	Tuples int `json:"tuples,omitempty"`
	// Hops is the network distance the triggering message travelled
	// (flood depth for process stages, route length for result stages,
	// TCP hop number for transport stages).
	Hops int `json:"hops,omitempty"`
	// Pruned counts tuples the query's filter(s) removed at this device.
	Pruned int `json:"pruned,omitempty"`
	// Peer, for transport stages, is the other end of the hop: the
	// destination for enqueue/dial/write/reply, the sender for
	// decode/handle. Zero-valued stages omit it, so simulator spans (and
	// their goldens) are unchanged.
	Peer int32 `json:"peer,omitempty"`
	// Bytes is the on-wire size of the frame a transport stage moved.
	Bytes int `json:"bytes,omitempty"`
}

// Span is one query's assembled timeline with aggregate tallies.
type Span struct {
	Org int32 `json:"org"`
	Cnt int32 `json:"cnt"`
	// Start and End are the issue and completion timestamps; End is
	// meaningful only when Done.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	Done  bool    `json:"done"`
	// Stages is the ordered timeline.
	Stages []Stage `json:"stages"`
	// Devices counts process stages (each device processes a query at most
	// once, so this is the number of devices the query reached).
	Devices int `json:"devices"`
	// Results counts result stages observed at the originator.
	Results int `json:"results"`
	// MaxHops is the largest hop count any stage reported.
	MaxHops int `json:"max_hops"`
	// Pruned is the total filter-prune tally across devices.
	Pruned int `json:"pruned"`
	// FilterUpdates counts dynamic filter replacements along the way.
	FilterUpdates int `json:"filter_updates"`
	// ResultTuples is the final merged skyline size (when Done).
	ResultTuples int `json:"result_tuples"`
	// Retries counts originator re-issues under the retry/backoff policy.
	Retries int `json:"retries,omitempty"`
	// Partial marks a query finalized by its deadline before the normal
	// completion condition was met.
	Partial bool `json:"partial,omitempty"`
	// Recall, when set, is the post-run recall of the query's result
	// against the centralized constrained-skyline oracle.
	Recall *float64 `json:"recall,omitempty"`
}

// Duration is End-Start for completed spans, 0 otherwise.
func (s *Span) Duration() float64 {
	if !s.Done {
		return 0
	}
	return s.End - s.Start
}

// SpanLog collects spans for many queries. All methods are safe on a nil
// receiver (no-op), so callers instrument unconditionally, and are
// goroutine-safe for the live runtime.
type SpanLog struct {
	mu    sync.Mutex
	spans map[SpanKey]*Span
	order []SpanKey
}

// NewSpanLog returns an empty span log.
func NewSpanLog() *SpanLog {
	return &SpanLog{spans: make(map[SpanKey]*Span)}
}

// Begin opens a span at time t on the originating device and records its
// issue stage.
func (l *SpanLog) Begin(k SpanKey, t float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.spans[k]; ok {
		return
	}
	sp := &Span{Org: k.Org, Cnt: k.Cnt, Start: t}
	sp.Stages = append(sp.Stages, Stage{T: t, Kind: StageIssue, Device: k.Org})
	l.spans[k] = sp
	l.order = append(l.order, k)
}

// Observe appends a stage to an open span and folds it into the span's
// aggregate tallies. Stages for unknown keys are dropped.
func (l *SpanLog) Observe(k SpanKey, st Stage) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	sp := l.spans[k]
	if sp == nil {
		return
	}
	sp.Stages = append(sp.Stages, st)
	switch st.Kind {
	case StageProcess:
		sp.Devices++
		sp.Pruned += st.Pruned
	case StageResult:
		sp.Results++
	case StageFilterUpdate:
		sp.FilterUpdates++
	case StageRetry:
		sp.Retries++
	}
	if st.Hops > sp.MaxHops {
		sp.MaxHops = st.Hops
	}
}

// ObserveAuto is Observe for peers that did not originate the query: if the
// span is unknown it is opened first (without an issue stage — only the
// originator issues), starting at the stage's timestamp. Remote peers in the
// live runtime use it so a forwarded query's decode/handle stages land in a
// span keyed by the same (org, cnt) the originator used, and a later merge
// (internal/trace) can stitch the per-peer logs into one timeline.
func (l *SpanLog) ObserveAuto(k SpanKey, st Stage) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.spans[k] == nil {
		l.spans[k] = &Span{Org: k.Org, Cnt: k.Cnt, Start: st.T}
		l.order = append(l.order, k)
	}
	l.mu.Unlock()
	l.Observe(k, st)
}

// MarkPartial flags an open span as deadline-finalized; call before
// Complete.
func (l *SpanLog) MarkPartial(k SpanKey) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if sp := l.spans[k]; sp != nil {
		sp.Partial = true
	}
}

// SetRecall annotates a span with its query's post-run recall against the
// centralized oracle.
func (l *SpanLog) SetRecall(k SpanKey, recall float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if sp := l.spans[k]; sp != nil {
		sp.Recall = &recall
	}
}

// Complete closes a span at time t with the final merged result size.
func (l *SpanLog) Complete(k SpanKey, t float64, resultTuples int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	sp := l.spans[k]
	if sp == nil || sp.Done {
		return
	}
	sp.Done = true
	sp.End = t
	sp.ResultTuples = resultTuples
	sp.Stages = append(sp.Stages, Stage{
		T: t, Kind: StageComplete, Device: k.Org, Tuples: resultTuples,
	})
}

// Spans returns a snapshot of every span in Begin order: each span and its
// Stages are copied under the lock, so callers may read them while other
// goroutines keep observing.
func (l *SpanLog) Spans() []*Span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Span, 0, len(l.order))
	for _, k := range l.order {
		sp := *l.spans[k]
		sp.Stages = slices.Clone(sp.Stages)
		if sp.Recall != nil {
			r := *sp.Recall
			sp.Recall = &r
		}
		out = append(out, &sp)
	}
	return out
}

// Len returns the number of open or completed spans.
func (l *SpanLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.order)
}

// WriteJSONL dumps every span as one JSON object per line — the /trace.jsonl
// wire format cmd/skytrace consumes.
func (l *SpanLog) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, sp := range l.Spans() {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return nil
}
