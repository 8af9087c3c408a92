package telemetry

import (
	"bufio"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", "h", []float64{10, 20, 30, 40})
	// 100 uniform samples in (0, 40]: 25 per bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.4)
	}
	for _, tc := range []struct{ p, want float64 }{
		{0.5, 20}, {0.25, 10}, {0.75, 30}, {0.95, 38}, {1, 40},
	} {
		if got := h.Quantile(tc.p); math.Abs(got-tc.want) > 0.5 {
			t.Errorf("Quantile(%g) = %g, want ~%g", tc.p, got, tc.want)
		}
	}
	// Out-of-range p clamps instead of extrapolating.
	if got := h.Quantile(-1); got < 0 || got > 0.5 {
		t.Errorf("Quantile(-1) = %g, want ~0", got)
	}
	if got := h.Quantile(2); math.Abs(got-40) > 0.5 {
		t.Errorf("Quantile(2) = %g, want 40", got)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	var nh *Histogram
	if got := nh.Quantile(0.5); got != 0 {
		t.Errorf("nil Quantile = %g, want 0", got)
	}
	r := NewRegistry()
	empty := r.Histogram("qe_seconds", "h", []float64{1})
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %g, want 0", got)
	}
	// Samples beyond the last bound clamp to it: the estimate degrades
	// honestly rather than inventing a value.
	over := r.Histogram("qo_seconds", "h", []float64{1, 2})
	for i := 0; i < 10; i++ {
		over.Observe(100)
	}
	if got := over.Quantile(0.5); got != 2 {
		t.Errorf("overflow Quantile = %g, want clamp to 2", got)
	}
}

func TestFlightRecorderBasics(t *testing.T) {
	f := NewFlightRecorder(4) // rounds up to 16
	for i := 0; i < 5; i++ {
		f.Record(FlightEvent{T: float64(i), Kind: "k", Peer: int32(i)})
	}
	evs := f.Snapshot()
	if len(evs) != 5 || f.Len() != 5 {
		t.Fatalf("len = %d/%d, want 5", len(evs), f.Len())
	}
	for i, e := range evs {
		if e.Seq != uint64(i) || e.Peer != int32(i) {
			t.Errorf("event %d = %+v, want seq/peer %d", i, e, i)
		}
	}
}

func TestFlightRecorderWraps(t *testing.T) {
	f := NewFlightRecorder(16)
	for i := 0; i < 40; i++ {
		f.Record(FlightEvent{Peer: int32(i)})
	}
	evs := f.Snapshot()
	if len(evs) != 16 {
		t.Fatalf("after wrap len = %d, want 16", len(evs))
	}
	// The ring keeps the most recent 16, in order.
	for i, e := range evs {
		if want := int32(24 + i); e.Peer != want {
			t.Errorf("event %d peer = %d, want %d", i, e.Peer, want)
		}
	}
}

func TestFlightRecorderNilAndZeroAlloc(t *testing.T) {
	var f *FlightRecorder
	f.Record(FlightEvent{Kind: "x"})
	if f.Snapshot() != nil || f.Len() != 0 {
		t.Error("nil recorder must be empty")
	}
	if err := f.DumpFile(filepath.Join(t.TempDir(), "never.jsonl")); err != nil {
		t.Errorf("nil DumpFile: %v", err)
	}
	ev := FlightEvent{Kind: "dead_letter", Peer: 3}
	if avg := testing.AllocsPerRun(1000, func() { f.Record(ev) }); avg != 0 {
		t.Errorf("nil Record allocates %.1f times per op, want 0", avg)
	}
	var l *SpanLog
	st := Stage{T: 1, Kind: StageDecode, Device: 1}
	if avg := testing.AllocsPerRun(1000, func() { l.ObserveAuto(SpanKey{}, st) }); avg != 0 {
		t.Errorf("nil ObserveAuto allocates %.1f times per op, want 0", avg)
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				f.Record(FlightEvent{Peer: int32(w)})
				if i%100 == 0 {
					_ = f.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	evs := f.Snapshot()
	if len(evs) != 64 {
		t.Fatalf("len = %d, want 64", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("snapshot not seq-ordered at %d", i)
		}
	}
}

func TestFlightRecorderDumpFile(t *testing.T) {
	f := NewFlightRecorder(16)
	f.Record(FlightEvent{T: 1.5, Kind: "decode_failure", Peer: 2, Org: 1, Cnt: 3, Detail: "boom"})
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	if err := f.DumpFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ev FlightEvent
	if err := json.Unmarshal(raw, &ev); err != nil {
		t.Fatalf("dump line not JSON: %v\n%s", err, raw)
	}
	if ev.Kind != "decode_failure" || ev.Detail != "boom" || ev.Org != 1 {
		t.Errorf("dumped event = %+v", ev)
	}
}

func TestSpanLogObserveAuto(t *testing.T) {
	l := NewSpanLog()
	k := SpanKey{Org: 7, Cnt: 1}
	// A remote peer sees decode/handle for a query it never issued.
	l.Observe(k, Stage{T: 1, Kind: StageDecode, Device: 3}) // dropped: unknown key
	l.ObserveAuto(k, Stage{T: 2, Kind: StageDecode, Device: 3, Peer: 7, Hops: 1, Bytes: 40})
	l.ObserveAuto(k, Stage{T: 3, Kind: StageHandle, Device: 3})
	spans := l.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Start != 2 || len(sp.Stages) != 2 {
		t.Errorf("auto span start=%g stages=%d, want 2/2", sp.Start, len(sp.Stages))
	}
	if sp.Stages[0].Peer != 7 || sp.Stages[0].Bytes != 40 {
		t.Errorf("stage lost transport fields: %+v", sp.Stages[0])
	}
	// ObserveAuto on an already-open span appends normally.
	l.Begin(SpanKey{Org: 1, Cnt: 1}, 0)
	l.ObserveAuto(SpanKey{Org: 1, Cnt: 1}, Stage{T: 1, Kind: StageWrite, Device: 1})
	if got := len(l.Spans()[1].Stages); got != 2 {
		t.Errorf("stages on pre-opened span = %d, want 2", got)
	}
}

func TestSpanLogWriteJSONL(t *testing.T) {
	l := NewSpanLog()
	l.Begin(SpanKey{Org: 1, Cnt: 0}, 0)
	l.Complete(SpanKey{Org: 1, Cnt: 0}, 1, 4)
	l.Begin(SpanKey{Org: 2, Cnt: 0}, 0.5)
	var sb strings.Builder
	if err := l.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	n := 0
	for sc.Scan() {
		var sp Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("line %d not a span: %v", n, err)
		}
		n++
	}
	if n != 2 {
		t.Errorf("JSONL lines = %d, want 2", n)
	}
	// Transport fields stay omitted for sim-style stages, keeping existing
	// golden span dumps byte-identical.
	if strings.Contains(sb.String(), `"peer"`) || strings.Contains(sb.String(), `"bytes"`) {
		t.Errorf("zero transport fields leaked into JSON: %s", sb.String())
	}
}

// TestSpanKeepsZeroValues pins that zero identifiers serialize: device 0
// originates queries and the one-byte counter wraps, so a span of org 0,
// cnt 0 on device 0 must still carry "org", "cnt" and "device" or its
// stages could not be correlated.
func TestSpanKeepsZeroValues(t *testing.T) {
	l := NewSpanLog()
	k := SpanKey{Org: 0, Cnt: 0}
	l.Begin(k, 0.5)
	l.Complete(k, 1.5, 3)
	var sb strings.Builder
	if err := l.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"org":0`, `"cnt":0`, `"device":0`,
		`"kind":"issue"`, `"kind":"complete"`, `"result_tuples":3`} {
		if !strings.Contains(out, want) {
			t.Errorf("span JSONL missing %s:\n%s", want, out)
		}
	}
}

// TestSpansSnapshotWhileObserving reads every stage of Spans() while
// another goroutine keeps appending to the same span. Spans() must return
// copies, or the reader races with the writer (go test -race).
func TestSpansSnapshotWhileObserving(t *testing.T) {
	l := NewSpanLog()
	k := SpanKey{Org: 1, Cnt: 1}
	l.Begin(k, 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			l.Observe(k, Stage{T: float64(i), Kind: StageProcess, Device: int32(i)})
		}
	}()
	var sum float64
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		for _, sp := range l.Spans() {
			for _, st := range sp.Stages {
				sum += st.T
			}
		}
	}
	sp := l.Spans()[0]
	if len(sp.Stages) != 2001 || sp.Devices != 2000 {
		t.Fatalf("span has %d stages and %d devices, want 2001 and 2000", len(sp.Stages), sp.Devices)
	}
	// A snapshot does not change when the log does.
	l.Observe(k, Stage{T: 1, Kind: StageResult})
	if len(sp.Stages) != 2001 || sp.Results != 0 {
		t.Errorf("snapshot changed after a later Observe: %d stages, %d results", len(sp.Stages), sp.Results)
	}
	_ = sum
}

func TestRegistryBytesReport(t *testing.T) {
	r := NewRegistry()
	r.Counter("radio_bytes_sent_total", "h").Add(1000)
	r.Counter("aodv_bytes_sent_total", "h").Add(200)
	r.Counter("tcp_bytes_out_total", "h").Add(300)
	r.Counter("tcp_bytes_in_total", "h").Add(290)
	r.Counter("tcp_messages_out_total", "h").Add(5) // not a byte counter
	rep := r.Bytes()
	if rep.OnAir != 1500 {
		t.Errorf("OnAir = %d, want 1500", rep.OnAir)
	}
	if got := rep.Layers["tcp"]; got.Sent != 300 || got.Received != 290 {
		t.Errorf("tcp layer = %+v", got)
	}
	if got := rep.Layers["radio"]; got.Sent != 1000 {
		t.Errorf("radio layer = %+v", got)
	}
	s := rep.String()
	if !strings.Contains(s, "bytes on air: 1500") || !strings.Contains(s, "aodv 200") {
		t.Errorf("report line = %q", s)
	}
	var nilReg *Registry
	if got := nilReg.Bytes(); got.OnAir != 0 || len(got.Layers) != 0 {
		t.Errorf("nil registry bytes = %+v", got)
	}
}

func TestRuntimeMetricsAndOnCollect(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	hookRan := 0
	r.OnCollect(func() { hookRan++ })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if hookRan != 1 {
		t.Errorf("OnCollect hook ran %d times, want 1", hookRan)
	}
	out := sb.String()
	for _, want := range []string{"go_goroutines", "go_heap_alloc_bytes", "go_gc_pause_ns_total"} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime exposition missing %s", want)
		}
	}
	if g := r.Gauge("go_goroutines", ""); g.Value() < 1 {
		t.Errorf("go_goroutines = %d, want ≥ 1", g.Value())
	}
	RegisterRuntimeMetrics(nil) // must not panic
}

// TestConcurrentObserveVsExposition hammers spans, histograms, and the
// flight recorder from writers while exposition (Prometheus text, JSON,
// trace JSONL, flight JSONL) runs concurrently — the race-detector gate for
// the scrape-while-hot contract.
func TestConcurrentObserveVsExposition(t *testing.T) {
	// Each writer stops after a fixed number of observations: the span log
	// keeps every stage, so an unbounded writer grows it for as long as the
	// expositions take. The start barrier makes every exposition run while
	// all writers are hot.
	const writers, iters = 4, 2000
	r := NewRegistry()
	h := r.Histogram("cx_seconds", "h", LatencyBuckets())
	c := r.Counter("cx_bytes_sent_total", "h")
	l := NewSpanLog()
	f := NewFlightRecorder(32)
	stop := make(chan struct{})
	var started, wg sync.WaitGroup
	started.Add(writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := SpanKey{Org: int32(w), Cnt: int32(i % 8)}
				l.ObserveAuto(k, Stage{T: float64(i), Kind: StageDecode, Device: int32(w), Peer: 1, Bytes: 10})
				h.Observe(0.001 * float64(i%100))
				c.Add(10)
				f.Record(FlightEvent{Kind: "reconnect", Peer: int32(w)})
				if i == 0 {
					started.Done()
				}
			}
		}(w)
	}
	started.Wait()
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Error(err)
		}
		if err := r.WriteJSON(&sb); err != nil {
			t.Error(err)
		}
		if err := l.WriteJSONL(&sb); err != nil {
			t.Error(err)
		}
		if err := f.WriteJSONL(&sb); err != nil {
			t.Error(err)
		}
		_ = r.Bytes()
		_ = h.Quantile(0.95)
	}
	close(stop)
	wg.Wait()
}

func TestObsMuxEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("mux_total", "h").Inc()
	l := NewSpanLog()
	l.Begin(SpanKey{Org: 1}, 0)
	f := NewFlightRecorder(16)
	f.Record(FlightEvent{Kind: "dial_failure"})
	srv := httptest.NewServer(NewObsMux(r, l, f))
	defer srv.Close()
	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			sb.WriteString(sc.Text())
			sb.WriteString("\n")
		}
		return sb.String()
	}
	if out := get("/metrics"); !strings.Contains(out, "mux_total 1") {
		t.Errorf("/metrics: %s", out)
	}
	if out := get("/trace.jsonl"); !strings.Contains(out, `"org":1`) {
		t.Errorf("/trace.jsonl: %s", out)
	}
	if out := get("/flight.jsonl"); !strings.Contains(out, "dial_failure") {
		t.Errorf("/flight.jsonl: %s", out)
	}
	// Without a span log or flight recorder the endpoints serve empty
	// bodies rather than 404.
	srv2 := httptest.NewServer(NewObsMux(r, nil, nil))
	defer srv2.Close()
	resp, err := srv2.Client().Get(srv2.URL + "/trace.jsonl")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("mux without a span log /trace.jsonl: %v %v", err, resp)
	}
	resp.Body.Close()
}
