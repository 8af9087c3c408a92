package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// driverSpan is one interval the benchmark recorded around its own call
// into a layer. Spans of one query share Query; Parent is the ID of the span
// that caused this one (0 for a root).
type driverSpan struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Query   string  `json:"query,omitempty"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// spanRecorder keeps driver spans in memory until the run ends. A nil
// recorder records nothing, which is how untraced runs stay untraced. It is
// used from the benchmark's single driving goroutine only.
type spanRecorder struct {
	t0    time.Time
	spans []driverSpan
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// begin opens a span and returns its ID, 0 on a nil recorder.
func (r *spanRecorder) begin(name string, parent int, query string) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, driverSpan{
		ID: len(r.spans) + 1, Parent: parent, Name: name, Query: query,
		StartUs: float64(time.Since(r.t0).Nanoseconds()) / 1e3,
	})
	return len(r.spans)
}

func (r *spanRecorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id-1].EndUs = float64(time.Since(r.t0).Nanoseconds()) / 1e3
}

// meanUs is the mean duration of the spans with the given name.
func (r *spanRecorder) meanUs(name string) float64 {
	var sum float64
	n := 0
	for _, s := range r.spans {
		if s.Name == name {
			sum += s.EndUs - s.StartUs
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// selfUs maps each span name to its total self time: duration minus the
// part its child spans cover.
func (r *spanRecorder) selfUs() map[string]float64 {
	child := make([]float64, len(r.spans)+1)
	for _, s := range r.spans {
		child[s.Parent] += s.EndUs - s.StartUs
	}
	self := map[string]float64{}
	for _, s := range r.spans {
		self[s.Name] += s.EndUs - s.StartUs - child[s.ID]
	}
	return self
}

// write stores the spans and their self-time summary as JSON.
func (r *spanRecorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		SelfUs map[string]float64 `json:"self_us_by_name"`
		Spans  []driverSpan       `json:"spans"`
	}{r.selfUs(), r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
