package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// This file renders a registry for consumption: the Prometheus text
// exposition format (for /metrics and scrape-style tooling) and a JSON
// snapshot (for the bench harness and ad hoc inspection). Exposition walks
// metrics in sorted order so output is deterministic; it reads values with
// the same atomics the hot paths write, so it can run concurrently with
// live peers or with a simulation's core_* updates.

// snapshotMetric is one metric's point-in-time state, shared by both
// exposition formats.
type snapshotMetric struct {
	name   string
	labels string
	help   string
	kind   string // "counter", "gauge", "histogram"

	value int64 // counter/gauge

	bounds  []float64 // histogram
	buckets []int64   // cumulative
	sum     float64
	count   int64
}

// collect reads every metric. Safe on a nil registry (empty result).
func (r *Registry) collect() []snapshotMetric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	r.mu.Unlock()
	for _, h := range hooks {
		h()
	}
	r.mu.Lock()
	keys := append([]string(nil), r.order...)
	byKey := make(map[string]any, len(keys))
	for _, k := range keys {
		byKey[k] = r.byKey[k]
	}
	r.mu.Unlock()
	sort.Strings(keys)

	out := make([]snapshotMetric, 0, len(keys))
	for _, k := range keys {
		switch m := byKey[k].(type) {
		case *Counter:
			out = append(out, snapshotMetric{
				name: m.name, labels: m.labels, help: m.help,
				kind: "counter", value: m.Value(),
			})
		case *Gauge:
			out = append(out, snapshotMetric{
				name: m.name, labels: m.labels, help: m.help,
				kind: "gauge", value: m.Value(),
			})
		case *Histogram:
			s := snapshotMetric{
				name: m.name, labels: m.labels, help: m.help,
				kind: "histogram", bounds: m.bounds,
				sum: m.Sum(), count: m.Count(),
			}
			cum := int64(0)
			s.buckets = make([]int64, len(m.counts))
			for i := range m.counts {
				cum += m.counts[i].Load()
				s.buckets[i] = cum
			}
			out = append(out, s)
		}
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format. Metrics are sorted by name; HELP/TYPE headers are emitted once
// per metric family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	lastFamily := ""
	for _, m := range r.collect() {
		if m.name != lastFamily {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
				m.name, m.help, m.name, m.kind); err != nil {
				return err
			}
			lastFamily = m.name
		}
		var err error
		switch m.kind {
		case "counter", "gauge":
			err = writeSample(w, m.name, m.labels, float64(m.value), true)
		case "histogram":
			for i, b := range m.buckets {
				le := "+Inf"
				if i < len(m.bounds) {
					le = formatFloat(m.bounds[i])
				}
				lbl := `le="` + le + `"`
				if m.labels != "" {
					lbl = m.labels + "," + lbl
				}
				if err = writeSample(w, m.name+"_bucket", lbl, float64(b), true); err != nil {
					return err
				}
			}
			if err = writeSample(w, m.name+"_sum", m.labels, m.sum, false); err != nil {
				return err
			}
			err = writeSample(w, m.name+"_count", m.labels, float64(m.count), true)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeSample emits one exposition line.
func writeSample(w io.Writer, name, labels string, v float64, integral bool) error {
	val := formatFloat(v)
	if integral {
		val = strconv.FormatInt(int64(v), 10)
	}
	if labels == "" {
		_, err := fmt.Fprintf(w, "%s %s\n", name, val)
		return err
	}
	_, err := fmt.Fprintf(w, "%s{%s} %s\n", name, labels, val)
	return err
}

// formatFloat renders a float compactly and losslessly.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// SnapshotBucket is one cumulative histogram bucket in a snapshot. The
// +Inf bucket sets Inf instead of LE because JSON cannot encode infinity.
type SnapshotBucket struct {
	LE    float64 `json:"le"`
	Inf   bool    `json:"inf,omitempty"`
	Count int64   `json:"count"`
}

// SnapshotHistogram is a histogram's state in a snapshot.
type SnapshotHistogram struct {
	Labels  string           `json:"labels,omitempty"`
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Buckets []SnapshotBucket `json:"buckets"`
}

// Snapshot is a JSON-marshalable point-in-time view of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]SnapshotHistogram `json:"histograms"`
}

// Snapshot captures the registry. Safe on a nil registry (empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]SnapshotHistogram{},
	}
	for _, m := range r.collect() {
		k := key(m.name, m.labels)
		switch m.kind {
		case "counter":
			s.Counters[k] = m.value
		case "gauge":
			s.Gauges[k] = m.value
		case "histogram":
			h := SnapshotHistogram{Labels: m.labels, Count: m.count, Sum: m.sum}
			for i, b := range m.buckets {
				sb := SnapshotBucket{Count: b}
				if i < len(m.bounds) {
					sb.LE = m.bounds[i]
				} else {
					sb.Inf = true
				}
				h.Buckets = append(h.Buckets, sb)
			}
			s.Histograms[m.name] = h
		}
	}
	return s
}

// WriteJSON renders the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
