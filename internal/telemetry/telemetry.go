// Package telemetry is the shared measurement vocabulary of the
// reproduction: a registry of counters, gauges, and fixed-bucket histograms
// that the core protocol and the live TCP peers report into as they run,
// and that the MANET simulator fills with its radio, routing and query
// totals when a run ends, plus per-query issue→process→…→complete spans,
// the one trace both the simulator and the live peers write.
//
// Two properties shape the design:
//
//   - Hot-path instrumentation is allocation-free. Counters and histogram
//     observations are single atomic operations on pre-registered metric
//     objects; nothing on the increment path touches the registry, takes a
//     lock, or allocates (pinned by TestTelemetryZeroAllocs, the same kind
//     of gate as sim's TestScheduleStepZeroAllocs).
//   - Disabled telemetry is a nil check. Every metric method is safe on a
//     nil receiver and registering against a nil *Registry yields nil
//     metrics, so instrumented code increments unconditionally and a
//     scenario without telemetry pays one predictable branch per site.
//
// All metric values are updated with sync/atomic, so one registry may be
// shared between the single-threaded simulator, concurrent TCP peers, and
// an HTTP exposition goroutine (see http.go) without further locking.
package telemetry

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v      atomic.Int64
	name   string
	labels string
	help   string
}

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be non-negative for Prometheus semantics; this is not
// enforced on the hot path). Safe on a nil receiver (no-op).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	v      atomic.Int64
	name   string
	labels string
	help   string
}

// Set stores v. Safe on a nil receiver (no-op).
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Inc adds one. Safe on a nil receiver (no-op).
func (g *Gauge) Inc() {
	if g != nil {
		g.v.Add(1)
	}
}

// Dec subtracts one. Safe on a nil receiver (no-op).
func (g *Gauge) Dec() {
	if g != nil {
		g.v.Add(-1)
	}
}

// Add adds n. Safe on a nil receiver (no-op).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram: bounds are the inclusive upper
// bounds of each bucket, counts[len(bounds)] is the implicit +Inf bucket.
// Buckets are stored non-cumulatively and accumulated at exposition time.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1
	sum    atomic.Uint64  // float64 bits, CAS-updated
	count  atomic.Int64
	name   string
	labels string
	help   string
}

// Observe records one sample. The bucket scan is linear — exposition-grade
// histograms have ~10 buckets, where a predictable scan beats binary
// search — and the sum update is a CAS loop on the float bits. Safe on a
// nil receiver (no-op); allocation-free on the enabled path.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Mean returns the mean observation, or 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the p-quantile (0 ≤ p ≤ 1) from the fixed buckets by
// linear interpolation inside the bucket holding the target rank — the same
// estimate Prometheus's histogram_quantile computes. Samples in the +Inf
// bucket clamp to the largest finite bound (there is nothing better to
// report without retained samples). Returns 0 on a nil or empty histogram.
// The estimate's resolution is the bucket width; summary lines that no
// longer retain raw samples trade exactness for O(1) memory here.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	} else if p > 1 {
		p = 1
	}
	rank := p * float64(total)
	cum := int64(0)
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			if i >= len(h.bounds) {
				// +Inf bucket: clamp to the largest finite bound.
				if len(h.bounds) == 0 {
					return 0
				}
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			return lo + (hi-lo)*(rank-float64(cum))/float64(c)
		}
		cum += c
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// Registry holds named metrics. The zero value is not usable; call
// NewRegistry. A nil *Registry is the disabled state: its constructors
// return nil metrics whose methods no-op.
type Registry struct {
	mu    sync.Mutex
	byKey map[string]any
	order []string
	hooks []func()
}

// OnCollect registers a hook that runs before every exposition pass
// (WritePrometheus, Snapshot, Bytes). Lazily sampled metrics — runtime
// gauges, queue depths held elsewhere — use it to refresh their gauges only
// when someone is actually looking. No-op on a nil registry.
func (r *Registry) OnCollect(f func()) {
	if r == nil || f == nil {
		return
	}
	r.mu.Lock()
	r.hooks = append(r.hooks, f)
	r.mu.Unlock()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]any)}
}

// key builds the dedupe key for a metric identity.
func key(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// validName rejects names that would corrupt the text exposition.
func validName(name string) {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	for _, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9')
		if !ok {
			panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
		}
	}
}

// register installs a metric under its key, or returns the existing one.
func register[T any](r *Registry, name, labels string, mk func() *T) *T {
	validName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	k := key(name, labels)
	if m, ok := r.byKey[k]; ok {
		t, ok := m.(*T)
		if !ok {
			panic(fmt.Sprintf("telemetry: metric %s re-registered as a different type", k))
		}
		return t
	}
	t := mk()
	r.byKey[k] = t
	r.order = append(r.order, k)
	return t
}

// Counter registers (or fetches) a counter. Nil registry ⇒ nil counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterL(name, "", help)
}

// CounterL is Counter with a constant label block, e.g. `mode="UNE"`.
func (r *Registry) CounterL(name, labels, help string) *Counter {
	if r == nil {
		return nil
	}
	return register(r, name, labels, func() *Counter {
		return &Counter{name: name, labels: labels, help: help}
	})
}

// Gauge registers (or fetches) a gauge. Nil registry ⇒ nil gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeL(name, "", help)
}

// GaugeL is Gauge with a constant label block.
func (r *Registry) GaugeL(name, labels, help string) *Gauge {
	if r == nil {
		return nil
	}
	return register(r, name, labels, func() *Gauge {
		return &Gauge{name: name, labels: labels, help: help}
	})
}

// Histogram registers (or fetches) a histogram with the given strictly
// increasing bucket upper bounds (a +Inf bucket is implicit). Nil registry
// ⇒ nil histogram.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.HistogramL(name, "", help, bounds)
}

// HistogramL is Histogram with a constant label block.
func (r *Registry) HistogramL(name, labels, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %s bounds not strictly increasing", name))
		}
	}
	return register(r, name, labels, func() *Histogram {
		return &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
			name:   name, labels: labels, help: help,
		}
	})
}

// LatencyBuckets are exponential-ish second buckets suitable for local-net
// query latencies (1 ms … 2.5 s).
func LatencyBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}
}

// SizeBuckets are power-of-two count buckets (1 … 1024) suitable for
// skyline and result sizes.
func SizeBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
}
