// Package sim provides the discrete-event simulation kernel underneath the
// MANET simulator — the Go counterpart of the JiST/SWANS engine the paper
// uses. Events are ordered by simulated time with FIFO tie-break, the clock
// only moves when events run, and all randomness flows through a seeded
// source so every simulation is reproducible.
//
// The event queue is a value-based 4-ary heap of *compact events*: each
// queue entry is a fixed 32-byte struct carrying a small handler-kind enum
// and two integer arguments instead of an interface or closure payload. The
// queue therefore contains no pointers at all — the garbage collector never
// scans it, which matters when a 100k-node scenario keeps hundreds of
// thousands of frames in flight — and steady-state Schedule/Step cycles
// allocate nothing once the slices have grown to their high-water marks.
//
// Hot components (the radio medium's frame deliveries, per-link queues)
// register their own event kinds with RegisterKind and schedule with
// AtKind/ScheduleKind, packing node IDs and pool-slot indices into the two
// argument words. One-off closures keep using Schedule/At, dispatched
// through a reserved kind whose argument indexes a free-listed side table,
// so the queue stays pointer-free either way.
//
// A timer with one fixed delay that is usually cancelled before it fires
// goes on a Lane instead (lane.go): a FIFO that needs no heap, because its
// fire times never decrease, with O(1) cancel. A lane keeps one heap entry
// for its oldest event, so Step pays nothing for it and its events run at
// the same (time, seq) as heap events would.
//
// Event times remain float64 seconds. The tendermint-style gossip
// simulators this design borrows from use int32 millisecond ticks; here the
// golden-trace determinism gates pin every historical delivery timestamp
// bit-for-bit, so the time representation is the one part of the event that
// must not be quantized.
package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Kind identifies a registered compact-event handler on one engine.
type Kind uint16

// kindFunc is the reserved kind backing the closure API.
const kindFunc Kind = 0

// Engine is a single-threaded discrete-event scheduler.
type Engine struct {
	now   float64
	queue []event // value-based 4-ary min-heap on (at, seq)
	seq   uint64
	rng   *rand.Rand
	ran   uint64

	// kinds maps a Kind to its handler; index 0 is the reserved closure
	// dispatcher.
	kinds []func(a uint32, b uint64)

	// Side table for kindFunc: pending closures live in free-listed slots
	// referenced by the event's a-argument, keeping the queue itself
	// pointer-free.
	funcs    []func()
	funcFree []uint32

	// lanes lists the engine's lanes, so the tests can count their
	// queued events.
	lanes []*Lane
}

// event is one queue entry: 32 bytes, no pointers.
type event struct {
	at   float64
	seq  uint64
	b    uint64
	a    uint32
	kind Kind
}

// NewEngine creates an engine with its clock at zero and a deterministic
// random source.
func NewEngine(seed int64) *Engine {
	e := &Engine{rng: rand.New(rand.NewSource(seed))}
	e.kinds = append(e.kinds, func(a uint32, _ uint64) { // kindFunc
		f := e.funcs[a]
		e.funcs[a] = nil
		e.funcFree = append(e.funcFree, a)
		f()
	})
	return e
}

// RegisterKind installs a compact-event handler and returns its Kind. Hot
// paths register once at setup and then schedule events that carry only
// (kind, a, b) — no closure, no interface, no allocation.
func (e *Engine) RegisterKind(fn func(a uint32, b uint64)) Kind {
	if fn == nil {
		panic("sim: nil kind handler")
	}
	k := Kind(len(e.kinds))
	e.kinds = append(e.kinds, fn)
	return k
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// RNG exposes the engine's seeded random source. All simulation components
// must draw randomness from here (or from sources derived from it) to keep
// runs reproducible.
func (e *Engine) RNG() *rand.Rand { return e.rng }

// Schedule runs f after delay seconds of simulated time. A negative delay
// panics: the past is immutable in a DES.
func (e *Engine) Schedule(delay float64, f func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", delay))
	}
	e.At(e.now+delay, f)
}

// At runs f at absolute simulated time t (not before the current time).
func (e *Engine) At(t float64, f func()) {
	var slot uint32
	if n := len(e.funcFree); n > 0 {
		slot = e.funcFree[n-1]
		e.funcFree = e.funcFree[:n-1]
		e.funcs[slot] = f
	} else {
		slot = uint32(len(e.funcs))
		e.funcs = append(e.funcs, f)
	}
	e.AtKind(t, kindFunc, slot, 0)
}

// ScheduleKind queues a compact event after delay seconds of simulated time.
func (e *Engine) ScheduleKind(delay float64, k Kind, a uint32, b uint64) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", delay))
	}
	e.AtKind(e.now+delay, k, a, b)
}

// AtKind queues a compact event at absolute simulated time t (not before
// the current time). This is the allocation-free scheduling primitive: the
// 32-byte event is stored by value in the pointer-free queue and dispatched
// to the registered handler when it fires. A NaN or infinite t panics: it
// has no place in the heap's order.
func (e *Engine) AtKind(t float64, k Kind, a uint32, b uint64) {
	if !(t >= e.now && t <= math.MaxFloat64) {
		if t < e.now {
			panic(fmt.Sprintf("sim: scheduling at %g before now %g", t, e.now))
		}
		panic(fmt.Sprintf("sim: non-finite event time %g", t))
	}
	if int(k) >= len(e.kinds) {
		panic(fmt.Sprintf("sim: unregistered event kind %d", k))
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, kind: k, a: a, b: b})
}

// Step executes the earliest pending event and reports whether one existed.
// When that entry stands for a lane event cancelled since, Step runs
// nothing and still reports true (see Lane.fire).
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	e.ran++
	e.kinds[ev.kind](ev.a, ev.b)
	return true
}

// Run executes events until the queue empties or the next event lies beyond
// until; the clock finishes at the time of the last executed event (or
// until, whichever the caller prefers to read). It returns the number of
// events executed.
func (e *Engine) Run(until float64) uint64 {
	start := e.ran
	for len(e.queue) > 0 && e.queue[0].at <= until {
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
	return e.ran - start
}

// RunAll drains the queue completely and returns the number of events
// executed.
func (e *Engine) RunAll() uint64 {
	start := e.ran
	for e.Step() {
	}
	return e.ran - start
}

// Executed returns the total number of events run so far.
func (e *Engine) Executed() uint64 { return e.ran }

// --- 4-ary value heap -------------------------------------------------------

// less orders events by time with FIFO tie-break; seq is unique, so the
// order is total and any conforming heap pops the same sequence.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) push(ev event) {
	q := append(e.queue, ev)
	// Sift up: parent of i is (i-1)/4.
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !less(&q[i], &q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	e.queue = q
}

func (e *Engine) pop() event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	// Sift down: children of i are 4i+1 .. 4i+4.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		// Find the smallest of up to four children.
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(&q[j], &q[m]) {
				m = j
			}
		}
		if !less(&q[m], &q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	e.queue = q
	return top
}
