package sim

import (
	"fmt"
	"math"
)

// Lane is a FIFO of compact events that all fire the same fixed delay after
// they are armed. The clock never runs backwards, so a lane's fire times
// never decrease and its events need no heap of their own: the lane keeps
// at most one entry in the engine's heap, carrying its oldest pending
// event's (at, seq), and re-pushes that entry for the next event when it
// pops.
//
// An armed event can be cancelled in O(1). A cancelled event never runs and
// is not counted in Executed. Every event that does run fires at the same
// (at, seq), and so in the same order, as if it had been queued with
// ScheduleKind at the moment it was armed. A lane suits a timer with one
// fixed delay that is usually cancelled before it fires; anything else
// belongs in the heap.
type Lane struct {
	e     *Engine
	delay float64
	// kind is the engine kind of the lane's heap entry; its b-argument is
	// the seq of the event the entry was pushed for.
	kind Kind
	// ring is a power-of-two circular buffer. head and tail are absolute
	// positions: ring[head&mask] is the oldest entry still held, and tail
	// is the handle the next Arm returns. A cancelled entry keeps its slot
	// with seq 0 (live events have seq ≥ 1) until the head passes it.
	ring       []event
	head, tail uint64
	live       int  // armed, neither fired nor cancelled
	queued     bool // the lane has an entry in the engine's heap
}

// Handle names one event armed on a lane, for Cancel. Handles are never
// reused, so cancelling an event that already fired or was already
// cancelled does nothing.
type Handle uint64

// NewLane creates a lane whose events fire delay seconds after they are
// armed. A negative, NaN or infinite delay panics.
func (e *Engine) NewLane(delay float64) *Lane {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", delay))
	}
	if !(delay <= math.MaxFloat64) {
		panic(fmt.Sprintf("sim: non-finite delay %g", delay))
	}
	l := &Lane{e: e, delay: delay, ring: make([]event, 16)}
	l.kind = e.RegisterKind(l.fire)
	e.lanes = append(e.lanes, l)
	return l
}

// Arm queues a compact event delay seconds from now and returns its handle.
// Like AtKind, it takes the event's seq now, so the event keeps its place
// among the heap's events of the same time.
func (l *Lane) Arm(k Kind, a uint32, b uint64) Handle {
	e := l.e
	if int(k) >= len(e.kinds) {
		panic(fmt.Sprintf("sim: unregistered event kind %d", k))
	}
	if l.tail-l.head == uint64(len(l.ring)) {
		l.grow()
	}
	e.seq++
	ev := event{at: e.now + l.delay, seq: e.seq, kind: k, a: a, b: b}
	l.ring[l.tail&uint64(len(l.ring)-1)] = ev
	h := Handle(l.tail)
	l.tail++
	l.live++
	if !l.queued {
		// Without a heap entry the lane holds nothing, so ev is its head.
		l.enqueue(&ev)
	}
	return h
}

// Cancel drops an armed event. It does nothing when the event already fired
// or was cancelled.
func (l *Lane) Cancel(h Handle) {
	i := uint64(h)
	if i < l.head || i >= l.tail {
		return
	}
	ev := &l.ring[i&uint64(len(l.ring)-1)]
	if ev.seq == 0 {
		return
	}
	ev.seq = 0
	l.live--
}

// enqueue pushes the lane's heap entry for its head ev.
func (l *Lane) enqueue(ev *event) {
	l.queued = true
	l.e.push(event{at: ev.at, seq: ev.seq, kind: l.kind, b: ev.seq})
}

// skipCancelled advances the head past cancelled entries.
func (l *Lane) skipCancelled() {
	mask := uint64(len(l.ring) - 1)
	for l.head != l.tail && l.ring[l.head&mask].seq == 0 {
		l.head++
	}
}

// fire runs when the lane's heap entry pops; seq is the event it was pushed
// for. If that event is still live it runs, after the entry for the next
// live event is pushed. If it was cancelled, nothing runs: the pop is taken
// back out of Executed, and the entry is pushed again for the next live
// event, which fires later. A skipped pop leaves the clock at the cancelled
// event's time, which no pending event precedes.
func (l *Lane) fire(_ uint32, seq uint64) {
	l.queued = false
	l.skipCancelled()
	if l.head == l.tail {
		l.e.ran--
		return
	}
	mask := uint64(len(l.ring) - 1)
	ev := l.ring[l.head&mask]
	if ev.seq != seq {
		l.e.ran--
		l.enqueue(&ev)
		return
	}
	l.head++
	l.live--
	l.skipCancelled()
	if l.head != l.tail {
		l.enqueue(&l.ring[l.head&mask])
	}
	l.e.kinds[ev.kind](ev.a, ev.b)
}

// grow doubles the ring, keeping every entry at its absolute position.
func (l *Lane) grow() {
	ring := make([]event, 2*len(l.ring))
	oldMask, mask := uint64(len(l.ring)-1), uint64(len(ring)-1)
	for i := l.head; i != l.tail; i++ {
		ring[i&mask] = l.ring[i&oldMask]
	}
	l.ring = ring
}
