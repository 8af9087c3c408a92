package sim

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// TestLaneInterleavesWithHeap arms lane events between heap events of the
// same and of other times, and demands the (time, arm order) order the heap
// alone would give.
func TestLaneInterleavesWithHeap(t *testing.T) {
	e := NewEngine(1)
	var got []uint32
	k := e.RegisterKind(func(a uint32, _ uint64) { got = append(got, a) })
	l := e.NewLane(2)
	e.AtKind(2, k, 1, 0)
	l.Arm(k, 2, 0) // at 2, after event 1
	e.AtKind(2, k, 3, 0)
	e.AtKind(1, k, 0, 0)
	e.Schedule(1.5, func() {
		l.Arm(k, 5, 0) // at 3.5
		e.AtKind(3.5, k, 6, 0)
		e.AtKind(3, k, 4, 0)
	})
	if n := e.RunAll(); n != 8 {
		t.Fatalf("ran %d events, want 8", n)
	}
	if want := []uint32{0, 1, 2, 3, 4, 5, 6}; !slices.Equal(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	if e.Now() != 3.5 {
		t.Errorf("clock = %g, want 3.5", e.Now())
	}
}

// TestLaneCancel checks that a cancelled event never runs and is not
// counted, whether it is the lane's head or not, and that cancelling a
// fired or cancelled event does nothing.
func TestLaneCancel(t *testing.T) {
	e := NewEngine(1)
	var got []uint32
	k := e.RegisterKind(func(a uint32, _ uint64) { got = append(got, a) })
	l := e.NewLane(1)
	h0 := l.Arm(k, 0, 0)
	h1 := l.Arm(k, 1, 0)
	l.Arm(k, 2, 0)
	h3 := l.Arm(k, 3, 0)
	l.Cancel(h0) // the head, whose heap entry is already pushed
	l.Cancel(h3)
	l.Cancel(h3)
	if p := e.pending(); p != 2 {
		t.Fatalf("pending = %d, want 2", p)
	}
	if n := e.RunAll(); n != 2 {
		t.Fatalf("ran %d events, want 2", n)
	}
	l.Cancel(h1) // already fired
	if want := []uint32{1, 2}; !slices.Equal(got, want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	if e.Executed() != 2 || e.pending() != 0 {
		t.Errorf("executed %d, pending %d; want 2, 0", e.Executed(), e.pending())
	}
	// The heap entry of a cancelled head must not run the next event
	// early, ahead of a heap event between the two.
	got = got[:0]
	l.Cancel(l.Arm(k, 4, 0))                   // due 2
	e.Schedule(0.5, func() { l.Arm(k, 6, 0) }) // due 2.5
	e.AtKind(2.25, k, 5, 0)
	e.RunAll()
	if want := []uint32{5, 6}; !slices.Equal(got, want) {
		t.Fatalf("after a cancelled head ran %v, want %v", got, want)
	}
	// A lane whose every event was cancelled leaves nothing behind.
	l.Cancel(l.Arm(k, 9, 0))
	if n := e.RunAll(); n != 0 || len(got) != 2 {
		t.Errorf("a cancelled-only lane ran %d events", n)
	}
}

// TestLaneGrows arms more events than the ring holds, cancelling some,
// across several grow steps.
func TestLaneGrows(t *testing.T) {
	e := NewEngine(1)
	var got []uint32
	k := e.RegisterKind(func(a uint32, _ uint64) { got = append(got, a) })
	l := e.NewLane(0.25)
	var want []uint32
	for i := uint32(0); i < 100; i++ {
		h := l.Arm(k, i, 0)
		if i%3 == 0 {
			l.Cancel(h)
		} else {
			want = append(want, i)
		}
		if i%10 == 9 {
			e.Step() // fire or skip the head while the ring is part full
		}
	}
	e.RunAll()
	if !slices.Equal(got, want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
}

// TestNonFiniteTimePanics checks that no scheduling call lets a NaN or
// infinite time into the heap, where it would break the order.
func TestNonFiniteTimePanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(e *Engine)
	}{
		{"AtKind NaN", func(e *Engine) { e.AtKind(math.NaN(), kindFunc, 0, 0) }},
		{"AtKind +Inf", func(e *Engine) { e.AtKind(math.Inf(1), kindFunc, 0, 0) }},
		{"At NaN", func(e *Engine) { e.At(math.NaN(), func() {}) }},
		{"Schedule NaN", func(e *Engine) { e.Schedule(math.NaN(), func() {}) }},
		{"Schedule +Inf", func(e *Engine) { e.Schedule(math.Inf(1), func() {}) }},
		{"ScheduleKind NaN", func(e *Engine) { e.ScheduleKind(math.NaN(), kindFunc, 0, 0) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine(1)
			defer func() {
				r := recover()
				if s, _ := r.(string); !strings.Contains(s, "non-finite event time") {
					t.Errorf("panic %v, want a non-finite event time", r)
				}
			}()
			c.f(e)
		})
	}
}

// TestNewLaneRejectsBadDelay checks that a lane's delay is finite and not
// negative.
func TestNewLaneRejectsBadDelay(t *testing.T) {
	cases := []struct {
		delay float64
		want  string
	}{
		{math.NaN(), "non-finite delay"},
		{math.Inf(1), "non-finite delay"},
		{math.Inf(-1), "negative delay"},
		{-1, "negative delay"},
	}
	for _, c := range cases {
		func() {
			defer func() {
				r := recover()
				if s, _ := r.(string); !strings.Contains(s, c.want) {
					t.Errorf("NewLane(%g) panic %v, want %q", c.delay, r, c.want)
				}
			}()
			NewEngine(1).NewLane(c.delay)
		}()
	}
}

// firing is one event run, as FuzzLaneOrder compares them. pending is
// Engine.pending as the event runs, less the reference run's cancelled events
// still in the heap.
type firing struct {
	at      float64
	seq     uint64
	kind    Kind
	a       uint32
	b       uint64
	pending int
}

// laneProgram runs the event program that ops encodes, on lanes or, with
// reference set, with every event in the heap and cancelled ones dropped
// when they fire. Each byte is one operation: queue a heap event, arm an
// event on one of two lanes, or cancel an armed one. The first bytes run at
// time zero, and every event that runs performs the next one or two. It
// returns the events run, in order, and fails t if Executed disagrees with
// them or events are left pending.
func laneProgram(t *testing.T, ops []byte, reference bool) []firing {
	e := NewEngine(1)
	lanes := [2]*Lane{e.NewLane(1), e.NewLane(2)}
	var (
		out       []firing
		seqs      []uint64 // by event id, which b carries
		handles   []Handle // by event id; lane events only
		onLane    []int    // by event id: the lane, -1 for the heap
		cancelled []bool   // by event id (reference)
		waiting   int      // cancelled, not yet popped (reference)
		kinds     [2]Kind
		next      int
	)
	do := func() {
		if next == len(ops) {
			return
		}
		op := ops[next]
		next++
		id := uint64(len(seqs))
		kind := kinds[op>>7]
		lane := -1
		var h Handle
		switch op % 5 {
		case 0, 1: // heap event, 0 to 3 s away, or 0.5 s
			d := float64(op / 5 % 4)
			if op%5 == 1 {
				d = 0.5
			}
			e.AtKind(e.Now()+d, kind, uint32(op), id)
		case 2, 3: // lane event
			lane = int(op%5 - 2)
			if reference {
				e.AtKind(e.Now()+lanes[lane].delay, kind, uint32(op), id)
			} else {
				h = lanes[lane].Arm(kind, uint32(op), id)
			}
		case 4: // cancel a lane event armed earlier, fired or not
			var armed []uint64
			for i, l := range onLane {
				if l >= 0 {
					armed = append(armed, uint64(i))
				}
			}
			if len(armed) == 0 {
				return
			}
			victim := armed[int(op/5)%len(armed)]
			if reference {
				if !cancelled[victim] && !slices.ContainsFunc(out, func(f firing) bool { return f.b == victim }) {
					waiting++
				}
				cancelled[victim] = true
			} else {
				lanes[onLane[victim]].Cancel(handles[victim])
			}
			return
		}
		seqs = append(seqs, e.seq)
		handles = append(handles, h)
		onLane = append(onLane, lane)
		cancelled = append(cancelled, false)
	}
	var ran uint64
	handler := func(kind *Kind) func(uint32, uint64) {
		return func(a uint32, b uint64) {
			if reference && cancelled[b] {
				waiting--
				return
			}
			ran++
			out = append(out, firing{at: e.Now(), seq: seqs[b], kind: *kind, a: a, b: b, pending: e.pending() - waiting})
			do()
			if a%2 == 1 {
				do()
			}
		}
	}
	kinds[0] = e.RegisterKind(handler(&kinds[0]))
	kinds[1] = e.RegisterKind(handler(&kinds[1]))
	for i := 0; i < 4; i++ {
		do()
	}
	for e.Step() {
	}
	if !reference && e.Executed() != ran {
		t.Fatalf("Executed = %d, but %d events ran", e.Executed(), ran)
	}
	if e.pending()-waiting != 0 {
		t.Fatalf("pending = %d after the run", e.pending()-waiting)
	}
	return out
}

// FuzzLaneOrder checks the lane against the heap: a random program of heap
// events, lane arms and cancels on two lanes, with many equal times, must
// run the same events at the same (at, seq) in the same order as the same
// program with every event in the heap and cancelled ones dropped when they
// fire.
func FuzzLaneOrder(f *testing.F) {
	f.Add([]byte{2, 3, 0, 4, 7, 8, 2, 12, 3, 9, 14, 130, 131, 5, 17, 4, 2, 3})
	f.Add([]byte{2, 2, 2, 2, 4, 9, 14, 19, 3, 3, 0, 1, 5, 10, 15})
	f.Add([]byte{3, 128, 2, 131, 4, 4, 4, 0, 5, 2, 3, 4, 9, 2, 6, 11, 7, 12})
	f.Add([]byte("01180"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		got := laneProgram(t, ops, false)
		want := laneProgram(t, ops, true)
		if !slices.Equal(got, want) {
			t.Fatalf("lanes ran\n%v\nthe heap ran\n%v", got, want)
		}
	})
}
