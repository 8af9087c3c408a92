package sim

import "testing"

// TestKindScheduling checks that compact events dispatch to their registered
// handler with their argument words intact, interleaved in (time, FIFO)
// order with relative and absolute closure events.
func TestKindScheduling(t *testing.T) {
	e := NewEngine(1)
	type hit struct {
		a uint32
		b uint64
	}
	var hits []hit
	k := e.RegisterKind(func(a uint32, b uint64) { hits = append(hits, hit{a, b}) })

	var order []int
	e.AtKind(2, k, 7, 1<<40)
	e.Schedule(1, func() { order = append(order, 1) })
	e.ScheduleKind(2, k, 9, 42) // same time as the first: FIFO by seq
	e.At(3, func() { order = append(order, 3) })
	e.RunAll()

	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("closure events out of order: %v", order)
	}
	if len(hits) != 2 || hits[0] != (hit{7, 1 << 40}) || hits[1] != (hit{9, 42}) {
		t.Fatalf("kind events wrong: %+v", hits)
	}
}

// TestKindNested checks that a kind handler may schedule further compact
// events while the queue is mid-drain.
func TestKindNested(t *testing.T) {
	e := NewEngine(1)
	var depths []uint32
	var k Kind
	k = e.RegisterKind(func(a uint32, _ uint64) {
		depths = append(depths, a)
		if a < 3 {
			e.ScheduleKind(1, k, a+1, 0)
		}
	})
	e.AtKind(1, k, 0, 0)
	e.RunAll()
	if len(depths) != 4 || depths[3] != 3 {
		t.Fatalf("nested kind events: %v", depths)
	}
	if e.Now() != 4 {
		t.Fatalf("clock = %g, want 4", e.Now())
	}
}

// TestUnregisteredKindPanics pins the guard against scheduling with a Kind
// the engine never issued.
func TestUnregisteredKindPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Errorf("unregistered kind should panic")
		}
	}()
	e.AtKind(1, Kind(99), 0, 0)
}

// TestSimEventZeroAllocs is the allocation regression gate for the compact
// event path: once the queue has reached its working size, a schedule+pop
// cycle of a registered-kind event must not allocate, and neither must a
// lane's arm+cancel+pop cycle once its ring has. This is what keeps
// the per-frame delivery path of a 30k-node flood allocation-free.
func TestSimEventZeroAllocs(t *testing.T) {
	e := NewEngine(1)
	var sink uint64
	k := e.RegisterKind(func(a uint32, b uint64) { sink += uint64(a) + b })
	for i := 0; i < 64; i++ { // grow the queue to its working size
		e.ScheduleKind(float64(i%7)+1, k, uint32(i), uint64(i))
	}
	for e.Step() {
	}
	e.ScheduleKind(1, k, 1, 2)
	e.Step() // warm up
	allocs := testing.AllocsPerRun(100, func() {
		e.ScheduleKind(1, k, 1, 2)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("ScheduleKind+Step allocated %.1f objects/op, want 0", allocs)
	}

	// The lane cycle: arm, cancel the head, arm again, then one Step skips
	// the cancelled head and the next runs the live one.
	l := e.NewLane(3)
	for i := 0; i < 64; i++ { // grow the ring to its working size
		if h := l.Arm(k, uint32(i), uint64(i)); i%2 == 0 {
			l.Cancel(h)
		}
	}
	for e.Step() {
	}
	cycle := func() {
		l.Cancel(l.Arm(k, 1, 2))
		l.Arm(k, 3, 4)
		e.Step()
		e.Step()
	}
	cycle() // warm up
	allocs = testing.AllocsPerRun(100, cycle)
	if allocs != 0 {
		t.Errorf("lane Arm+Cancel+Step allocated %.1f objects/op, want 0", allocs)
	}
	if e.pending() != 0 {
		t.Errorf("lane cycle left %d events pending", e.pending())
	}
	if sink == 0 {
		t.Fatal("handler never ran")
	}
}
