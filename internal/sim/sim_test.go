package sim

import (
	"math"
	"sort"
	"testing"
)

// pending returns the number of queued events: the heap's own plus the
// lanes' live ones.
func (e *Engine) pending() int {
	n := len(e.queue)
	for _, l := range e.lanes {
		n += l.live
		if l.queued {
			n-- // the lane's heap entry
		}
	}
	return n
}

// TestEventsRunInTimeOrder schedules the same delays through each
// scheduling API, and through all of them interleaved ("mixed"), and
// demands that the events run in time order.
func TestEventsRunInTimeOrder(t *testing.T) {
	apis := []string{"Schedule", "At", "AtKind"}
	for _, api := range append(apis, "mixed") {
		t.Run(api, func(t *testing.T) {
			e := NewEngine(1)
			var order []float64
			k := e.RegisterKind(func(_ uint32, b uint64) {
				order = append(order, math.Float64frombits(b))
			})
			for i, d := range []float64{5, 1, 3, 2, 4} {
				d := d
				how := api
				if api == "mixed" {
					how = apis[i%len(apis)]
				}
				switch how {
				case "Schedule":
					e.Schedule(d, func() { order = append(order, d) })
				case "At":
					e.At(d, func() { order = append(order, d) })
				case "AtKind":
					e.AtKind(d, k, 0, math.Float64bits(d))
				}
			}
			if n := e.RunAll(); n != 5 {
				t.Fatalf("ran %d events, want 5", n)
			}
			if len(order) != 5 || !sort.Float64sAreSorted(order) {
				t.Fatalf("events out of order: %v", order)
			}
			if e.Now() != 5 {
				t.Errorf("clock = %v, want 5", e.Now())
			}
		})
	}
}

func TestFIFOAmongEqualTimes(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events not FIFO: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var hits []float64
	e.Schedule(1, func() {
		hits = append(hits, e.Now())
		e.Schedule(2, func() { hits = append(hits, e.Now()) })
	})
	e.RunAll()
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 3 {
		t.Fatalf("nested events: %v", hits)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(float64(i), func() { count++ })
	}
	if n := e.Run(5); n != 5 {
		t.Fatalf("Run(5) executed %d, want 5", n)
	}
	if e.Now() != 5 {
		t.Errorf("clock = %v, want 5", e.Now())
	}
	if e.pending() != 5 {
		t.Errorf("pending = %d, want 5", e.pending())
	}
	if n := e.Run(100); n != 5 {
		t.Errorf("second Run executed %d, want 5", n)
	}
	if e.Executed() != 10 {
		t.Errorf("Executed = %d", e.Executed())
	}
}

func TestRunAdvancesClockToUntil(t *testing.T) {
	e := NewEngine(1)
	e.Run(42)
	if e.Now() != 42 {
		t.Errorf("idle Run should advance the clock to until: %v", e.Now())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Errorf("negative delay should panic")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestPastSchedulingPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(5, func() {})
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Errorf("scheduling in the past should panic")
		}
	}()
	e.At(1, func() {})
}

func TestDeterminism(t *testing.T) {
	trace := func(seed int64) []float64 {
		e := NewEngine(seed)
		var out []float64
		var tick func()
		tick = func() {
			out = append(out, e.Now())
			if len(out) < 50 {
				e.Schedule(e.RNG().Float64(), tick)
			}
		}
		e.Schedule(0, tick)
		e.RunAll()
		return out
	}
	a, b := trace(7), trace(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := trace(8)
	diff := len(a) != len(c)
	for i := 0; !diff && i < len(a); i++ {
		diff = a[i] != c[i]
	}
	if !diff {
		t.Errorf("different seeds produced identical traces")
	}
}

// TestScheduleStepZeroAllocs pins the steady-state scheduler at zero heap
// allocations: once the queue slice has reached its high-water mark,
// Schedule/Step cycles with a prebuilt closure must not allocate. This is
// what lets the radio layer's pooled deliveries make the whole transmit
// path allocation-free.
func TestScheduleStepZeroAllocs(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ { // grow the queue to its working size
		e.Schedule(float64(i%7)+1, fn)
	}
	for e.Step() {
	}
	e.Schedule(1, fn)
	e.Step() // warm up
	allocs := testing.AllocsPerRun(50, func() {
		e.Schedule(1, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("Schedule+Step allocated %.1f objects/op, want 0", allocs)
	}
}
