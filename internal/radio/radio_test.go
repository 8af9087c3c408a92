package radio

import (
	"math"
	"slices"
	"testing"

	"manetskyline/internal/mobility"
	"manetskyline/internal/sim"
	"manetskyline/internal/tuple"
)

type fakePayload int

func (f fakePayload) SizeBytes() int { return int(f) }

type capture struct {
	from []NodeID
	data []Payload
	at   []float64
}

func setup(t *testing.T, cfg Config, positions ...tuple.Point) (*sim.Engine, *Medium, []*capture) {
	t.Helper()
	eng := sim.NewEngine(1)
	m := New(eng, cfg)
	caps := make([]*capture, len(positions))
	for i, p := range positions {
		c := &capture{}
		caps[i] = c
		m.AddNode(mobility.Static(p), func(from NodeID, pl Payload) {
			c.from = append(c.from, from)
			c.data = append(c.data, pl)
			c.at = append(c.at, eng.Now())
		})
	}
	return eng, m, caps
}

func TestUnicastDelivery(t *testing.T) {
	eng, m, caps := setup(t, DefaultConfig(), tuple.Point{X: 0}, tuple.Point{X: 100})
	if !m.Unicast(0, 1, fakePayload(100)) {
		t.Fatalf("in-range unicast should send")
	}
	eng.RunAll()
	if len(caps[1].from) != 1 || caps[1].from[0] != 0 {
		t.Fatalf("receiver did not get the frame: %+v", caps[1])
	}
	// Delivery time = (100+48)*8/2e6 + 0.002.
	want := float64(148*8)/2e6 + 0.002
	if got := caps[1].at[0]; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("delivery at %v, want %v", got, want)
	}
	if m.Counters.FramesSent != 1 || m.Counters.Receptions != 1 {
		t.Errorf("counters %+v", m.Counters)
	}
}

func TestUnicastOutOfRange(t *testing.T) {
	eng, m, caps := setup(t, DefaultConfig(), tuple.Point{X: 0}, tuple.Point{X: 500})
	if m.Unicast(0, 1, fakePayload(10)) {
		t.Fatalf("out-of-range unicast should fail immediately")
	}
	eng.RunAll()
	if len(caps[1].from) != 0 {
		t.Errorf("no delivery expected")
	}
	if m.Counters.FramesSent != 0 {
		t.Errorf("failed send must not count as a transmission")
	}
}

func TestTransmissionSerialization(t *testing.T) {
	// Two back-to-back frames from the same node: the second waits for the
	// first's airtime.
	eng, m, caps := setup(t, DefaultConfig(), tuple.Point{X: 0}, tuple.Point{X: 100})
	m.Unicast(0, 1, fakePayload(2000-48)) // exactly 2000 bytes on air
	m.Unicast(0, 1, fakePayload(2000-48))
	eng.RunAll()
	if len(caps[1].at) != 2 {
		t.Fatalf("want 2 deliveries, got %d", len(caps[1].at))
	}
	air := float64(2000*8) / 2e6 // 8 ms
	if d := caps[1].at[1] - caps[1].at[0]; d < air-1e-9 {
		t.Errorf("second frame arrived %v after first, want ≥ %v (serialized)", d, air)
	}
}

func TestBroadcast(t *testing.T) {
	eng, m, caps := setup(t, DefaultConfig(),
		tuple.Point{X: 0},   // sender
		tuple.Point{X: 100}, // in range
		tuple.Point{X: 200}, // in range
		tuple.Point{X: 900}, // out of range
	)
	n := m.Broadcast(0, fakePayload(50))
	if n != 2 {
		t.Fatalf("broadcast addressed %d receivers, want 2", n)
	}
	eng.RunAll()
	if len(caps[1].from) != 1 || len(caps[2].from) != 1 || len(caps[3].from) != 0 {
		t.Errorf("deliveries: %d %d %d", len(caps[1].from), len(caps[2].from), len(caps[3].from))
	}
	if m.Counters.FramesSent != 1 {
		t.Errorf("broadcast is one transmission, counted %d", m.Counters.FramesSent)
	}
	if m.Counters.Receptions != 2 {
		t.Errorf("receptions = %d, want 2", m.Counters.Receptions)
	}
}

func TestDropWhenReceiverMovesAway(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.Overhead = 10 // absurdly slow frame so the receiver can escape
	m := New(eng, cfg)
	got := 0
	m.AddNode(mobility.Static(tuple.Point{X: 0}), func(NodeID, Payload) {})
	// Receiver races away at 100 m/s starting at origin-adjacent position.
	m.AddNode(runner{}, func(NodeID, Payload) { got++ })
	if !m.Unicast(0, 1, fakePayload(10)) {
		t.Fatalf("receiver in range at send time")
	}
	eng.RunAll()
	if got != 0 {
		t.Errorf("frame should be dropped after receiver escaped")
	}
	if m.Counters.DroppedRange != 1 {
		t.Errorf("DroppedRange = %d", m.Counters.DroppedRange)
	}
}

// runner moves +100 m/s along x starting at (200,0).
type runner struct{}

func (runner) Pos(t float64) tuple.Point { return tuple.Point{X: 200 + 100*t} }

func TestRandomLoss(t *testing.T) {
	eng := sim.NewEngine(3)
	cfg := DefaultConfig()
	cfg.Loss = 0.5
	m := New(eng, cfg)
	got := 0
	m.AddNode(mobility.Static(tuple.Point{X: 0}), func(NodeID, Payload) {})
	m.AddNode(mobility.Static(tuple.Point{X: 50}), func(NodeID, Payload) { got++ })
	const n = 400
	for i := 0; i < n; i++ {
		m.Unicast(0, 1, fakePayload(10))
	}
	eng.RunAll()
	if got == 0 || got == n {
		t.Fatalf("with 50%% loss, deliveries = %d of %d", got, n)
	}
	if got < n/4 || got > 3*n/4 {
		t.Errorf("deliveries %d wildly off expected ~%d", got, n/2)
	}
	if m.Counters.DroppedLoss != n-got {
		t.Errorf("DroppedLoss = %d, want %d", m.Counters.DroppedLoss, n-got)
	}
}

func TestNeighborsAndInRange(t *testing.T) {
	r := DefaultConfig().Range
	_, m, _ := setup(t, DefaultConfig(),
		tuple.Point{X: 0}, tuple.Point{X: r}, tuple.Point{X: r + 1}, tuple.Point{X: 100})
	nb := m.NeighborsInto(0, nil)
	if len(nb) != 2 || nb[0] != 1 || nb[1] != 3 {
		t.Errorf("NeighborsInto(0) = %v, want [1 3]", nb)
	}
	if !m.InRange(0, 1) {
		t.Errorf("boundary distance should be in range (inclusive)")
	}
	if m.InRange(0, 2) {
		t.Errorf("range+1 m should be out of range")
	}
	if m.InRange(0, 0) {
		t.Errorf("a node is not its own neighbor")
	}
}

// TestRangeBoundaryOnePredicate: at and around exactly Range, on an axis and
// on a diagonal, delivery (received) and neighbour discovery (NeighborsInto,
// InRange) must give one answer. A Hypot on one side and a squared compare
// on the other round differently in the last place.
func TestRangeBoundaryOnePredicate(t *testing.T) {
	r := DefaultConfig().Range
	for _, d := range []float64{
		r * (1 - 1e-16), r, r * (1 + 1e-16),
		math.Nextafter(r, 0), math.Nextafter(r, 2*r), r - 1, r + 1,
	} {
		for name, at := range map[string]tuple.Point{
			"axis":     {X: d},
			"diagonal": {X: d / math.Sqrt2, Y: d / math.Sqrt2},
			"3-4-5":    {X: d * 0.6, Y: d * 0.8},
		} {
			_, m, _ := setup(t, DefaultConfig(), tuple.Point{}, at)
			nbr := slices.Contains(m.NeighborsInto(0, nil), 1)
			if got := m.InRange(0, 1); got != nbr {
				t.Errorf("%s d=%.17g: InRange %v, NeighborsInto %v", name, d, got, nbr)
			}
			if got := m.received(0, 1, m.PosOf(0)); got != nbr {
				t.Errorf("%s d=%.17g: received %v, NeighborsInto %v", name, d, got, nbr)
			}
			if want := d <= r; name == "axis" && nbr != want {
				t.Errorf("axis d=%.17g: neighbour %v, want %v", d, nbr, want)
			}
		}
	}
}

func TestSelfUnicastPanics(t *testing.T) {
	_, m, _ := setup(t, DefaultConfig(), tuple.Point{X: 0})
	defer func() {
		if recover() == nil {
			t.Errorf("self-addressed unicast should panic")
		}
	}()
	m.Unicast(0, 0, fakePayload(1))
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := []Config{
		{Range: 0, Bandwidth: 1},
		{Range: 1, Bandwidth: 0},
		{Range: 1, Bandwidth: 1, Overhead: -1},
		{Range: 1, Bandwidth: 1, Loss: 1},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

func TestNilHandlerPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	m := New(eng, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Errorf("nil handler should panic")
		}
	}()
	m.AddNode(mobility.Static(tuple.Point{}), nil)
}
