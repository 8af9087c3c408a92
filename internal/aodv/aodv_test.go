package aodv

import (
	"testing"

	"manetskyline/internal/mobility"
	"manetskyline/internal/radio"
	"manetskyline/internal/sim"
	"manetskyline/internal/tuple"
)

// hasRoute reports whether src currently holds a valid route to dst.
func (n *Network) hasRoute(src, dst radio.NodeID) bool {
	return n.nodes[src].validRoute(dst) != nil
}

type msg int

func (m msg) SizeBytes() int { return 64 }

type delivery struct {
	src radio.NodeID
	pay radio.Payload
	at  float64
}

type world struct {
	eng *sim.Engine
	med *radio.Medium
	net *Network
	got map[radio.NodeID][]delivery
}

func build(t *testing.T, positions ...tuple.Point) *world {
	t.Helper()
	w := &world{
		eng: sim.NewEngine(7),
		got: map[radio.NodeID][]delivery{},
	}
	w.med = radio.New(w.eng, radio.DefaultConfig())
	w.net = New(w.eng, w.med, DefaultConfig())
	for _, p := range positions {
		w.addStatic(p)
	}
	return w
}

func (w *world) addStatic(p tuple.Point) radio.NodeID {
	return w.addMobile(mobility.Static(p))
}

func (w *world) addMobile(m mobility.Model) radio.NodeID {
	var id radio.NodeID
	id = w.net.AddNode(m,
		func(src radio.NodeID, hops int, pay radio.Payload) {
			w.got[id] = append(w.got[id], delivery{src: src, pay: pay, at: w.eng.Now()})
		},
		nil)
	return id
}

func TestDirectNeighborDelivery(t *testing.T) {
	w := build(t, tuple.Point{X: 0}, tuple.Point{X: 100})
	w.net.Send(0, 1, msg(1))
	w.eng.RunAll()
	if len(w.got[1]) != 1 || w.got[1][0].src != 0 || w.got[1][0].pay.(msg) != 1 {
		t.Fatalf("delivery failed: %+v", w.got[1])
	}
	if w.net.Counters.DataDelivered != 1 {
		t.Errorf("counters %+v", w.net.Counters)
	}
}

func TestMultiHopChainDiscoveryAndDelivery(t *testing.T) {
	// 0—1—2—3—4 spaced 200 m apart with 250 m range: only adjacent nodes
	// hear each other, so 0→4 needs a 4-hop route.
	w := build(t,
		tuple.Point{X: 0}, tuple.Point{X: 200}, tuple.Point{X: 400},
		tuple.Point{X: 600}, tuple.Point{X: 800})
	w.net.Send(0, 4, msg(42))
	w.eng.RunAll()
	if len(w.got[4]) != 1 {
		t.Fatalf("end-to-end delivery failed: %+v / counters %+v", w.got, w.net.Counters)
	}
	if w.got[4][0].src != 0 {
		t.Errorf("src = %d, want 0", w.got[4][0].src)
	}
	if !w.net.hasRoute(0, 4) {
		t.Errorf("source should hold a route to 4 after discovery")
	}
	if w.net.Counters.RREQSent == 0 || w.net.Counters.RREPSent == 0 {
		t.Errorf("discovery should emit RREQs and RREPs: %+v", w.net.Counters)
	}
	// Four hop-level transmissions carried the packet.
	if w.net.Counters.DataForwarded != 4 {
		t.Errorf("DataForwarded = %d, want 4", w.net.Counters.DataForwarded)
	}
}

func TestSecondSendUsesCachedRoute(t *testing.T) {
	w := build(t, tuple.Point{X: 0}, tuple.Point{X: 200}, tuple.Point{X: 400})
	w.net.Send(0, 2, msg(1))
	w.eng.RunAll()
	rreqs := w.net.Counters.RREQSent
	w.net.Send(0, 2, msg(2))
	w.eng.RunAll()
	if len(w.got[2]) != 2 {
		t.Fatalf("both packets should arrive: %+v", w.got[2])
	}
	if w.net.Counters.RREQSent != rreqs {
		t.Errorf("cached route should avoid new discovery: %d → %d RREQs",
			rreqs, w.net.Counters.RREQSent)
	}
}

func TestUnreachableDestinationDropsAfterRetries(t *testing.T) {
	w := build(t, tuple.Point{X: 0}, tuple.Point{X: 100}, tuple.Point{X: 5000})
	w.net.Send(0, 2, msg(9))
	w.eng.RunAll()
	if len(w.got[2]) != 0 {
		t.Fatalf("isolated node must not receive")
	}
	if w.net.Counters.DataDropped != 1 {
		t.Errorf("DataDropped = %d, want 1", w.net.Counters.DataDropped)
	}
	// Initial attempt + DiscoveryRetries retries, each flood rebroadcast
	// once by the reachable neighbour 1.
	want := 2 * (1 + DefaultConfig().DiscoveryRetries)
	if w.net.Counters.RREQSent != want {
		t.Errorf("RREQSent = %d, want %d", w.net.Counters.RREQSent, want)
	}
}

// teleporter stands still at a, then jumps to b at time jump.
type teleporter struct {
	a, b tuple.Point
	jump float64
}

func (tp teleporter) Pos(t float64) tuple.Point {
	if t < tp.jump {
		return tp.a
	}
	return tp.b
}

func TestLinkBreakLocalRepair(t *testing.T) {
	// Chain 0—1—2 where relay 1 vanishes after the first delivery; node 3
	// sits as an alternative relay. The second packet must be repaired
	// through 3.
	w := build(t, tuple.Point{X: 0, Y: 0})
	w.addMobile(teleporter{a: tuple.Point{X: 200}, b: tuple.Point{X: 5000}, jump: 10})
	w.addStatic(tuple.Point{X: 400})
	w.addStatic(tuple.Point{X: 200, Y: 100}) // alt relay in range of 0 and 2
	w.net.Send(0, 2, msg(1))
	w.eng.Run(5)
	if len(w.got[2]) != 1 {
		t.Fatalf("first packet should arrive via relay 1: %+v", w.net.Counters)
	}
	// After the teleport, send again (old route through 1 is broken).
	w.eng.Run(30)
	w.net.Send(0, 2, msg(2))
	w.eng.RunAll()
	if len(w.got[2]) != 2 {
		t.Fatalf("second packet should arrive via repair: %+v, counters %+v",
			w.got[2], w.net.Counters)
	}
}

func TestBroadcastLocal(t *testing.T) {
	w := build(t, tuple.Point{X: 0}, tuple.Point{X: 100}, tuple.Point{X: 200}, tuple.Point{X: 900})
	heard := map[radio.NodeID][]radio.NodeID{}
	eng := sim.NewEngine(3)
	med := radio.New(eng, radio.DefaultConfig())
	net := New(eng, med, DefaultConfig())
	for i, p := range []tuple.Point{{X: 0}, {X: 100}, {X: 200}, {X: 900}} {
		id := radio.NodeID(i)
		net.AddNode(mobility.Static(p), nil, func(from radio.NodeID, pay radio.Payload) {
			heard[id] = append(heard[id], from)
		})
	}
	n := net.BroadcastLocal(0, msg(5))
	if n != 2 {
		t.Fatalf("addressed %d, want 2", n)
	}
	eng.RunAll()
	if len(heard[1]) != 1 || len(heard[2]) != 1 || len(heard[3]) != 0 {
		t.Errorf("heard: %+v", heard)
	}
	_ = w
}

func TestSelfSendPanics(t *testing.T) {
	w := build(t, tuple.Point{X: 0})
	defer func() {
		if recover() == nil {
			t.Errorf("self-send should panic")
		}
	}()
	w.net.Send(0, 0, msg(1))
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{TTL: 0, RouteLifetime: 1, DiscoveryTimeout: 1, SeenLifetime: 1},
		{TTL: 1, RouteLifetime: 0, DiscoveryTimeout: 1, SeenLifetime: 1},
		{TTL: 1, RouteLifetime: 1, DiscoveryTimeout: 1, SeenLifetime: 1, DiscoveryRetries: -1},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Counters {
		eng := sim.NewEngine(11)
		med := radio.New(eng, radio.DefaultConfig())
		net := New(eng, med, DefaultConfig())
		cfg := mobility.DefaultConfig()
		for i := 0; i < 12; i++ {
			net.AddNode(mobility.NewWaypoint(cfg, int64(i)), nil, nil)
		}
		for i := 0; i < 10; i++ {
			src := radio.NodeID(i)
			dst := radio.NodeID((i + 5) % 12)
			at := float64(i * 20)
			eng.At(at, func() { net.Send(src, dst, msg(i)) })
		}
		eng.Run(600)
		return net.Counters
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed produced different counter sets:\n%+v\n%+v", a, b)
	}
}

func TestMediumMustBeEmpty(t *testing.T) {
	eng := sim.NewEngine(1)
	med := radio.New(eng, radio.DefaultConfig())
	med.AddNode(mobility.Static(tuple.Point{}), func(radio.NodeID, radio.Payload) {})
	defer func() {
		if recover() == nil {
			t.Errorf("non-empty medium should panic")
		}
	}()
	New(eng, med, DefaultConfig())
}

func TestGridConnectivityManyNodes(t *testing.T) {
	// A 4×4 grid with 200 m spacing is fully connected via multi-hop; every
	// corner-to-corner send must succeed.
	var pts []tuple.Point
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			pts = append(pts, tuple.Point{X: float64(c) * 200, Y: float64(r) * 200})
		}
	}
	w := build(t, pts...)
	w.net.Send(0, 15, msg(1))
	w.net.Send(15, 0, msg(2))
	w.net.Send(3, 12, msg(3))
	w.eng.RunAll()
	if len(w.got[15]) != 1 || len(w.got[0]) != 1 || len(w.got[12]) != 1 {
		t.Fatalf("corner routes failed: 15=%d 0=%d 12=%d counters=%+v",
			len(w.got[15]), len(w.got[0]), len(w.got[12]), w.net.Counters)
	}
}
