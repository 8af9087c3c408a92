package aodv

import (
	"testing"

	"manetskyline/internal/mobility"
	"manetskyline/internal/radio"
	"manetskyline/internal/sim"
	"manetskyline/internal/tuple"
)

func TestRouteExpiry(t *testing.T) {
	w := build(t, tuple.Point{X: 0}, tuple.Point{X: 200}, tuple.Point{X: 400})
	w.net.Send(0, 2, msg(1))
	w.eng.RunAll()
	if !w.net.hasRoute(0, 2) {
		t.Fatalf("route should exist after delivery")
	}
	// Advance past the route lifetime with no traffic.
	w.eng.Schedule(DefaultConfig().RouteLifetime+1, func() {})
	w.eng.RunAll()
	if w.net.hasRoute(0, 2) {
		t.Fatalf("route should have expired")
	}
	// Traffic after expiry triggers rediscovery and still delivers.
	rreqs := w.net.Counters.RREQSent
	w.net.Send(0, 2, msg(2))
	w.eng.RunAll()
	if len(w.got[2]) != 2 {
		t.Fatalf("post-expiry packet lost: %+v", w.net.Counters)
	}
	if w.net.Counters.RREQSent == rreqs {
		t.Errorf("expired route should force a new discovery")
	}
}

func TestRouteRefreshOnUse(t *testing.T) {
	w := build(t, tuple.Point{X: 0}, tuple.Point{X: 200})
	w.net.Send(0, 1, msg(1))
	w.eng.RunAll()
	half := DefaultConfig().RouteLifetime / 2
	// Keep the route warm by sending every half-lifetime.
	for i := 0; i < 6; i++ {
		w.eng.Schedule(half*float64(i+1), func() { w.net.Send(0, 1, msg(2)) })
	}
	w.eng.RunAll()
	if len(w.got[1]) != 7 {
		t.Fatalf("deliveries = %d, want 7", len(w.got[1]))
	}
	// All traffic was direct: a single initial discovery suffices.
	if w.net.Counters.RREQSent > 1 {
		t.Errorf("refreshed route should not be rediscovered: %d RREQs", w.net.Counters.RREQSent)
	}
}

func TestIntermediateNodeRepliesFromCache(t *testing.T) {
	// Chain 0—1—2. After 0↔2 traffic, node 1 holds a fresh route to 2.
	// When node 3 (in range of 0 and 1 only) then asks for 2, node 1 may
	// answer from cache; either way discovery must converge and deliver.
	w := build(t,
		tuple.Point{X: 0}, tuple.Point{X: 200}, tuple.Point{X: 400},
		tuple.Point{X: 100, Y: 200})
	w.net.Send(0, 2, msg(1))
	w.eng.RunAll()
	w.net.Send(3, 2, msg(2))
	w.eng.RunAll()
	if len(w.got[2]) != 2 {
		t.Fatalf("cached-route reply path failed: %+v", w.net.Counters)
	}
}

func TestRERRInvalidatesUpstreamRoute(t *testing.T) {
	// 0—1—2 where 2 teleports away; after a failed forward, node 1 sends
	// an RERR back to 0, whose route must become invalid.
	eng := sim.NewEngine(7)
	med := radio.New(eng, radio.DefaultConfig())
	net := New(eng, med, DefaultConfig())
	net.AddNode(mobility.Static(tuple.Point{X: 0}), nil, nil)
	net.AddNode(mobility.Static(tuple.Point{X: 300}), nil, nil)
	net.AddNode(teleporter{a: tuple.Point{X: 600}, b: tuple.Point{X: 9000}, jump: 5}, nil, nil)
	net.Send(0, 2, msg(1))
	eng.Run(4)
	if !net.hasRoute(0, 2) {
		t.Fatalf("route should exist before the break")
	}
	eng.Run(10) // node 2 gone
	net.Send(0, 2, msg(2))
	eng.RunAll()
	if net.Counters.RERRSent == 0 {
		t.Errorf("link break behind a relay should emit an RERR")
	}
	if net.hasRoute(0, 2) {
		t.Errorf("source route should be invalidated after RERR")
	}
	if net.Counters.DataDropped == 0 {
		t.Errorf("undeliverable packet should be counted dropped")
	}
}

func TestTTLBoundsFlood(t *testing.T) {
	// A long chain beyond the TTL: discovery cannot reach the far end.
	cfg := DefaultConfig()
	cfg.TTL = 3
	eng := sim.NewEngine(1)
	med := radio.New(eng, radio.DefaultConfig())
	net := New(eng, med, cfg)
	got := 0
	for i := 0; i < 7; i++ {
		i := i
		net.AddNode(mobility.Static(tuple.Point{X: float64(i) * 300}), func(radio.NodeID, int, radio.Payload) {
			if i == 6 {
				got++
			}
		}, nil)
	}
	net.Send(0, 6, msg(1))
	eng.RunAll()
	if got != 0 {
		t.Fatalf("6-hop destination must be unreachable with TTL 3")
	}
	if net.Counters.DataDropped != 1 {
		t.Errorf("packet should be dropped after failed discovery")
	}
}
