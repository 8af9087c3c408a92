package tcp

import (
	"errors"
	"testing"
	"time"

	"manetskyline/internal/core"
	"manetskyline/internal/gen"
	"manetskyline/internal/leaktest"
	"manetskyline/internal/telemetry"
	"manetskyline/internal/tuple"
)

// TestBreakerTransitions unit-tests the state machine directly: closed
// until the threshold of consecutive failures, open through the cooldown,
// one half-open probe afterwards, and both probe outcomes.
func TestBreakerTransitions(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(2, 100*time.Millisecond)

	if !b.allow(now) || b.fastFail(now) {
		t.Fatalf("new breaker must be closed and allowing")
	}
	if b.failure(now) {
		t.Fatalf("first failure must not open a threshold-2 breaker")
	}
	if !b.failure(now) {
		t.Fatalf("second consecutive failure must open the breaker")
	}
	if s, fails := b.snapshot(); s != BreakerOpen || fails != 2 {
		t.Fatalf("after opening: state=%v fails=%d, want open/2", s, fails)
	}
	if b.allow(now.Add(50 * time.Millisecond)) {
		t.Fatalf("open breaker allowed a delivery inside the cooldown")
	}
	if !b.fastFail(now.Add(50 * time.Millisecond)) {
		t.Fatalf("open breaker inside cooldown must fast-fail")
	}

	// Cooldown elapsed: exactly one probe is admitted.
	probeAt := now.Add(150 * time.Millisecond)
	if !b.allow(probeAt) {
		t.Fatalf("cooldown elapsed but probe refused")
	}
	if s, _ := b.snapshot(); s != BreakerHalfOpen {
		t.Fatalf("state after admitting probe = %v, want half-open", s)
	}
	if b.allow(probeAt) {
		t.Fatalf("second concurrent probe admitted in half-open")
	}

	// A failed probe re-opens with a fresh cooldown.
	if !b.failure(probeAt) {
		t.Fatalf("failed half-open probe must re-open the breaker")
	}
	if b.allow(probeAt.Add(50 * time.Millisecond)) {
		t.Fatalf("re-opened breaker ignored its fresh cooldown")
	}

	// A successful probe closes and resets the failure count.
	if !b.allow(probeAt.Add(200 * time.Millisecond)) {
		t.Fatalf("second probe refused after cooldown")
	}
	b.success()
	if s, fails := b.snapshot(); s != BreakerClosed || fails != 0 {
		t.Fatalf("after successful probe: state=%v fails=%d, want closed/0", s, fails)
	}

	// Disabled breaker (nil) always allows.
	var nb *breaker
	if !nb.allow(now) || nb.fastFail(now) || nb.failure(now) {
		t.Fatalf("nil breaker must be inert")
	}
	nb.success()
}

// TestBreakerOpensUnderDialFailuresAndRecovers drives the breaker through
// a live peer: scripted dial failures (a registered address that refuses
// connections) open it, frames then fail fast instead of burning the retry
// budget, and once a real peer takes over the address the half-open probe
// closes it again.
func TestBreakerOpensUnderDialFailuresAndRecovers(t *testing.T) {
	defer leaktest.Check(t)()
	reg := telemetry.NewRegistry()
	gcfg := gen.DefaultConfig(100, 2, gen.Independent, 5)
	data := gen.Generate(gcfg)
	half := len(data) / 2

	dir := NewDirectory()
	dir.Register(1, deadAddr(t))
	cfg := DefaultConfig()
	cfg.Registry = reg
	cfg.QueryTimeout = 2 * time.Second
	cfg.RetryTimeout = 400 * time.Millisecond
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = 300 * time.Millisecond
	p0, err := NewPeer(0, data[:half], gcfg.Schema(), core.Under, true, tuple.Point{X: 500, Y: 500}, dir, cfg)
	if err != nil {
		t.Fatalf("NewPeer: %v", err)
	}
	defer p0.Close()
	p0.AddNeighbor(1)

	// Query 1: two dial failures (25ms + 50ms backoff) open the breaker,
	// which then condemns the frame — the query fails fast and explicitly.
	if _, err := p0.Query(core.Unconstrained(), 2); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("query 1 error = %v, want ErrUnreachable", err)
	}
	waitFor(t, "breaker open", func() bool {
		s, _ := breakerState(p0, 1)
		return s == BreakerOpen
	})
	snap := reg.Snapshot()
	if snap.Counters["tcp_breaker_opens_total"] == 0 {
		t.Errorf("tcp_breaker_opens_total = 0 after scripted dial failures")
	}

	// Query 2 inside the cooldown: the frame is dropped at enqueue, no
	// dials are burned, and the query still fails explicitly and fast.
	dialsBefore := snap.Counters["tcp_dials_total"]
	start := time.Now()
	if _, err := p0.Query(core.Unconstrained(), 2); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("query 2 error = %v, want ErrUnreachable", err)
	}
	if elapsed := time.Since(start); elapsed > cfg.BreakerCooldown {
		t.Errorf("query 2 took %v; an open breaker must fail it before the cooldown elapses", elapsed)
	}
	snap = reg.Snapshot()
	if snap.Counters["tcp_breaker_drops_total"] == 0 {
		t.Errorf("tcp_breaker_drops_total = 0; the open breaker should have dropped the frame")
	}
	if got := snap.Counters["tcp_dials_total"]; got != dialsBefore {
		t.Errorf("open breaker still dialed: %d -> %d", dialsBefore, got)
	}

	// Bring up a real peer under id 1 (its registration replaces the dead
	// address), let the cooldown elapse, and the next query's half-open
	// probe must close the breaker and complete normally.
	p1, err := NewPeer(1, data[half:], gcfg.Schema(), core.Under, true, tuple.Point{X: 500, Y: 500}, dir, cfg)
	if err != nil {
		t.Fatalf("NewPeer 1: %v", err)
	}
	defer p1.Close()
	p1.AddNeighbor(0)
	time.Sleep(cfg.BreakerCooldown + 50*time.Millisecond)

	res, err := p0.Query(core.Unconstrained(), 2)
	if err != nil {
		t.Fatalf("query 3 after recovery: %v", err)
	}
	if !res.Complete || res.Results != 1 {
		t.Errorf("query 3: Complete=%v Results=%d, want complete/1", res.Complete, res.Results)
	}
	if s, fails := breakerState(p0, 1); s != BreakerClosed || fails != 0 {
		t.Errorf("breaker after successful probe = %v/%d, want closed/0", s, fails)
	}
}

// breakerState snapshots the breaker of p's link to id.
func breakerState(p *Peer, id core.DeviceID) (BreakerState, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pc := p.conns[id]; pc != nil {
		return pc.br.snapshot()
	}
	return BreakerClosed, 0
}

// waitFor polls cond for up to 2 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
