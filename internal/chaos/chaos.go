// Package chaos applies internal/faults plans to live TCP connections: a
// per-link proxy fleet sits between the peers of internal/tcp and their
// real sockets, translating the plan's outages, partitions, loss windows,
// and duplicate/reorder chaos into genuine socket behaviour — stalled
// streams, dropped frames, delayed and duplicated deliveries — plus
// socket-only extras (connection resets, byte-trickle) no simulator can
// model. The same builtin plans that drive the deterministic simulator's
// recall gates therefore also soak the supervised transport end to end.
//
// Topology: every peer resolves its neighbours through Router.View(id),
// which hands back per-(from,to) proxy addresses instead of real ones, so
// the proxy knows both endpoints of each link and can apply directional
// and partition faults correctly. Registration and heartbeats pass through
// untouched — the directory is the control plane, and a real deployment's
// bootstrap rendezvous would not share the data path's radio fate.
//
// Fault-to-socket mapping:
//
//	outage/partition  the proxy stops forwarding while the window is
//	                  active; frames queue in kernel/proxy buffers and
//	                  flow again on heal — exactly a cable cut, which TCP
//	                  rides out unless the endpoints give up first
//	link/region loss  frames silently vanish with the window's probability
//	duplicate         extra copies of the frame are forwarded
//	reorder           the frame is held back while later ones overtake
//	Extras.ResetProb  the connection is torn down (after forwarding), so
//	                  the transport's reconnect path runs hot
//	Extras.Trickle*   frames dribble out a few bytes at a time, stressing
//	                  read deadlines and partial-frame handling
package chaos

import (
	"math/rand"
	"sync"
	"time"

	"manetskyline/internal/core"
	"manetskyline/internal/faults"
	"manetskyline/internal/tcp"
	"manetskyline/internal/tuple"
)

// Extras are socket-level perturbations with no simulator counterpart.
type Extras struct {
	// ResetProb tears the connection down after forwarding a frame with
	// this probability: pure connection churn (no data loss), exercising
	// reconnect under backoff.
	ResetProb float64
	// TrickleChunk, when positive, forwards each frame in chunks of this
	// many bytes with TrickleDelay between them.
	TrickleChunk int
	TrickleDelay time.Duration
	// Latency adds a fixed one-way delay to every frame.
	Latency time.Duration
}

// Options tune a Router.
type Options struct {
	// Scale maps wall time onto plan time: plan-seconds per wall-second.
	// 0 means 1 (a 3-second plan plays out over 3 wall seconds).
	Scale float64
	// Positions, when set, locate nodes for region-loss evaluation.
	Positions map[int]tuple.Point
	// Seed drives the extras' random stream (plan loss draws use the
	// plan's own seed via faults.Eval).
	Seed int64
	// Extras are applied to every link on top of the plan.
	Extras Extras
}

// Router owns the proxy fleet for one network under one fault plan.
type Router struct {
	inner tcp.Resolver
	eval  *faults.Eval
	opts  Options
	start time.Time
	done  chan struct{}

	rmu sync.Mutex
	rng *rand.Rand

	mu      sync.Mutex
	proxies map[[2]int]*linkProxy
	closed  bool

	wg sync.WaitGroup
}

// NewRouter wraps the inner resolver (the real directory) with a fault
// plan. The plan clock starts now.
func NewRouter(inner tcp.Resolver, plan *faults.Plan, opts Options) *Router {
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	return &Router{
		inner:   inner,
		eval:    faults.NewEval(plan, opts.Seed),
		opts:    opts,
		start:   time.Now(),
		done:    make(chan struct{}),
		rng:     rand.New(rand.NewSource(opts.Seed*0x5DEECE66D + 0xB)),
		proxies: make(map[[2]int]*linkProxy),
	}
}

// now is the current plan time.
func (r *Router) now() float64 {
	return time.Since(r.start).Seconds() * r.opts.Scale
}

// wallFor converts a plan-time span to wall time.
func (r *Router) wallFor(planSeconds float64) time.Duration {
	return time.Duration(planSeconds / r.opts.Scale * float64(time.Second))
}

// pos locates a node for region-loss checks (zero point when unknown).
func (r *Router) pos(node int) tuple.Point {
	return r.opts.Positions[node]
}

// chance draws one extras decision.
func (r *Router) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	r.rmu.Lock()
	defer r.rmu.Unlock()
	return r.rng.Float64() < p
}

// View returns the resolver peer `from` must use: lookups resolve to the
// (from → to) link proxy, registration and heartbeats pass through.
func (r *Router) View(from core.DeviceID) tcp.Resolver {
	return &view{r: r, from: int(from)}
}

// proxy returns (creating if needed) the proxy for one directed link.
func (r *Router) proxy(from, to int) *linkProxy {
	key := [2]int{from, to}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	if p := r.proxies[key]; p != nil {
		return p
	}
	p, err := newLinkProxy(r, from, to)
	if err != nil {
		return nil
	}
	r.proxies[key] = p
	return p
}

// Close tears the fleet down: listeners, live pumps, and delayed writers.
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	proxies := make([]*linkProxy, 0, len(r.proxies))
	for _, p := range r.proxies {
		proxies = append(proxies, p)
	}
	r.mu.Unlock()
	close(r.done)
	for _, p := range proxies {
		p.close()
	}
	r.wg.Wait()
}

// view is the per-source resolver handed to one peer.
type view struct {
	r    *Router
	from int
}

// Register passes the peer's real address to the inner directory; proxies
// resolve it lazily per connection, so re-registrations take effect.
func (v *view) Register(id core.DeviceID, addr string) {
	v.r.inner.Register(id, addr)
}

// RegisterLease forwards leased registration when the inner directory
// supports it and degrades to permanent registration otherwise.
func (v *view) RegisterLease(id core.DeviceID, addr string, ttl time.Duration) error {
	if lr, ok := v.r.inner.(tcp.LeaseRegistrar); ok {
		return lr.RegisterLease(id, addr, ttl)
	}
	v.r.inner.Register(id, addr)
	return nil
}

// Heartbeat forwards to the inner directory (vacuously true without lease
// support).
func (v *view) Heartbeat(id core.DeviceID) bool {
	if hb, ok := v.r.inner.(tcp.Heartbeater); ok {
		return hb.Heartbeat(id)
	}
	return true
}

// Invalidate forwards cache eviction when supported.
func (v *view) Invalidate(id core.DeviceID) {
	if inv, ok := v.r.inner.(tcp.Invalidator); ok {
		inv.Invalidate(id)
	}
}

// Lookup resolves through the inner directory (so lease decay still hides
// dead peers) but returns the link proxy's address.
func (v *view) Lookup(to core.DeviceID) (string, bool) {
	if _, ok := v.r.inner.Lookup(to); !ok {
		return "", false
	}
	p := v.r.proxy(v.from, int(to))
	if p == nil {
		return "", false
	}
	return p.addr(), true
}
