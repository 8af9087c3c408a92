// Package gateway is the overload-hardened query front tier: it sits
// between clients and a tcp.Peer backend and makes the system degrade
// gracefully when offered load exceeds MANET capacity instead of melting
// into unbounded queues and silent deadline blowups.
//
// Four cooperating mechanisms:
//
//   - Single-flight coalescing: identical in-flight queries (same region,
//     constraint box, strategy) attach to one MANET execution and share its
//     result — the duplicate floods a naive front tier would re-issue are
//     suppressed at the gateway, which the IoMT monitoring literature
//     (Lai et al., arXiv:1904.10889) identifies as the key lever for
//     serving skylines from mobile fleets.
//   - A movement-aware TTL result cache keyed the same way: a skyline is
//     reusable until device movement could have changed it, so the TTL is
//     derived from the scenario speed bound (MovementSlack / MaxSpeed)
//     rather than guessed.
//   - Admission control and load shedding: a token bucket bounds the query
//     rate into the MANET, a bounded deadline-aware queue absorbs bursts,
//     and everything beyond that is rejected EARLY and EXPLICITLY with a
//     retry-after hint (wire.Reject on the front door) — never a silent
//     timeout.
//   - Per-neighbour circuit breakers live one layer down in internal/tcp
//     (Config.BreakerThreshold): a dead peer stops consuming the retry
//     budget, so admitted queries spend their deadline on peers that can
//     still answer.
//
// The package is deliberately backend-agnostic: Backend is a function, so
// tests exercise every overload path without sockets, and cmd/skypeer
// plugs in a live tcp.Peer.
package gateway

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"manetskyline/internal/tcp"
	"manetskyline/internal/telemetry"
	"manetskyline/internal/tuple"
	"manetskyline/internal/wire"
)

// Strategy selects the distributed forwarding strategy a request runs
// under. It is part of the coalescing/cache key: BF and SF answers are
// equivalent fault-free but differ under faults, so they must not share
// entries.
type Strategy uint8

// Strategies.
const (
	// BF is the paper's breadth-first flood (tcp.Peer.Query).
	BF Strategy = iota
	// SF is the sampling-filter strategy (tcp.Peer.QuerySF).
	SF
)

// String names the strategy.
func (s Strategy) String() string {
	if s == SF {
		return "SF"
	}
	return "BF"
}

// Request is one client query at the front door.
type Request struct {
	// Pos is the client's position (the query's region).
	Pos tuple.Point
	// D is the distance of interest (0 or +Inf ⇒ unconstrained).
	D float64
	// Strategy picks the forwarding strategy.
	Strategy Strategy
	// Deadline bounds the whole request including queueing; the zero value
	// means now + Config.DefaultDeadline.
	Deadline time.Time
}

// Source says how a response was produced.
type Source uint8

// Response sources.
const (
	// SourceLive: this request led its own MANET execution.
	SourceLive Source = iota
	// SourceCoalesced: the request attached to an identical in-flight
	// execution and shared its result.
	SourceCoalesced
	// SourceCache: the request was answered from a fresh cache entry.
	SourceCache
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SourceCoalesced:
		return "coalesced"
	case SourceCache:
		return "cache"
	}
	return "live"
}

// Response is a served query.
type Response struct {
	Skyline []tuple.Tuple
	// Results is how many peers contributed (from the underlying
	// execution; cached responses carry the value recorded at fill time).
	Results int
	// Complete reports whether the underlying execution reached its quorum.
	Complete bool
	// Source says whether the answer came from a live execution, a
	// coalesced one, or the cache.
	Source Source
	// Elapsed is this request's own wall time in the gateway.
	Elapsed time.Duration
}

// Backend executes one admitted query against the MANET.
type Backend func(req Request) (tcp.QueryResult, error)

// PeerBackend adapts a live tcp.Peer. peers returns the network size the
// quorum is computed against, sampled per query so a shrinking fleet
// (crashed peers whose leases decayed) lowers the quorum instead of making
// queries wait for the dead; a nil func or non-positive count falls back
// to fallback.
func PeerBackend(p *tcp.Peer, peers func() int, fallback int) Backend {
	count := func() int {
		if peers != nil {
			if n := peers(); n > 0 {
				return n
			}
		}
		return fallback
	}
	return func(req Request) (tcp.QueryResult, error) {
		d := req.D
		if d <= 0 {
			d = math.Inf(1)
		}
		if req.Strategy == SF {
			return p.QuerySF(d, count())
		}
		return p.Query(d, count())
	}
}

// Config tunes a Gateway.
type Config struct {
	// Rate is the sustained query rate admitted into the MANET, in queries
	// per second (0 ⇒ unlimited: no token bucket, no queue).
	Rate float64
	// Burst is the token-bucket depth (0 ⇒ max(1, ceil(Rate))).
	Burst int
	// QueueDepth bounds how many admitted-but-waiting requests may sit in
	// the deadline-aware admission queue (0 ⇒ 64). Requests beyond it are
	// shed immediately with RejectShedQueue.
	QueueDepth int
	// DefaultDeadline is applied to requests without one (0 ⇒ 2s).
	DefaultDeadline time.Duration
	// CacheTTL caps how long a skyline result is served from cache
	// (0 ⇒ rely on the movement bound; if both are 0 the cache is off).
	CacheTTL time.Duration
	// MaxSpeed is the scenario speed bound in distance units per second.
	// With MovementSlack it derives the movement-aware TTL: a cached
	// skyline expires before any device can have moved far enough to
	// invalidate it (TTL = MovementSlack / MaxSpeed).
	MaxSpeed float64
	// MovementSlack is how much device movement the constraint boxes can
	// absorb before a cached answer may go stale (0 ⇒ 25 distance units
	// when MaxSpeed is set).
	MovementSlack float64
	// Registry receives gateway_* metrics (nil ⇒ disabled).
	Registry *telemetry.Registry
	// Logf, when non-nil, receives shed/breaker diagnostics.
	Logf func(format string, args ...any)
}

// withDefaults fills the zero values.
func (c Config) withDefaults() Config {
	if c.Burst == 0 && c.Rate > 0 {
		c.Burst = int(math.Ceil(c.Rate))
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 2 * time.Second
	}
	if c.MovementSlack == 0 && c.MaxSpeed > 0 {
		c.MovementSlack = 25
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Rate < 0 || c.Burst < 0 || c.QueueDepth < 0 || c.DefaultDeadline < 0 ||
		c.CacheTTL < 0 || c.MaxSpeed < 0 || c.MovementSlack < 0 {
		return fmt.Errorf("gateway: negative tuning field")
	}
	return nil
}

// TTL returns the effective cache TTL: the movement-derived bound
// (MovementSlack / MaxSpeed) capped by CacheTTL when both are set, zero
// when caching is off entirely.
func (c Config) TTL() time.Duration {
	moveTTL := time.Duration(0)
	if c.MaxSpeed > 0 {
		moveTTL = time.Duration(c.MovementSlack / c.MaxSpeed * float64(time.Second))
	}
	switch {
	case moveTTL > 0 && c.CacheTTL > 0:
		if moveTTL < c.CacheTTL {
			return moveTTL
		}
		return c.CacheTTL
	case moveTTL > 0:
		return moveTTL
	default:
		return c.CacheTTL
	}
}

// ErrShedded is the sentinel every load-shed rejection wraps; match with
// errors.Is, and errors.As a *SheddedError for the reason and retry hint.
var ErrShedded = errors.New("gateway: query shedded")

// ErrGatewayClosed is returned for requests against a closed gateway.
var ErrGatewayClosed = errors.New("gateway: closed")

// SheddedError is an explicit load-shed rejection.
type SheddedError struct {
	// Code is the wire reject code (wire.RejectShed*).
	Code uint8
	// RetryAfter hints when a retry could be admitted (0 = unknown).
	RetryAfter time.Duration
}

// Error renders the rejection.
func (e *SheddedError) Error() string {
	return fmt.Sprintf("gateway: query shedded (%s, retry after %v)",
		wire.RejectCodeName(e.Code), e.RetryAfter)
}

// Is makes errors.Is(err, ErrShedded) true for every shed rejection.
func (e *SheddedError) Is(target error) bool { return target == ErrShedded }

// The quantization grains of key, in distance units.
const (
	// regionCell quantizes request positions into coalescing/cache regions.
	regionCell = 250
	// dGrain quantizes the distance of interest into constraint boxes.
	dGrain = 50
)

// key identifies equivalent queries for coalescing and caching: the region
// (position quantized to regionCell), the constraint box (distance of
// interest quantized to dGrain; unconstrained collapses to one box), and
// the strategy.
type key struct {
	cx, cy   int32
	dq       int32
	strategy Strategy
}

// String renders the key for logs.
func (k key) String() string {
	return fmt.Sprintf("(%d,%d)/d%d/%s", k.cx, k.cy, k.dq, k.strategy)
}

// flight is one in-progress MANET execution plus everyone waiting on it.
type flight struct {
	done chan struct{} // closed when res/err are set
	res  Response
	err  error
}

// Gateway is the front tier. Create with New, serve with Do, stop with
// Close.
type Gateway struct {
	cfg     Config
	backend Backend
	met     Metrics

	tb    *tokenBucket
	cache *resultCache

	mu      sync.Mutex
	flights map[key]*flight
	waiting int // requests inside the admission queue
	closed  bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// New builds a gateway over the backend.
func New(backend Backend, cfg Config) (*Gateway, error) {
	if backend == nil {
		return nil, fmt.Errorf("gateway: nil backend")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:     cfg,
		backend: backend,
		met:     NewMetrics(cfg.Registry),
		flights: make(map[key]*flight),
		stop:    make(chan struct{}),
	}
	if cfg.Rate > 0 {
		g.tb = newTokenBucket(cfg.Rate, float64(cfg.Burst))
	}
	if ttl := cfg.TTL(); ttl > 0 {
		g.cache = newResultCache(ttl, g.met.CacheEntries)
		g.wg.Add(1)
		go g.cache.janitor(ttl, g.stop, &g.wg)
	}
	return g, nil
}

// Close stops the gateway: queued requests are shed with ErrGatewayClosed,
// cache goroutines exit, and in-flight executions are left to finish on
// their own callers' goroutines (a coalesced waiter still gets its leader's
// result). Close blocks until the gateway's goroutines are gone.
func (g *Gateway) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	g.mu.Unlock()
	close(g.stop)
	g.wg.Wait()
}

// CacheTTL reports the effective movement-aware cache TTL (0 = cache off).
func (g *Gateway) CacheTTL() time.Duration { return g.cfg.TTL() }

// keyOf quantizes a request.
func (g *Gateway) keyOf(req Request) key {
	d := req.D
	if d <= 0 || math.IsInf(d, 1) {
		d = -1 // all unconstrained queries share one box
	}
	return key{
		cx:       int32(math.Floor(req.Pos.X / regionCell)),
		cy:       int32(math.Floor(req.Pos.Y / regionCell)),
		dq:       int32(math.Ceil(d / dGrain)),
		strategy: req.Strategy,
	}
}

// logf forwards to Config.Logf when set.
func (g *Gateway) logf(format string, args ...any) {
	if g.cfg.Logf != nil {
		g.cfg.Logf(format, args...)
	}
}

// Do serves one request: cache, then single-flight attach, then admission,
// then a live MANET execution. Every outcome is explicit — a Response, a
// *SheddedError (errors.Is ErrShedded) with a retry-after hint, or
// ErrGatewayClosed. Do never queues unboundedly and never returns a silent
// timeout: an expired deadline surfaces as RejectShedDeadline.
func (g *Gateway) Do(req Request) (Response, error) {
	start := time.Now()
	if req.Deadline.IsZero() {
		req.Deadline = start.Add(g.cfg.DefaultDeadline)
	}
	g.met.Requests.Inc()
	k := g.keyOf(req)

	g.mu.Lock()
	closed := g.closed
	g.mu.Unlock()
	if closed {
		return Response{}, ErrGatewayClosed
	}

	// 1. Cache.
	if g.cache == nil {
		g.met.CacheBypass.Inc()
	} else if res, ok, stale := g.cache.get(k, start); ok {
		g.met.CacheHits.Inc()
		res.Source = SourceCache
		res.Elapsed = time.Since(start)
		g.met.Latency.Observe(res.Elapsed.Seconds())
		return res, nil
	} else if stale {
		g.met.CacheStale.Inc()
	}

	// 2. Single-flight: attach to an identical in-flight execution.
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return Response{}, ErrGatewayClosed
	}
	if f := g.flights[k]; f != nil {
		g.mu.Unlock()
		g.met.Coalesced.Inc()
		return g.await(f, req, start)
	}
	f := &flight{done: make(chan struct{})}
	g.flights[k] = f
	g.mu.Unlock()

	// 3. Admission (leaders only — attaching above is free).
	if err := g.admit(req, start); err != nil {
		g.settle(k, f, Response{}, err)
		g.met.Shed.Inc()
		if se := (*SheddedError)(nil); errors.As(err, &se) {
			g.met.shedReason(se.Code).Inc()
			g.logf("gateway: shed %s query: %v", k, err)
		}
		return Response{}, err
	}

	// 4. Live execution.
	qr, err := g.backend(req)
	if err != nil {
		g.settle(k, f, Response{}, fmt.Errorf("gateway: backend: %w", err))
		g.met.BackendErrors.Inc()
		return Response{}, fmt.Errorf("gateway: backend: %w", err)
	}
	res := Response{
		Skyline:  qr.Skyline,
		Results:  qr.Results,
		Complete: qr.Complete,
		Source:   SourceLive,
		Elapsed:  time.Since(start),
	}
	if g.cache != nil {
		g.cache.put(k, res, time.Now())
	}
	g.settle(k, f, res, nil)
	g.met.Admitted.Inc()
	g.met.Latency.Observe(res.Elapsed.Seconds())
	return res, nil
}

// settle publishes a flight's outcome and removes it from the table.
func (g *Gateway) settle(k key, f *flight, res Response, err error) {
	f.res, f.err = res, err
	close(f.done)
	g.mu.Lock()
	if g.flights[k] == f {
		delete(g.flights, k)
	}
	g.mu.Unlock()
}

// await blocks a coalesced follower on its leader's flight, bounded by the
// follower's own deadline — a follower never waits longer than it was
// prepared to wait for a live execution.
func (g *Gateway) await(f *flight, req Request, start time.Time) (Response, error) {
	wait := time.Until(req.Deadline)
	if wait <= 0 {
		g.met.Shed.Inc()
		g.met.shedReason(wire.RejectShedDeadline).Inc()
		return Response{}, &SheddedError{Code: wire.RejectShedDeadline}
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-f.done:
		if f.err != nil {
			// The leader was shed or failed; the follower inherits the
			// explicit outcome (already counted by the leader for itself,
			// so count the follower's shed separately).
			if se := (*SheddedError)(nil); errors.As(f.err, &se) {
				g.met.Shed.Inc()
				g.met.shedReason(se.Code).Inc()
			}
			return Response{}, f.err
		}
		res := f.res
		res.Source = SourceCoalesced
		res.Elapsed = time.Since(start)
		g.met.Latency.Observe(res.Elapsed.Seconds())
		return res, nil
	case <-timer.C:
		g.met.Shed.Inc()
		g.met.shedReason(wire.RejectShedDeadline).Inc()
		return Response{}, &SheddedError{Code: wire.RejectShedDeadline}
	case <-g.stop:
		return Response{}, ErrGatewayClosed
	}
}

// admit applies the token bucket and the bounded deadline-aware queue. It
// returns nil when the request may proceed, or a *SheddedError naming why
// not and when to retry.
func (g *Gateway) admit(req Request, now time.Time) error {
	if g.tb == nil {
		return nil
	}
	// Bounded queue: more waiters than QueueDepth is the unbounded-queue
	// failure mode this tier exists to prevent.
	g.mu.Lock()
	if g.waiting >= g.cfg.QueueDepth {
		g.mu.Unlock()
		return &SheddedError{Code: wire.RejectShedQueue, RetryAfter: g.tb.eta(now)}
	}
	g.waiting++
	g.met.QueueDepth.Set(int64(g.waiting))
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		g.waiting--
		g.met.QueueDepth.Set(int64(g.waiting))
		g.mu.Unlock()
	}()

	// Deadline-aware reservation: if the wait for a token would blow the
	// deadline, reject NOW with the honest wait as the retry hint instead
	// of letting the client discover it by timeout.
	maxWait := req.Deadline.Sub(now)
	wait, ok := g.tb.reserve(now, maxWait)
	if !ok {
		return &SheddedError{Code: wire.RejectShedRate, RetryAfter: wait}
	}
	if wait > 0 {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-g.stop:
			g.tb.cancel()
			return ErrGatewayClosed
		}
	}
	return nil
}
