// Package tcp runs the distributed skyline protocol over real TCP sockets
// using the binary wire format (internal/wire). Every peer owns a listener;
// queries flood the configured neighbour links and results return directly
// to the originator, whose address is resolved through a shared directory
// (the rendezvous a real deployment would provide via its bootstrap layer).
//
// The transport is supervised and self-healing: every neighbour link is a
// managed connection with a bounded send queue, reconnect under capped
// exponential backoff, read/write deadlines, retry with dead-letter
// accounting, and idle reaping. The directory can grant TTL leases that
// peers keep alive by heartbeat, so crashed peers expire out of the flood
// fan-out instead of black-holing traffic forever.
//
// This is the strongest form of the paper's real-device validation this
// reproduction can offer: the exact protocol logic of internal/core,
// serialized byte-for-byte, crossing genuine OS sockets between concurrent
// peers — and surviving the churn internal/chaos injects underneath it.
package tcp

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"manetskyline/internal/core"
	"manetskyline/internal/telemetry"
	"manetskyline/internal/tuple"
	"manetskyline/internal/wire"
)

// Config tunes a peer.
type Config struct {
	// QueryTimeout bounds how long Query waits for results.
	QueryTimeout time.Duration
	// Quorum is the fraction of other peers whose results complete a query.
	Quorum float64
	// SFSampleK is QuerySF's per-peer sample budget (0 ⇒ 2).
	SFSampleK int
	// SFFilterK is QuerySF's broadcast filter-set size (0 ⇒ 2).
	SFFilterK int
	// SFSampleWait is how long QuerySF collects neighbour samples before
	// selecting and flooding the filter set (0 ⇒ 150ms). It spends part of
	// the QueryTimeout budget, so keep it well below it.
	SFSampleWait time.Duration
	// DialTimeout bounds outgoing connection attempts.
	DialTimeout time.Duration
	// WriteTimeout bounds one frame write on an established connection
	// (0 ⇒ DialTimeout).
	WriteTimeout time.Duration
	// RetryTimeout bounds how long a queued frame is retried across
	// reconnects before it is dead-lettered (0 ⇒ QueryTimeout).
	RetryTimeout time.Duration
	// BreakerThreshold arms a per-neighbour circuit breaker: this many
	// consecutive dial failures open it, after which frames to the peer are
	// dropped immediately (failing their quorum slot) instead of burning
	// the retry budget. 0 disables breakers.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before letting one
	// half-open probe through (0 ⇒ 2s when breakers are armed).
	BreakerCooldown time.Duration
	// LeaseTTL, when positive, registers the peer with a directory lease of
	// this duration and starts a heartbeat loop that refreshes it every
	// LeaseTTL/3; an expired lease makes the peer invisible to Lookup,
	// pruning it from every other peer's flood fan-out. Zero keeps the
	// original permanent registration.
	LeaseTTL time.Duration
	// Registry, when non-nil, receives live tcp_* and core_* metrics from
	// this peer (exposed over /metrics by cmd/skypeer).
	Registry *telemetry.Registry
	// Spans, when non-nil, enables cross-peer causal tracing: every frame
	// this peer sends carries a wire.TraceContext and both ends of every
	// hop record transport stages (enqueue → dial → write, decode → handle
	// → reply) into this log, exposed at /trace.jsonl and merged across
	// peers by cmd/skytrace. Nil keeps frames on the v1 wire format and the
	// tracing path at zero allocations.
	Spans *telemetry.SpanLog
	// Flight, when non-nil, records failure-path events (dead letters,
	// decode failures, dial failures, reconnects, heartbeat failures) into
	// a flight-recorder ring for post-mortem dumps.
	Flight *telemetry.FlightRecorder
	// Logf, when non-nil, receives transport diagnostics (dropped frames,
	// decode failures, dead letters) that are otherwise only counted.
	Logf func(format string, args ...any)
}

// The link tuning no caller varies.
const (
	// readIdleTimeout closes an inbound connection that stays silent this
	// long.
	readIdleTimeout = 2 * time.Minute
	// sendQueueLen bounds each neighbour link's send queue; a full queue
	// dead-letters new frames.
	sendQueueLen = 128
	// reconnectBackoff is the delay before the first redial of a failed
	// link; each further attempt doubles it up to reconnectBackoffMax.
	reconnectBackoff    = 25 * time.Millisecond
	reconnectBackoffMax = time.Second
	// idleConnTimeout reaps an outbound connection with nothing to send.
	idleConnTimeout = 30 * time.Second
	// drainTimeout bounds the best-effort flush of queued frames during
	// Close.
	drainTimeout = 200 * time.Millisecond
)

// DefaultConfig returns settings suitable for localhost demos and tests.
func DefaultConfig() Config {
	return Config{
		QueryTimeout: 3 * time.Second,
		Quorum:       1.0,
		DialTimeout:  time.Second,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.QueryTimeout <= 0 || c.DialTimeout <= 0 {
		return fmt.Errorf("tcp: non-positive timeout")
	}
	if c.Quorum <= 0 || c.Quorum > 1 {
		return fmt.Errorf("tcp: quorum %g outside (0,1]", c.Quorum)
	}
	if c.WriteTimeout < 0 || c.RetryTimeout < 0 || c.LeaseTTL < 0 ||
		c.BreakerThreshold < 0 || c.BreakerCooldown < 0 {
		return fmt.Errorf("tcp: negative transport tuning field")
	}
	if c.SFSampleK < 0 || c.SFFilterK < 0 || c.SFSampleWait < 0 {
		return fmt.Errorf("tcp: negative SF tuning field")
	}
	return nil
}

// withDefaults fills the zero values of the transport tuning fields, so a
// Config carrying only the original three knobs behaves sensibly.
func (c Config) withDefaults() Config {
	if c.WriteTimeout == 0 {
		c.WriteTimeout = c.DialTimeout
	}
	if c.RetryTimeout == 0 {
		c.RetryTimeout = c.QueryTimeout
	}
	if c.BreakerCooldown == 0 && c.BreakerThreshold > 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.SFSampleK == 0 {
		c.SFSampleK = 2
	}
	if c.SFFilterK == 0 {
		c.SFFilterK = 2
	}
	if c.SFSampleWait == 0 {
		c.SFSampleWait = 150 * time.Millisecond
	}
	return c
}

// errUnresolved marks a dial attempt against a peer the directory does not
// (or no longer does) vouch for.
var errUnresolved = errors.New("tcp: peer not in directory")

// Peer is one TCP-connected device.
type Peer struct {
	cfg Config
	dev *core.Device
	pos tuple.Point
	dir Resolver
	ln  net.Listener

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	neighbors []core.DeviceID
	// fl runs the BF and SF protocol; it is guarded by mu.
	fl      core.Flood
	pending map[core.QueryKey]*pendingQuery
	conns   map[core.DeviceID]*peerConn
	inbound map[net.Conn]struct{}
	closed  bool

	met Metrics

	wg sync.WaitGroup
}

// NewPeer starts a peer listening on 127.0.0.1 (an ephemeral port),
// registers it in the directory (with a lease when Config.LeaseTTL is set),
// and begins serving.
func NewPeer(id core.DeviceID, ts []tuple.Tuple, schema tuple.Schema,
	mode core.Estimation, dynamic bool, pos tuple.Point,
	dir Resolver, cfg Config) (*Peer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Peer{
		cfg:     cfg,
		dev:     core.NewDevice(id, ts, schema, mode, dynamic),
		pos:     pos,
		dir:     dir,
		ln:      ln,
		ctx:     ctx,
		cancel:  cancel,
		pending: make(map[core.QueryKey]*pendingQuery),
		conns:   make(map[core.DeviceID]*peerConn),
		inbound: make(map[net.Conn]struct{}),
		met:     NewMetrics(cfg.Registry),
	}
	p.dev.Met = core.NewMetrics(cfg.Registry, mode)
	// The socket tier runs no protocol re-floods, and a FilterSet frame has
	// no TTL: the sampling round is one hop.
	p.fl = core.Flood{Dev: p.dev, Opt: core.FloodOptions{
		SampleK: cfg.SFSampleK, SampleTTL: 1, FilterK: cfg.SFFilterK,
	}}
	if err := p.register(); err != nil {
		cancel()
		ln.Close()
		return nil, err
	}
	p.wg.Add(1)
	go p.acceptLoop()
	if cfg.LeaseTTL > 0 {
		p.wg.Add(1)
		go p.heartbeatLoop()
	}
	return p, nil
}

// register performs the initial directory registration, leased when
// configured.
func (p *Peer) register() error {
	addr := p.ln.Addr().String()
	if p.cfg.LeaseTTL > 0 {
		return p.dir.RegisterLease(p.dev.ID, addr, p.cfg.LeaseTTL)
	}
	p.dir.Register(p.dev.ID, addr)
	return nil
}

// heartbeatLoop keeps the directory lease alive. A heartbeat the directory
// rejects (it forgot us — restart, sweep, or server loss) falls back to a
// full re-registration.
func (p *Peer) heartbeatLoop() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.LeaseTTL / 3)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p.met.Heartbeats.Inc()
			if p.dir.Heartbeat(p.dev.ID) {
				continue
			}
			if err := p.register(); err != nil {
				p.met.HeartbeatFailures.Inc()
				p.flightEvent("heartbeat_failure", nil, "lease re-registration failed: %v", err)
				p.logf("tcp: peer %d: lease re-registration failed: %v", p.dev.ID, err)
			}
		case <-p.ctx.Done():
			return
		}
	}
}

// logf forwards to Config.Logf when set.
func (p *Peer) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// ID returns the peer's device ID.
func (p *Peer) ID() core.DeviceID { return p.dev.ID }

// Addr returns the peer's listen address.
func (p *Peer) Addr() string { return p.ln.Addr().String() }

// Pos returns the peer's position.
func (p *Peer) Pos() tuple.Point { return p.pos }

// SetNumFilters configures how many filtering tuples this peer attaches
// when originating queries (§7 multi-filter extension).
func (p *Peer) SetNumFilters(k int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dev.NumFilters = k
}

// AddNeighbor declares a one-directional ad hoc link; call on both peers
// for a bidirectional link.
func (p *Peer) AddNeighbor(id core.DeviceID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, nb := range p.neighbors {
		if nb == id {
			return
		}
	}
	p.neighbors = append(p.neighbors, id)
}

// Close shuts the peer down gracefully: pending queries complete
// immediately with whatever merged so far, queued outbound frames get one
// best-effort flush within drainTimeout, and every listener, connection,
// and goroutine (accept, serve, writer, heartbeat) is torn down before
// Close returns.
func (p *Peer) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	for _, pq := range p.pending {
		pq.wake()
	}
	inbound := make([]net.Conn, 0, len(p.inbound))
	for c := range p.inbound {
		inbound = append(inbound, c)
	}
	p.mu.Unlock()

	p.cancel()
	p.ln.Close()
	for _, c := range inbound {
		c.Close()
	}
	p.wg.Wait()
}

func (p *Peer) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.met.ConnsAccepted.Inc()
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		p.inbound[conn] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.serve(conn)
			p.mu.Lock()
			delete(p.inbound, conn)
			p.mu.Unlock()
		}()
	}
}

// serve handles one inbound connection: a stream of framed messages with a
// per-frame read deadline. Malformed frames are counted and logged, never
// silently swallowed: a failed decode closes the connection (the stream can
// no longer be trusted), an unknown kind skips just that frame.
func (p *Peer) serve(conn net.Conn) {
	defer conn.Close()
	p.met.OpenConns.Inc()
	defer p.met.OpenConns.Dec()
	// One message buffer, outbox and read buffer serve every frame of the
	// connection.
	var m core.Msg
	ob := &outbox{p: p}
	br := bufio.NewReaderSize(conn, wire.ReadBufferSize)
	for {
		conn.SetReadDeadline(time.Now().Add(readIdleTimeout))
		msg, ctx, traced, err := wire.ReadFrameCtx(br)
		if err != nil {
			return // EOF, idle timeout, or shutdown
		}
		wireSize := wire.FrameWireSize(len(msg), traced)
		p.met.MessagesIn.Inc()
		p.met.BytesIn.Add(int64(wireSize))
		var tc *wire.TraceContext
		if traced {
			tc = &ctx
			p.traceStage(tc, telemetry.StageDecode, core.DeviceID(tc.Parent), wireSize)
		}
		kind, err := wire.Peek(msg)
		if err != nil {
			// The frame itself parsed; an unrecognized kind is skippable
			// (framing stays intact), not a reason to kill the stream.
			p.met.FramesDropped.Inc()
			p.logf("tcp: peer %d: dropping unknown frame from %s: %v", p.dev.ID, conn.RemoteAddr(), err)
			continue
		}
		m, err = decode(kind, msg, tc)
		if err != nil {
			p.met.DecodeFailures.Inc()
			p.flightEvent("decode_failure", tc, "bad kind-%d frame from %s: %v", kind, conn.RemoteAddr(), err)
			p.logf("tcp: peer %d: closing %s: bad kind-%d frame: %v", p.dev.ID, conn.RemoteAddr(), kind, err)
			return
		}
		if m.Kind == 0 {
			// A kind this peer recognizes but has no protocol role for —
			// e.g. a gateway reject frame reaching a plain peer. Skip it
			// like an unknown kind: counted, logged, connection kept.
			p.met.FramesDropped.Inc()
			p.logf("tcp: peer %d: dropping unhandled frame kind %d from %s", p.dev.ID, kind, conn.RemoteAddr())
			continue
		}
		p.receive(&m, tc, ob)
	}
}

// send queues one framed message (with its trace context, nil when tracing
// is off) for the managed link to the peer with the given ID. A peer the
// directory has expired (lease lapsed) is skipped outright — the
// liveness-aware fan-out that stops traffic to the dead. Enqueued frames
// survive transient dial/write failures: the link's writer retries under
// backoff until the frame exceeds RetryTimeout. A frame tagged with a query
// key fk that can never be delivered (peer unresolvable, queue overflow,
// retry window exhausted, breaker open) fails that query's quorum slot
// immediately via failSlot, so the originator learns instead of idling to
// its deadline.
func (p *Peer) send(to core.DeviceID, msg []byte, tc *wire.TraceContext, fk *core.QueryKey) {
	if _, ok := p.dir.Lookup(to); !ok {
		p.met.SendsSuppressed.Inc()
		p.failSlot(fk, to, "peer not in directory")
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	pc := p.conns[to]
	if pc == nil {
		pc = newPeerConn(p, to)
		p.conns[to] = pc
	}
	p.mu.Unlock()
	pc.enqueue(msg, tc, fk)
}

// ErrUnreachable reports a query whose every initial flood frame
// dead-lettered before any result arrived: no peer ever heard the query,
// so waiting out the deadline could not have produced anything. The
// QueryResult returned alongside carries the originator's local skyline.
var ErrUnreachable = errors.New("tcp: query flood dead-lettered to every neighbour")

// failSlot records that the tagged flood frame for query key fk to
// neighbour to was abandoned for the given cause. When every flood frame
// has failed and no result has arrived, the pending query is woken with an
// explicit ErrUnreachable instead of idling until its deadline. A nil fk
// (untagged frame) is a no-op.
func (p *Peer) failSlot(fk *core.QueryKey, to core.DeviceID, cause string) {
	if fk == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	pq := p.pending[*fk]
	if pq == nil || pq.closed || pq.failed[to] {
		return
	}
	pq.failed[to] = true
	p.met.DeadLetterSlots.Inc()
	if pq.deadErr == nil {
		pq.deadErr = fmt.Errorf("%w (first: peer %d, %s)", ErrUnreachable, to, cause)
	}
	if p.unreachable(*fk, pq) {
		pq.wake()
	}
}

// QueryResult reports a distributed query's outcome.
type QueryResult struct {
	Skyline  []tuple.Tuple
	Results  int
	Complete bool
	Elapsed  time.Duration
}

// ErrClosed is returned when querying a closed peer.
var ErrClosed = errors.New("tcp: peer closed")
