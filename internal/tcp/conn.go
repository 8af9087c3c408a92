package tcp

import (
	"fmt"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"manetskyline/internal/core"
	"manetskyline/internal/telemetry"
	"manetskyline/internal/wire"
)

// Invalidator is the optional Resolver extension the connection pool uses
// to evict a cached address after a dial failure, so the next lookup
// re-resolves against the authoritative directory (a restarted peer comes
// back on a new port).
type Invalidator interface {
	Invalidate(id core.DeviceID)
}

// outFrame is one queued message with its enqueue time and trace context;
// frames older than Config.RetryTimeout are dead-lettered instead of
// retried, since any query they belonged to has timed out anyway. fk, when
// non-nil, ties the frame to a query pending at this originator: a
// dead-lettered tagged frame fails that query's quorum slot immediately
// (Peer.failSlot) instead of letting the query idle until its deadline.
type outFrame struct {
	msg []byte
	tc  *wire.TraceContext
	fk  *core.QueryKey
	enq time.Time
}

// peerConn is one supervised outbound link: a bounded send queue drained by
// a single writer goroutine that dials lazily, reconnects under capped
// exponential backoff, enforces write deadlines, retries failed frames
// until they expire, and reaps the socket when the link sits idle. It
// replaces the dial-per-message send of the original transport.
type peerConn struct {
	p  *Peer
	id core.DeviceID

	queue chan outFrame

	// br is the link's circuit breaker (nil = disabled).
	br *breaker

	// reconnects counts link re-establishments, surfaced by Peer.LinkStats
	// and (with a registry) the per-link tcp_link_reconnects_total counter.
	reconnects atomic.Int64
	depth      *telemetry.Gauge
	linkRecon  *telemetry.Counter
	brState    *telemetry.Gauge
}

// newPeerConn starts the writer goroutine; the caller holds p.mu and has
// already checked p.closed.
func newPeerConn(p *Peer, id core.DeviceID) *peerConn {
	pc := &peerConn{
		p: p, id: id,
		queue: make(chan outFrame, p.cfg.SendQueueLen),
		br:    newBreaker(p.cfg.BreakerThreshold, p.cfg.BreakerCooldown),
	}
	if p.cfg.Registry != nil {
		// Cold path (once per link): per-neighbour labels make the pool's
		// internal state scrapeable without touching the hot send path.
		lbl := fmt.Sprintf(`from="%d",to="%d"`, p.dev.ID, id)
		pc.depth = p.cfg.Registry.GaugeL("tcp_send_queue_depth", lbl,
			"frames currently queued on this neighbour link")
		pc.linkRecon = p.cfg.Registry.CounterL("tcp_link_reconnects_total", lbl,
			"re-establishments of this neighbour link")
		if pc.br != nil {
			pc.brState = p.cfg.Registry.GaugeL("tcp_breaker_state", lbl,
				"circuit-breaker state of this link (0 closed, 1 open, 2 half-open)")
		}
	}
	p.wg.Add(1)
	go pc.run()
	return pc
}

// setBreakerGauge mirrors the breaker state into its per-link gauge.
func (pc *peerConn) setBreakerGauge() {
	if pc.brState != nil {
		s, _ := pc.br.snapshot()
		pc.brState.Set(int64(s))
	}
}

// enqueue hands one frame to the writer. A full queue dead-letters the
// frame immediately: the peer is already far behind, and unbounded memory
// is worse than loss the protocol's quorum/timeout machinery absorbs. An
// open circuit breaker drops the frame just as fast — a link the breaker
// has condemned must not accumulate work either. Both paths fail the
// frame's quorum slot when it carries one.
func (pc *peerConn) enqueue(msg []byte, tc *wire.TraceContext, fk *core.QueryKey) {
	if pc.br.fastFail(time.Now()) {
		pc.p.met.BreakerDrops.Inc()
		pc.p.flightEvent("breaker_drop", tc, "breaker to %d open, frame dropped", pc.id)
		pc.p.failSlot(fk, pc.id, "breaker open")
		return
	}
	select {
	case pc.queue <- outFrame{msg: msg, tc: tc, fk: fk, enq: time.Now()}:
		pc.depth.Set(int64(len(pc.queue)))
		pc.p.traceStage(tc, telemetry.StageEnqueue, pc.id, wire.FrameWireSize(len(msg), tc != nil))
	default:
		pc.p.met.DeadLetters.Inc()
		pc.p.flightEvent("dead_letter", tc, "send queue to %d full", pc.id)
		pc.p.logf("tcp: peer %d: send queue to %d full, frame dead-lettered", pc.p.dev.ID, pc.id)
		pc.p.failSlot(fk, pc.id, "send queue full")
	}
}

// run is the writer loop. It owns the socket exclusively.
func (pc *peerConn) run() {
	p := pc.p
	defer p.wg.Done()
	var conn net.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	idle := time.NewTimer(p.cfg.IdleConnTimeout)
	defer idle.Stop()
	for {
		select {
		case f := <-pc.queue:
			pc.depth.Set(int64(len(pc.queue)))
			conn = pc.deliver(conn, f)
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
			idle.Reset(p.cfg.IdleConnTimeout)
		case <-idle.C:
			if conn != nil {
				conn.Close()
				conn = nil
				p.met.ConnsReaped.Inc()
			}
			idle.Reset(p.cfg.IdleConnTimeout)
		case <-p.ctx.Done():
			pc.drain(conn)
			return
		}
	}
}

// deliver writes one frame, dialing and redialing as needed, until it is on
// the wire, the frame expires, the link's breaker condemns it, or the peer
// shuts down. It returns the connection to keep for the next frame (nil
// when closed). A dead-lettered frame fails its quorum slot (when tagged)
// so the waiting query learns immediately instead of idling to deadline.
func (pc *peerConn) deliver(conn net.Conn, f outFrame) net.Conn {
	p := pc.p
	backoff := p.cfg.ReconnectBackoff
	for attempt := 0; ; attempt++ {
		if time.Since(f.enq) > p.cfg.RetryTimeout {
			p.met.DeadLetters.Inc()
			p.flightEvent("dead_letter", f.tc, "frame to %d expired after %d attempts", pc.id, attempt)
			p.logf("tcp: peer %d: frame to %d expired after %d attempts", p.dev.ID, pc.id, attempt)
			p.failSlot(f.fk, pc.id, "retry window exhausted")
			return conn
		}
		if conn != nil && peerClosed(conn) {
			// The peer hung up since the last frame. A write now could be
			// accepted locally and then discarded by the peer's reset, so
			// the attempt fails here and the frame goes out on a new link.
			conn.Close()
			conn = nil
			p.met.SendRetries.Inc()
		}
		if conn == nil {
			if !pc.br.allow(time.Now()) {
				// Open breaker: drop the frame now rather than burning the
				// retry budget re-dialing a peer known to be dead.
				pc.setBreakerGauge()
				p.met.BreakerDrops.Inc()
				p.flightEvent("breaker_drop", f.tc, "breaker to %d open, frame dropped", pc.id)
				p.failSlot(f.fk, pc.id, "breaker open")
				return nil
			}
			pc.setBreakerGauge()
			c, err := pc.dial()
			if err != nil {
				p.met.DialFailures.Inc()
				p.flightEvent("dial_failure", f.tc, "dial %d: %v", pc.id, err)
				if pc.br.failure(time.Now()) {
					p.met.BreakerOpens.Inc()
					p.flightEvent("breaker_open", f.tc, "breaker to %d opened after %d consecutive dial failures", pc.id, p.cfg.BreakerThreshold)
					p.logf("tcp: peer %d: breaker to %d opened", p.dev.ID, pc.id)
				}
				pc.setBreakerGauge()
				if inv, ok := p.dir.(Invalidator); ok {
					inv.Invalidate(pc.id)
				}
				if !pc.sleep(backoff) {
					return nil // shutting down
				}
				backoff *= 2
				if backoff > p.cfg.ReconnectBackoffMax {
					backoff = p.cfg.ReconnectBackoffMax
				}
				continue
			}
			conn = c
			// The breaker counts dial failures, so a connected dial is
			// the probe's success. It closes the breaker before the frame
			// is written, ahead of anything the frame causes.
			pc.br.success()
			pc.setBreakerGauge()
			p.traceStage(f.tc, telemetry.StageDial, pc.id, 0)
			if attempt > 0 {
				p.met.Reconnects.Inc()
				pc.reconnects.Add(1)
				pc.linkRecon.Inc()
				p.flightEvent("reconnect", f.tc, "link to %d re-established after %d attempts", pc.id, attempt)
			}
		}
		conn.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout))
		pc.stampWrite(f)
		if err := wire.WriteFrameCtx(conn, f.msg, f.tc); err == nil {
			pc.countSent(f)
			return conn
		}
		conn.Close()
		conn = nil
		p.met.SendRetries.Inc()
	}
}

// stampWrite traces a frame before its write starts: once the bytes are
// out, the receiver may decode them, and the originator finish the query,
// before this goroutine runs again. A failed attempt stays in the trace as
// a write that no decode matches.
func (pc *peerConn) stampWrite(f outFrame) {
	pc.p.traceStage(f.tc, telemetry.StageWrite, pc.id, wire.FrameWireSize(len(f.msg), f.tc != nil))
}

// countSent counts a frame whose write succeeded. A failed attempt is not
// counted: it is retried and counted once when it goes out, or it is
// dead-lettered and never sent.
func (pc *peerConn) countSent(f outFrame) {
	pc.p.met.MessagesOut.Inc()
	pc.p.met.BytesOut.Add(frameBytes(f.msg, f.tc != nil))
}

// dial resolves the peer through the directory and connects. A peer the
// directory no longer vouches for (lease expired, never registered) is a
// dial failure: the backoff loop keeps polling, so a re-registration is
// picked up as soon as the directory reflects it.
func (pc *peerConn) dial() (net.Conn, error) {
	addr, ok := pc.p.dir.Lookup(pc.id)
	if !ok {
		return nil, errUnresolved
	}
	pc.p.met.Dials.Inc()
	return net.DialTimeout("tcp", addr, pc.p.cfg.DialTimeout)
}

// sleep waits d or until shutdown; it reports false when shutting down.
func (pc *peerConn) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-pc.p.ctx.Done():
		return false
	}
}

// LinkStat is one neighbour link's live transport state, surfaced from the
// connection pool's internal fields.
type LinkStat struct {
	// To is the neighbour the link leads to.
	To core.DeviceID
	// QueueDepth is the number of frames waiting on the link's send queue.
	QueueDepth int
	// Reconnects counts re-establishments after at least one failure.
	Reconnects int64
}

// LinkStats reports every managed outbound link, sorted by neighbour ID.
func (p *Peer) LinkStats() []LinkStat {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]LinkStat, 0, len(p.conns))
	for id, pc := range p.conns {
		out = append(out, LinkStat{
			To: id, QueueDepth: len(pc.queue), Reconnects: pc.reconnects.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].To < out[j].To })
	return out
}

// BreakerStats reports every managed link's circuit-breaker state, sorted
// by neighbour ID. Links without a breaker (Config.BreakerThreshold 0)
// report BreakerClosed.
func (p *Peer) BreakerStats() []BreakerStat {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]BreakerStat, 0, len(p.conns))
	for id, pc := range p.conns {
		s, fails := pc.br.snapshot()
		out = append(out, BreakerStat{To: id, State: s, ConsecFails: fails})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].To < out[j].To })
	return out
}

// drain gives queued frames one best-effort flush within DrainTimeout so a
// graceful shutdown does not strand results already computed (e.g. replies
// to a query that arrived just before Close).
func (pc *peerConn) drain(conn net.Conn) {
	p := pc.p
	deadline := time.Now().Add(p.cfg.DrainTimeout)
	for {
		select {
		case f := <-pc.queue:
			if conn == nil {
				c, err := pc.dial()
				if err != nil {
					p.met.DeadLetters.Inc()
					p.failSlot(f.fk, pc.id, "undeliverable at shutdown")
					continue
				}
				conn = c
			}
			conn.SetWriteDeadline(deadline)
			pc.stampWrite(f)
			if err := wire.WriteFrameCtx(conn, f.msg, f.tc); err != nil {
				conn.Close()
				conn = nil
				p.met.DeadLetters.Inc()
				p.failSlot(f.fk, pc.id, "undeliverable at shutdown")
				continue
			}
			pc.countSent(f)
		default:
			if conn != nil {
				conn.Close()
			}
			return
		}
	}
}
