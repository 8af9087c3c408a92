package chaos

import (
	"bufio"
	"io"
	"net"
	"sync"
	"time"

	"manetskyline/internal/core"
	"manetskyline/internal/wire"
)

// linkProxy forwards frames for one directed link (from → to), applying the
// plan. Each accepted client connection gets its own backend connection to
// the destination peer (resolved at accept time, so a re-registered peer on
// a new port is picked up by the next connection).
type linkProxy struct {
	r        *Router
	from, to int
	ln       net.Listener

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func newLinkProxy(r *Router, from, to int) (*linkProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &linkProxy{r: r, from: from, to: to, ln: ln, conns: make(map[net.Conn]struct{})}
	r.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

func (p *linkProxy) addr() string { return p.ln.Addr().String() }

// track registers a connection for teardown; returns false if the proxy is
// already closing.
func (p *linkProxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conns == nil {
		return false
	}
	p.conns[c] = struct{}{}
	return true
}

func (p *linkProxy) untrack(c net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conns != nil {
		delete(p.conns, c)
	}
}

// close stops the listener and severs every live connection so pumps
// unblock.
func (p *linkProxy) close() {
	p.ln.Close()
	p.mu.Lock()
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	for c := range conns {
		c.Close()
	}
}

func (p *linkProxy) acceptLoop() {
	defer p.r.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.r.wg.Add(1)
		go p.pump(client)
	}
}

// pump shuttles frames from one client connection to a fresh backend
// connection, applying the plan per frame.
func (p *linkProxy) pump(client net.Conn) {
	defer p.r.wg.Done()
	defer client.Close()
	if !p.track(client) {
		return
	}
	defer p.untrack(client)

	addr, ok := p.r.inner.Lookup(core.DeviceID(p.to))
	if !ok {
		return
	}
	backend, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return
	}
	defer backend.Close()
	if !p.track(backend) {
		return
	}
	defer p.untrack(backend)

	// The protocol never sends bytes backend → client, but propagating a
	// backend close (peer crash) to the client keeps failure detection
	// honest.
	p.r.wg.Add(1)
	go func() {
		defer p.r.wg.Done()
		io.Copy(io.Discard, backend)
		client.Close()
	}()

	// Delayed (reordered) writes from other goroutines share the backend
	// stream with the inline path; the mutex keeps frames intact.
	var wmu sync.Mutex
	var delayed sync.WaitGroup
	defer delayed.Wait()

	in := bufio.NewReaderSize(client, wire.ReadBufferSize)
	var out io.Writer = backend
	if chunk := p.r.opts.Extras.TrickleChunk; chunk > 0 {
		out = &trickle{w: backend, chunk: chunk, delay: p.r.opts.Extras.TrickleDelay, done: p.r.done}
	}
	for {
		// Raw passthrough: the proxy must not interpret (or rewrite) the
		// header, so traced v2 frames cross the middlebox byte-identical.
		hdr, body, err := wire.ReadRawFrame(in)
		if err != nil {
			return
		}
		now, ok := p.waitHealed()
		if !ok {
			return
		}
		drop, delay, dups := p.r.frameFate(p.from, p.to, now)
		if drop {
			continue
		}
		wallDelay := p.r.wallFor(delay) + p.r.opts.Extras.Latency
		if wallDelay > 0 {
			hdr, body := hdr, body
			delayed.Add(1)
			p.r.wg.Add(1)
			go func() {
				defer p.r.wg.Done()
				defer delayed.Done()
				select {
				case <-time.After(wallDelay):
				case <-p.r.done:
					return
				}
				wmu.Lock()
				defer wmu.Unlock()
				for i := 0; i <= dups; i++ {
					if wire.WriteRawFrame(out, hdr, body) != nil {
						return
					}
				}
			}()
			continue
		}
		wmu.Lock()
		werr := wire.WriteRawFrame(out, hdr, body)
		for i := 0; i < dups && werr == nil; i++ {
			werr = wire.WriteRawFrame(out, hdr, body)
		}
		wmu.Unlock()
		if werr != nil {
			return
		}
		if p.r.chance(p.r.opts.Extras.ResetProb) {
			// Forwarded, then reset: connection churn without frame loss.
			return
		}
	}
}

// waitHealed blocks while the link is severed (outage or partition), letting
// frames queue rather than vanish — a severed TCP path loses no data unless
// an endpoint gives up. It returns the plan time at which it found the link
// open, or false when the router shuts down first.
func (p *linkProxy) waitHealed() (float64, bool) {
	for {
		now := p.r.now()
		if !p.r.eval.Severed(p.from, p.to, now) {
			return now, true
		}
		until, forever := p.r.eval.SeveredUntil(p.from, p.to, now)
		wait := 100 * time.Millisecond
		if !forever {
			if w := p.r.wallFor(until-now) + time.Millisecond; w < wait {
				wait = w
			}
		}
		select {
		case <-p.r.done:
			return 0, false
		case <-time.After(wait):
		}
	}
}

// trickle is the backend writer under Extras.TrickleChunk: it splits each
// frame the proxy forwards into chunk-byte writes, pausing delay between
// them, so the receiver sees the frame arrive in pieces.
type trickle struct {
	w     io.Writer
	chunk int
	delay time.Duration
	done  <-chan struct{}
}

func (t *trickle) Write(b []byte) (int, error) {
	sent := 0
	for sent < len(b) {
		n := min(t.chunk, len(b)-sent)
		if _, err := t.w.Write(b[sent : sent+n]); err != nil {
			return sent, err
		}
		sent += n
		if t.delay > 0 && sent < len(b) {
			select {
			case <-t.done:
				return sent, net.ErrClosed
			case <-time.After(t.delay):
			}
		}
	}
	return sent, nil
}
