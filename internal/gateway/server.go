package gateway

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"manetskyline/internal/core"
	"manetskyline/internal/wire"
)

// ServerConfig tunes the gateway's TCP front door.
type ServerConfig struct {
	// Addr is the listen address ("" ⇒ 127.0.0.1:0).
	Addr string
	// ID stamps the From field of result frames (the gateway's identity in
	// the client's eyes).
	ID core.DeviceID
	// Strategy is the forwarding strategy requests run under.
	Strategy Strategy
	// ReqTimeout is each request's deadline from arrival (0 ⇒ the
	// gateway's DefaultDeadline).
	ReqTimeout time.Duration
	// Logf, when non-nil, receives per-connection diagnostics.
	Logf func(format string, args ...any)
}

// Server is the wire front door of a Gateway: clients send KindQuery
// frames and get back exactly one frame per query — KindResult on success
// or KindReject with a reason and retry-after hint on shed/failure. Every
// query gets an answer; "the gateway timed you out silently" is not an
// outcome this protocol can express.
type Server struct {
	g   *Gateway
	cfg ServerConfig
	ln  net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer starts serving g on cfg.Addr.
func NewServer(g *Gateway, cfg ServerConfig) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("gateway: listen: %w", err)
	}
	s := &Server{g: g, cfg: cfg, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, severs live client connections, and waits for the
// per-connection goroutines to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

// logf forwards to ServerConfig.Logf when set.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// acceptLoop owns the listener.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// serveConn handles one client connection: a sequence of query frames,
// each answered in order with a result or reject frame.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, wire.ReadBufferSize)
	for {
		msg, err := wire.ReadFrame(br)
		if err != nil {
			return // EOF or severed
		}
		kind, err := wire.Peek(msg)
		if err != nil || kind != wire.KindQuery {
			s.logf("gateway: dropping non-query frame from %s", conn.RemoteAddr())
			continue
		}
		q, err := wire.DecodeQuery(msg)
		if err != nil {
			s.logf("gateway: bad query from %s: %v", conn.RemoteAddr(), err)
			return
		}
		if err := wire.WriteFrame(conn, s.handle(q)); err != nil {
			return
		}
	}
}

// handle runs one decoded query through the gateway and renders the reply
// frame.
func (s *Server) handle(q core.Query) []byte {
	req := Request{Pos: q.Pos, D: q.D, Strategy: s.cfg.Strategy}
	if s.cfg.ReqTimeout > 0 {
		req.Deadline = time.Now().Add(s.cfg.ReqTimeout)
	}
	key := core.QueryKey{Org: q.Org, Cnt: q.Cnt}
	res, err := s.g.Do(req)
	if err == nil {
		return wire.EncodeResult(wire.Result{Key: key, From: s.cfg.ID, Tuples: res.Skyline})
	}
	rej := wire.Reject{Key: key, Code: wire.RejectUnavailable}
	var se *SheddedError
	if errors.As(err, &se) {
		rej.Code = se.Code
		if ms := se.RetryAfter.Milliseconds(); ms > 0 {
			rej.RetryAfterMs = uint32(ms)
		} else if se.RetryAfter > 0 {
			rej.RetryAfterMs = 1 // sub-millisecond hint still beats "unknown"
		}
	}
	return wire.EncodeReject(rej)
}
