package tcp

import (
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"manetskyline/internal/core"
	"manetskyline/internal/telemetry"
)

// Resolver maps device IDs to addresses; Peer uses it to reach originators
// and neighbours. Directory is the in-process implementation;
// DirectoryClient resolves against a DirectoryServer over TCP, which is
// what separate skypeer processes use. Implementations may additionally
// support Invalidator.
type Resolver interface {
	// Register records a peer's address permanently.
	Register(id core.DeviceID, addr string)
	// RegisterLease records a peer's address under a TTL lease. A leased
	// entry must be refreshed by Heartbeat before the TTL lapses or it
	// decays: first to suspect (still resolvable, in case the peer only
	// missed a beat), then to down, at which point Lookup stops returning
	// it and the flood fan-out prunes the peer.
	RegisterLease(id core.DeviceID, addr string, ttl time.Duration) error
	// Heartbeat refreshes a peer's lease. It reports false when the
	// directory no longer knows the peer, which tells the caller to
	// re-register in full.
	Heartbeat(id core.DeviceID) bool
	// Lookup resolves a peer's address.
	Lookup(id core.DeviceID) (string, bool)
}

// dirRequest is the JSON request of the directory protocol (one request and
// one response per connection).
type dirRequest struct {
	Op   string `json:"op"` // "register", "lookup", "list", "heartbeat"
	ID   int    `json:"id,omitempty"`
	Addr string `json:"addr,omitempty"`
	// TTLMS leases the registration for this many milliseconds; zero
	// registers permanently (the pre-lease protocol, still accepted).
	TTLMS int64 `json:"ttl_ms,omitempty"`
}

// dirResponse is the JSON response.
type dirResponse struct {
	OK    bool              `json:"ok"`
	Error string            `json:"error,omitempty"`
	Addr  string            `json:"addr,omitempty"`
	Peers map[string]string `json:"peers,omitempty"`
}

// janitorInterval is how often the DirectoryServer sweeps decayed leases.
const janitorInterval = 250 * time.Millisecond

// DirectoryServer serves a Directory over TCP — the bootstrap/rendezvous
// component of a multi-process deployment. Leased registrations expire
// unless refreshed by heartbeat; a janitor goroutine evicts the dead.
type DirectoryServer struct {
	dir *Directory
	ln  net.Listener
	wg  sync.WaitGroup

	met Metrics

	mu     sync.Mutex
	closed bool
	done   chan struct{}
}

// SetRegistry attaches telemetry to the server; call before clients connect.
// Lease states are exposed as tcp_dir_leases{state="live|suspect|down"}
// gauges, refreshed lazily at every exposition pass.
func (s *DirectoryServer) SetRegistry(r *telemetry.Registry) {
	s.met = NewMetrics(r)
	if r == nil {
		return
	}
	const help = "directory registrations by lease state"
	liveG := r.GaugeL("tcp_dir_leases", `state="live"`, help)
	suspectG := r.GaugeL("tcp_dir_leases", `state="suspect"`, help)
	downG := r.GaugeL("tcp_dir_leases", `state="down"`, help)
	r.OnCollect(func() {
		live, suspect, down := s.dir.StateCounts()
		liveG.Set(int64(live))
		suspectG.Set(int64(suspect))
		downG.Set(int64(down))
	})
}

// NewDirectoryServer starts serving on addr ("127.0.0.1:0" for an
// ephemeral port).
func NewDirectoryServer(addr string) (*DirectoryServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &DirectoryServer{dir: NewDirectory(), ln: ln, done: make(chan struct{})}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.janitor()
	return s, nil
}

// Addr returns the server's listen address.
func (s *DirectoryServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *DirectoryServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.done)
	s.ln.Close()
	s.wg.Wait()
}

func (s *DirectoryServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(conn)
		}()
	}
}

// janitor periodically evicts registrations whose lease decayed to down.
func (s *DirectoryServer) janitor() {
	defer s.wg.Done()
	t := time.NewTicker(janitorInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if n := s.dir.Sweep(); n > 0 {
				s.met.LeasesExpired.Add(int64(n))
			}
		case <-s.done:
			return
		}
	}
}

func (s *DirectoryServer) serve(conn net.Conn) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	var req dirRequest
	if err := json.NewDecoder(conn).Decode(&req); err != nil {
		return
	}
	s.met.DirRequests.Inc()
	enc := json.NewEncoder(conn)
	switch req.Op {
	case "register":
		s.dir.RegisterLease(core.DeviceID(req.ID), req.Addr, time.Duration(req.TTLMS)*time.Millisecond)
		enc.Encode(dirResponse{OK: true})
	case "heartbeat":
		s.met.DirHeartbeats.Inc()
		if !s.dir.Heartbeat(core.DeviceID(req.ID)) {
			enc.Encode(dirResponse{OK: false, Error: "unknown peer"})
			return
		}
		enc.Encode(dirResponse{OK: true})
	case "lookup":
		addr, ok := s.dir.Lookup(core.DeviceID(req.ID))
		if !ok {
			enc.Encode(dirResponse{OK: false, Error: "unknown peer"})
			return
		}
		enc.Encode(dirResponse{OK: true, Addr: addr})
	case "list":
		snap := s.dir.Snapshot()
		peers := make(map[string]string, len(snap))
		for id, addr := range snap {
			peers[strconv.Itoa(int(id))] = addr
		}
		enc.Encode(dirResponse{OK: true, Peers: peers})
	default:
		enc.Encode(dirResponse{OK: false, Error: fmt.Sprintf("unknown op %q", req.Op)})
	}
}

// DirectoryClient resolves peers against a remote DirectoryServer.
type DirectoryClient struct {
	addr    string
	timeout time.Duration

	mu    sync.Mutex
	cache map[core.DeviceID]string
}

// NewDirectoryClient points at a DirectoryServer address.
func NewDirectoryClient(addr string) *DirectoryClient {
	return &DirectoryClient{
		addr:    addr,
		timeout: 2 * time.Second,
		cache:   make(map[core.DeviceID]string),
	}
}

// roundTrip performs one request against the server.
func (c *DirectoryClient) roundTrip(req dirRequest) (dirResponse, error) {
	conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return dirResponse{}, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(c.timeout))
	if err := json.NewEncoder(conn).Encode(req); err != nil {
		return dirResponse{}, err
	}
	var resp dirResponse
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		return dirResponse{}, err
	}
	return resp, nil
}

// Register records this peer with the remote directory. Failures are
// surfaced via RegisterErr for callers that need them; the Resolver
// interface's Register stays fire-and-forget.
func (c *DirectoryClient) Register(id core.DeviceID, addr string) {
	c.RegisterErr(id, addr)
}

// RegisterErr is Register with an error result.
func (c *DirectoryClient) RegisterErr(id core.DeviceID, addr string) error {
	return c.RegisterLease(id, addr, 0)
}

// RegisterLease records this peer under a TTL lease (0 ⇒ permanent).
func (c *DirectoryClient) RegisterLease(id core.DeviceID, addr string, ttl time.Duration) error {
	resp, err := c.roundTrip(dirRequest{
		Op: "register", ID: int(id), Addr: addr, TTLMS: ttl.Milliseconds(),
	})
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("tcp: directory rejected registration: %s", resp.Error)
	}
	return nil
}

// Heartbeat refreshes this peer's lease; false tells the caller to
// re-register (the server forgot the peer, or the request failed).
func (c *DirectoryClient) Heartbeat(id core.DeviceID) bool {
	resp, err := c.roundTrip(dirRequest{Op: "heartbeat", ID: int(id)})
	return err == nil && resp.OK
}

// Lookup resolves a peer, caching successful answers. The cache is evicted
// by Invalidate when the transport observes dial failures, so a peer that
// re-registered on a new address is re-resolved instead of pinned stale.
func (c *DirectoryClient) Lookup(id core.DeviceID) (string, bool) {
	c.mu.Lock()
	if addr, ok := c.cache[id]; ok {
		c.mu.Unlock()
		return addr, true
	}
	c.mu.Unlock()
	resp, err := c.roundTrip(dirRequest{Op: "lookup", ID: int(id)})
	if err != nil || !resp.OK {
		return "", false
	}
	c.mu.Lock()
	c.cache[id] = resp.Addr
	c.mu.Unlock()
	return resp.Addr, true
}

// Invalidate drops a cached address so the next Lookup asks the server.
func (c *DirectoryClient) Invalidate(id core.DeviceID) {
	c.mu.Lock()
	delete(c.cache, id)
	c.mu.Unlock()
}

// List returns every resolvable registered peer.
func (c *DirectoryClient) List() (map[core.DeviceID]string, error) {
	resp, err := c.roundTrip(dirRequest{Op: "list"})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("tcp: directory list failed: %s", resp.Error)
	}
	out := make(map[core.DeviceID]string, len(resp.Peers))
	for k, v := range resp.Peers {
		id, err := strconv.Atoi(k)
		if err != nil {
			return nil, fmt.Errorf("tcp: bad peer id %q in directory response", k)
		}
		out[core.DeviceID(id)] = v
	}
	return out, nil
}
