package tcp

import (
	"testing"
	"time"

	"manetskyline/internal/core"
	"manetskyline/internal/gen"
	"manetskyline/internal/skyline"
	"manetskyline/internal/tuple"
)

// state reports the liveness of a peer's registration.
func (d *Directory) state(id core.DeviceID) LeaseState {
	d.mu.RLock()
	defer d.mu.RUnlock()
	e, ok := d.addrs[id]
	if !ok {
		return LeaseUnknown
	}
	return e.state(time.Now())
}

func TestDirectoryServerRegisterLookupList(t *testing.T) {
	srv, err := NewDirectoryServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewDirectoryServer: %v", err)
	}
	defer srv.Close()

	c := NewDirectoryClient(srv.Addr())
	if _, ok := c.Lookup(7); ok {
		t.Errorf("lookup before registration should miss")
	}
	if err := c.RegisterErr(7, "127.0.0.1:1111"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := c.RegisterErr(8, "127.0.0.1:2222"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if addr, ok := c.Lookup(7); !ok || addr != "127.0.0.1:1111" {
		t.Errorf("Lookup(7) = %q %v", addr, ok)
	}
	// Cache hit path.
	if addr, ok := c.Lookup(7); !ok || addr != "127.0.0.1:1111" {
		t.Errorf("cached Lookup(7) = %q %v", addr, ok)
	}
	all, err := c.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(all) != 2 || all[8] != "127.0.0.1:2222" {
		t.Errorf("List = %v", all)
	}
}

func TestDirectoryClientAgainstDeadServer(t *testing.T) {
	c := NewDirectoryClient("127.0.0.1:1") // nothing listens there
	c.timeout = 200 * time.Millisecond
	if err := c.RegisterErr(1, "x"); err == nil {
		t.Errorf("register against dead server should error")
	}
	if _, ok := c.Lookup(1); ok {
		t.Errorf("lookup against dead server should miss")
	}
	if _, err := c.List(); err == nil {
		t.Errorf("list against dead server should error")
	}
}

// Full multi-process shape in one process: peers resolve each other through
// a DirectoryServer over TCP, and the distributed query still matches the
// centralized skyline.
func TestPeersThroughDirectoryServer(t *testing.T) {
	srv, err := NewDirectoryServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewDirectoryServer: %v", err)
	}
	defer srv.Close()

	cfg := gen.DefaultConfig(2000, 2, gen.Independent, 13)
	data := gen.Generate(cfg)
	parts := gen.GridPartition(data, 2, cfg.Space)
	peers := make([]*Peer, len(parts))
	for i, part := range parts {
		pos := gen.CellRect(i/2, i%2, 2, cfg.Space).Center()
		// Each peer gets its own client, as separate processes would.
		p, err := NewPeer(core.DeviceID(i), part, cfg.Schema(), core.Under, true,
			pos, NewDirectoryClient(srv.Addr()), DefaultConfig())
		if err != nil {
			t.Fatalf("NewPeer %d: %v", i, err)
		}
		defer p.Close()
		peers[i] = p
	}
	for i, p := range peers {
		for j := range peers {
			if i != j {
				p.AddNeighbor(core.DeviceID(j))
			}
		}
	}
	res, err := peers[0].Query(600, len(peers))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !res.Complete {
		t.Fatalf("query through directory server incomplete: %d results", res.Results)
	}
	want := skyline.Constrained(data, peers[0].Pos(), 600)
	if !skyline.SetEqual(res.Skyline, want) {
		t.Errorf("got %d tuples, want %d", len(res.Skyline), len(want))
	}
}

// TestDirectoryLeaseStates walks one in-process lease through live →
// suspect → down and back via re-registration.
func TestDirectoryLeaseStates(t *testing.T) {
	d := NewDirectory()
	const ttl = 80 * time.Millisecond
	if err := d.RegisterLease(3, "127.0.0.1:1111", ttl); err != nil {
		t.Fatalf("RegisterLease: %v", err)
	}
	if st := d.state(3); st != LeaseLive {
		t.Fatalf("fresh lease state = %v, want live", st)
	}
	if _, ok := d.Lookup(3); !ok {
		t.Fatalf("live lease should resolve")
	}
	// Heartbeats keep it alive past the TTL.
	for i := 0; i < 4; i++ {
		time.Sleep(ttl / 2)
		if !d.Heartbeat(3) {
			t.Fatalf("heartbeat %d rejected", i)
		}
	}
	if st := d.state(3); st != LeaseLive {
		t.Fatalf("heartbeated lease state = %v, want live", st)
	}
	// Lapse: one TTL in, the entry is suspect but still resolvable.
	time.Sleep(ttl + ttl/4)
	if st := d.state(3); st != LeaseSuspect {
		t.Errorf("state after one TTL = %v, want suspect", st)
	}
	if _, ok := d.Lookup(3); !ok {
		t.Errorf("suspect lease should still resolve")
	}
	// Past the grace period the peer is down: invisible and heartbeats are
	// rejected, forcing a full re-registration.
	time.Sleep(ttl)
	if st := d.state(3); st != LeaseDown {
		t.Errorf("state after grace = %v, want down", st)
	}
	if _, ok := d.Lookup(3); ok {
		t.Errorf("down lease should not resolve")
	}
	if d.Heartbeat(3) {
		t.Errorf("heartbeat on a down lease should be rejected")
	}
	// The restarted peer re-registers on a new port.
	if err := d.RegisterLease(3, "127.0.0.1:2222", ttl); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	if addr, ok := d.Lookup(3); !ok || addr != "127.0.0.1:2222" {
		t.Errorf("re-registered Lookup = %q %v, want new address", addr, ok)
	}
	if d.Sweep() != 0 {
		t.Errorf("nothing should be sweepable after re-registration")
	}
}

// TestDirectoryServerLeaseExpiryAndReRegistration runs the same lifecycle
// through the TCP directory protocol: a peer crashes, its lease lapses,
// Lookup stops returning it; it restarts on a new port and a heartbeat
// cycle refreshes the entry.
func TestDirectoryServerLeaseExpiryAndReRegistration(t *testing.T) {
	srv, err := NewDirectoryServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewDirectoryServer: %v", err)
	}
	defer srv.Close()
	const ttl = 100 * time.Millisecond

	c := NewDirectoryClient(srv.Addr())
	if err := c.RegisterLease(5, "127.0.0.1:1111", ttl); err != nil {
		t.Fatalf("RegisterLease: %v", err)
	}
	if !c.Heartbeat(5) {
		t.Fatalf("heartbeat on a live lease should succeed")
	}
	if addr, ok := c.Lookup(5); !ok || addr != "127.0.0.1:1111" {
		t.Fatalf("Lookup = %q %v", addr, ok)
	}

	// Crash: no more heartbeats. Past TTL+grace the server forgets the
	// peer; a fresh client (no cache) must miss, and the janitor must have
	// swept the entry out of list as well.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if st := srv.dir.state(5); st == LeaseDown || st == LeaseUnknown {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease never decayed, state = %v", srv.dir.state(5))
		}
		time.Sleep(20 * time.Millisecond)
	}
	fresh := NewDirectoryClient(srv.Addr())
	if _, ok := fresh.Lookup(5); ok {
		t.Errorf("lookup after lease decay should miss")
	}
	if all, err := fresh.List(); err != nil || len(all) != 0 {
		t.Errorf("List after decay = %v %v, want empty", all, err)
	}
	if c.Heartbeat(5) {
		t.Errorf("heartbeat after decay should be rejected")
	}

	// Restart on a new port: re-register, and heartbeats hold the new
	// entry live across several TTLs.
	if err := c.RegisterLease(5, "127.0.0.1:2222", ttl); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	for i := 0; i < 4; i++ {
		time.Sleep(ttl / 2)
		if !c.Heartbeat(5) {
			t.Fatalf("heartbeat %d after restart rejected", i)
		}
	}
	if addr, ok := fresh.Lookup(5); !ok || addr != "127.0.0.1:2222" {
		t.Errorf("Lookup after restart = %q %v, want new address", addr, ok)
	}
}

// TestPeerLeaseCrashRestart exercises the full loop with live peers: a
// leased peer crashes, decays out of the directory (so the survivor's
// flood suppresses sends to it), then a replacement on a new port registers
// under the same ID and queries span both again.
func TestPeerLeaseCrashRestart(t *testing.T) {
	srv, err := NewDirectoryServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewDirectoryServer: %v", err)
	}
	defer srv.Close()

	cfg := DefaultConfig()
	cfg.QueryTimeout = time.Second
	cfg.LeaseTTL = 120 * time.Millisecond
	data := gen.Generate(gen.DefaultConfig(600, 2, gen.Independent, 17))
	half := len(data) / 2
	schema := tuple.NewSchema(2, 0, 1000)

	mk := func(id core.DeviceID, ts []tuple.Tuple) *Peer {
		p, err := NewPeer(id, ts, schema, core.Under, true,
			tuple.Point{X: 500, Y: 500}, NewDirectoryClient(srv.Addr()), cfg)
		if err != nil {
			t.Fatalf("NewPeer %d: %v", id, err)
		}
		return p
	}
	p0 := mk(0, data[:half])
	defer p0.Close()
	p1 := mk(1, data[half:])
	p0.AddNeighbor(1)
	p1.AddNeighbor(0)

	res, err := p0.Query(core.Unconstrained(), 2)
	if err != nil || !res.Complete {
		t.Fatalf("initial query: err=%v complete=%v", err, res.Complete)
	}
	oldAddr := p1.Addr()

	// Crash peer 1 and wait for its lease to decay out of the directory.
	p1.Close()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if st := srv.dir.state(1); st == LeaseDown || st == LeaseUnknown {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("crashed peer's lease never decayed")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Restart under the same ID: a different process would get a new port.
	p1b := mk(1, data[half:])
	defer p1b.Close()
	p1b.AddNeighbor(0)
	if p1b.Addr() == oldAddr {
		t.Logf("restarted peer reused %s (rare but harmless)", oldAddr)
	}
	// The survivor's cached address is stale; its pool invalidates it on
	// dial failure and re-resolves. Allow a couple of query attempts.
	ok := false
	for attempt := 0; attempt < 5 && !ok; attempt++ {
		res, err := p0.Query(core.Unconstrained(), 2)
		if err != nil {
			t.Fatalf("query after restart: %v", err)
		}
		ok = res.Complete
	}
	if !ok {
		t.Errorf("queries never completed against the restarted peer")
	}
	want := skyline.Constrained(data, p0.Pos(), core.Unconstrained())
	res, err = p0.Query(core.Unconstrained(), 2)
	if err != nil || !res.Complete {
		t.Fatalf("final query: err=%v complete=%v", err, res.Complete)
	}
	if !skyline.SetEqual(res.Skyline, want) {
		t.Errorf("restarted network skyline: got %d tuples, want %d", len(res.Skyline), len(want))
	}
}

func TestDirectoryServerBadRequests(t *testing.T) {
	srv, err := NewDirectoryServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewDirectoryServer: %v", err)
	}
	defer srv.Close()
	c := NewDirectoryClient(srv.Addr())
	resp, err := c.roundTrip(dirRequest{Op: "bogus"})
	if err != nil {
		t.Fatalf("roundTrip: %v", err)
	}
	if resp.OK {
		t.Errorf("bogus op should be rejected")
	}
	srv.Close()
	srv.Close() // idempotent
}
