package tcp

import (
	"net"
	"sync"
	"testing"
	"time"

	"manetskyline/internal/core"
	"manetskyline/internal/gen"
	"manetskyline/internal/leaktest"
	"manetskyline/internal/skyline"
	"manetskyline/internal/telemetry"
	"manetskyline/internal/tuple"
	"manetskyline/internal/wire"
)

// startPeers starts one unlinked TCP peer per cell of a g×g partition of
// the dataset c describes, each at its cell's centre.
func startPeers(t *testing.T, cfg Config, c gen.Config, g int) ([]*Peer, []tuple.Tuple, func()) {
	t.Helper()
	data := gen.Generate(c)
	parts := gen.GridPartition(data, g, c.Space)
	dir := NewDirectory()
	peers := make([]*Peer, len(parts))
	for i, part := range parts {
		pos := gen.CellRect(i/g, i%g, g, c.Space).Center()
		p, err := NewPeer(core.DeviceID(i), part, c.Schema(), core.Under, true, pos, dir, cfg)
		if err != nil {
			t.Fatalf("NewPeer %d: %v", i, err)
		}
		peers[i] = p
	}
	cleanup := func() {
		for _, p := range peers {
			p.Close()
		}
	}
	return peers, data, cleanup
}

// buildPeers starts a g×g network of TCP peers over a fresh dataset, linked
// by grid adjacency.
func buildPeers(t *testing.T, cfg Config, n, dim, g int, seed int64) ([]*Peer, []tuple.Tuple, func()) {
	t.Helper()
	peers, data, cleanup := startPeers(t, cfg, gen.DefaultConfig(n, dim, gen.Independent, seed), g)
	linkGrid(peers, g)
	return peers, data, cleanup
}

// link joins two peers both ways.
func link(a, b *Peer) {
	a.AddNeighbor(b.ID())
	b.AddNeighbor(a.ID())
}

// linkGrid links a g×g fleet by grid adjacency.
func linkGrid(peers []*Peer, g int) {
	for i := range peers {
		if i%g < g-1 {
			link(peers[i], peers[i+1])
		}
		if i+g < len(peers) {
			link(peers[i], peers[i+g])
		}
	}
}

// linkAll links every pair of peers: a full mesh.
func linkAll(peers []*Peer) {
	for i := range peers {
		for j := i + 1; j < len(peers); j++ {
			link(peers[i], peers[j])
		}
	}
}

// TestQueryOverRealSockets checks every answer against the centralized
// constrained skyline. Corner-to-corner grid queries need four hops; the
// repeat case issues five queries back to back from one originator, so
// copies of one query's flood still move while the next floods, and every
// other peer's core.QueryLog must accept each new key once.
func TestQueryOverRealSockets(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		dist  gen.Distribution
		mesh  bool
		radii []float64
		orgs  []int
	}{
		{"grid", 3000, gen.Independent, false, []float64{500}, []int{0, 4, 8}},
		{"mesh_anticorrelated", 3000, gen.AntiCorrelated, true, []float64{100, 250, 500}, []int{0, 4, 8}},
		{"repeat_originator", 3000, gen.Independent, true, []float64{300}, []int{1, 1, 1, 1, 1}},
		{"empty_relations", 0, gen.Independent, true, []float64{100}, []int{0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peers, data, cleanup := startPeers(t, DefaultConfig(), gen.DefaultConfig(tc.n, 2, tc.dist, 5), 3)
			defer cleanup()
			if tc.mesh {
				linkAll(peers)
			} else {
				linkGrid(peers, 3)
			}
			for _, d := range tc.radii {
				for _, org := range tc.orgs {
					res, err := peers[org].Query(d, len(peers))
					if err != nil {
						t.Fatalf("Query: %v", err)
					}
					if !res.Complete {
						t.Fatalf("d=%v org %d: incomplete (%d results)", d, org, res.Results)
					}
					want := skyline.Constrained(data, peers[org].Pos(), d)
					if !skyline.SetEqual(res.Skyline, want) {
						t.Errorf("d=%v org %d: got %d tuples, want %d", d, org, len(res.Skyline), len(want))
					}
				}
			}
		})
	}
}

// TestConcurrentQueriesOverSockets has every peer query at once and checks
// each answer against the centralized constrained skyline, over grid links
// and over a full mesh.
func TestConcurrentQueriesOverSockets(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n, dim int
		g      int
		mesh   bool
		d      float64
		seed   int64
	}{
		{"grid", 2000, 3, 2, false, 600, 7},
		{"full_mesh", 3000, 2, 3, true, 400, 13},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peers, data, cleanup := startPeers(t, DefaultConfig(), gen.DefaultConfig(tc.n, tc.dim, gen.Independent, tc.seed), tc.g)
			defer cleanup()
			if tc.mesh {
				linkAll(peers)
			} else {
				linkGrid(peers, tc.g)
			}
			var wg sync.WaitGroup
			errs := make(chan string, len(peers))
			for _, p := range peers {
				p := p
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := p.Query(tc.d, len(peers))
					if err != nil || !res.Complete {
						errs <- "incomplete or failed"
						return
					}
					want := skyline.Constrained(data, p.Pos(), tc.d)
					if !skyline.SetEqual(res.Skyline, want) {
						errs <- "wrong result"
					}
				}()
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Error(e)
			}
		})
	}
}

// TestDeadNeighborToleratedViaTimeout queries a 2×2 fleet that cannot
// reach every peer: one with a dead corner peer, and one partitioned so the
// originator is linked to a single peer. The reachable peers still answer;
// quorum 1.0 times out incomplete, while quorum 0.3 (one of three) completes.
func TestDeadNeighborToleratedViaTimeout(t *testing.T) {
	for _, tc := range []struct {
		name     string
		dead     bool // grid links and peer 3 closed; else only peers 0 and 1 linked
		quorum   float64
		results  int
		complete bool
	}{
		{"dead_corner", true, 1, 2, false},
		{"partition", false, 1, 1, false},
		{"partition_quorum_0.3", false, 0.3, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.QueryTimeout = 300 * time.Millisecond
			cfg.Quorum = tc.quorum
			peers, _, cleanup := startPeers(t, cfg, gen.DefaultConfig(1000, 2, gen.Independent, 9), 2)
			defer cleanup()
			if tc.dead {
				linkGrid(peers, 2)
				peers[3].Close()
			} else {
				link(peers[0], peers[1])
			}
			res, err := peers[0].Query(core.Unconstrained(), len(peers))
			if err != nil {
				t.Fatalf("Query: %v", err)
			}
			if res.Results != tc.results || res.Complete != tc.complete {
				t.Errorf("Results=%d Complete=%v, want %d %v", res.Results, res.Complete, tc.results, tc.complete)
			}
		})
	}
}

func TestCloseIsIdempotentAndQueryAfterCloseErrors(t *testing.T) {
	dir := NewDirectory()
	p, err := NewPeer(1, nil, tuple.NewSchema(2, 0, 10), core.Exact, true, tuple.Point{}, dir, DefaultConfig())
	if err != nil {
		t.Fatalf("NewPeer: %v", err)
	}
	p.Close()
	p.Close()
	if _, err := p.Query(10, 1); err != ErrClosed {
		t.Errorf("Query after Close = %v, want ErrClosed", err)
	}
}

func TestDirectory(t *testing.T) {
	d := NewDirectory()
	if _, ok := d.Lookup(5); ok {
		t.Errorf("empty directory should miss")
	}
	d.Register(5, "127.0.0.1:1234")
	if a, ok := d.Lookup(5); !ok || a != "127.0.0.1:1234" {
		t.Errorf("Lookup = %v %v", a, ok)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := []Config{
		{QueryTimeout: 0, Quorum: 1, DialTimeout: 1},
		{QueryTimeout: 1, Quorum: 0, DialTimeout: 1},
		{QueryTimeout: 1, Quorum: 2, DialTimeout: 1},
		{QueryTimeout: 1, Quorum: 1, DialTimeout: 0},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

// TestDuplicateResultFrameDoesNotCompleteQuorum replays a duplicated Result
// frame at the originator: the quorum must count unique senders, not
// messages, or a retried/duplicated reply completes a query with devices
// missing (the bug this pins down).
func TestDuplicateResultFrameDoesNotCompleteQuorum(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := DefaultConfig()
	cfg.QueryTimeout = 600 * time.Millisecond
	cfg.Registry = reg
	dir := NewDirectory()
	p, err := NewPeer(0, nil, tuple.NewSchema(2, 0, 10), core.Under, true, tuple.Point{}, dir, cfg)
	if err != nil {
		t.Fatalf("NewPeer: %v", err)
	}
	defer p.Close()

	// want = 2 results for totalPeers = 3; the peer has no neighbours, the
	// test injects replies over a raw socket.
	resCh := make(chan QueryResult, 1)
	go func() {
		r, err := p.Query(core.Unconstrained(), 3)
		if err != nil {
			t.Errorf("Query: %v", err)
		}
		resCh <- r
	}()
	time.Sleep(50 * time.Millisecond) // let the pending query register

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// The peer's first query is (Org 0, Cnt 1). Send the same sender's
	// result three times: it must count once.
	dup := wire.EncodeResult(wire.Result{
		Key: core.QueryKey{Org: 0, Cnt: 1}, From: 7,
		Tuples: []tuple.Tuple{{X: 1, Y: 1, Attrs: []float64{1, 1}}},
	})
	for i := 0; i < 3; i++ {
		if err := wire.WriteFrame(conn, dup); err != nil {
			t.Fatalf("write dup %d: %v", i, err)
		}
	}

	res := <-resCh
	if res.Complete {
		t.Errorf("duplicated result frames completed a 2-result quorum")
	}
	if res.Results != 1 {
		t.Errorf("unique results = %d, want 1", res.Results)
	}
	if got := reg.Snapshot().Counters["tcp_dup_results_total"]; got != 2 {
		t.Errorf("tcp_dup_results_total = %d, want 2", got)
	}
}

// TestDistinctSendersCompleteQuorumDespiteDuplicates is the positive half:
// duplicates are ignored, distinct senders still complete the query.
func TestDistinctSendersCompleteQuorumDespiteDuplicates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueryTimeout = 2 * time.Second
	dir := NewDirectory()
	p, err := NewPeer(0, nil, tuple.NewSchema(2, 0, 10), core.Under, true, tuple.Point{}, dir, cfg)
	if err != nil {
		t.Fatalf("NewPeer: %v", err)
	}
	defer p.Close()

	resCh := make(chan QueryResult, 1)
	go func() {
		r, _ := p.Query(core.Unconstrained(), 3)
		resCh <- r
	}()
	time.Sleep(50 * time.Millisecond)

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	key := core.QueryKey{Org: 0, Cnt: 1}
	for _, from := range []core.DeviceID{7, 7, 8} {
		f := wire.EncodeResult(wire.Result{Key: key, From: from})
		if err := wire.WriteFrame(conn, f); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	res := <-resCh
	if !res.Complete || res.Results != 2 {
		t.Errorf("Complete=%v Results=%d, want true 2", res.Complete, res.Results)
	}
}

// TestCorruptedFrameCountedNotSwallowed sends a truncated query body and an
// unknown-kind frame: both must be visible in the tcp_decode_failures /
// tcp_frames_dropped counters instead of vanishing silently.
func TestCorruptedFrameCountedNotSwallowed(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := DefaultConfig()
	cfg.Registry = reg
	var logged []string
	var logMu sync.Mutex
	cfg.Logf = func(format string, args ...any) {
		logMu.Lock()
		logged = append(logged, format)
		logMu.Unlock()
	}
	dir := NewDirectory()
	p, err := NewPeer(0, nil, tuple.NewSchema(2, 0, 10), core.Under, true, tuple.Point{}, dir, cfg)
	if err != nil {
		t.Fatalf("NewPeer: %v", err)
	}
	defer p.Close()

	// Unknown kind: frame skipped, connection stays up.
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, []byte{0xEE, 1, 2, 3}); err != nil {
		t.Fatalf("write unknown kind: %v", err)
	}
	// Corrupted query: kind byte says query, body truncated → decode fails
	// and the peer closes the connection.
	if err := wire.WriteFrame(conn, []byte{byte(wire.KindQuery), 0x01}); err != nil {
		t.Fatalf("write corrupt frame: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		snap := reg.Snapshot()
		if snap.Counters["tcp_decode_failures_total"] >= 1 &&
			snap.Counters["tcp_frames_dropped_total"] >= 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["tcp_decode_failures_total"]; got != 1 {
		t.Errorf("tcp_decode_failures_total = %d, want 1", got)
	}
	if got := snap.Counters["tcp_frames_dropped_total"]; got != 1 {
		t.Errorf("tcp_frames_dropped_total = %d, want 1", got)
	}
	// The close reason was logged, not swallowed.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := wire.ReadFrame(conn); err == nil {
		t.Errorf("peer should close the connection after a decode failure")
	}
	logMu.Lock()
	defer logMu.Unlock()
	if len(logged) == 0 {
		t.Errorf("decode failure should be logged via Config.Logf")
	}
}

// TestPeerCloseLeaksNothing is the goroutine-leak gate over the supervised
// runtime: accept/serve/writer/heartbeat loops must all exit on Close,
// including with frames still queued to an unreachable neighbour.
func TestPeerCloseLeaksNothing(t *testing.T) {
	defer leaktest.Check(t)()
	cfg := DefaultConfig()
	cfg.QueryTimeout = 300 * time.Millisecond
	cfg.LeaseTTL = 200 * time.Millisecond
	peers, _, cleanup := buildPeers(t, cfg, 800, 2, 2, 21)
	// A neighbour that is registered but unreachable keeps a writer in its
	// dial-backoff loop until Close.
	dead := core.DeviceID(99)
	peers[0].dir.Register(dead, "127.0.0.1:1")
	peers[0].AddNeighbor(dead)
	if _, err := peers[0].Query(400, len(peers)); err != nil {
		t.Fatalf("Query: %v", err)
	}
	cleanup()
}

func TestSinglePeerQuery(t *testing.T) {
	dir := NewDirectory()
	data := gen.Generate(gen.DefaultConfig(500, 2, gen.Independent, 3))
	p, err := NewPeer(0, data, tuple.NewSchema(2, 1, 1000), core.Under, true,
		tuple.Point{X: 500, Y: 500}, dir, DefaultConfig())
	if err != nil {
		t.Fatalf("NewPeer: %v", err)
	}
	defer p.Close()
	res, err := p.Query(300, 1)
	if err != nil || !res.Complete {
		t.Fatalf("solo query: %v %v", err, res.Complete)
	}
	want := skyline.Constrained(data, p.Pos(), 300)
	if !skyline.SetEqual(res.Skyline, want) {
		t.Errorf("solo query wrong: %d vs %d", len(res.Skyline), len(want))
	}
}
