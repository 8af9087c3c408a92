package chaos

import (
	"testing"
	"time"

	"manetskyline/internal/core"
	"manetskyline/internal/faults"
	"manetskyline/internal/gen"
	"manetskyline/internal/leaktest"
	"manetskyline/internal/skyline"
	"manetskyline/internal/tcp"
	"manetskyline/internal/telemetry"
	"manetskyline/internal/tuple"
)

// twoPeers builds the smallest proxied network: two neighbouring peers whose
// only link runs through the router.
func twoPeers(t *testing.T, plan *faults.Plan, opts Options, cfg tcp.Config) (
	p0, p1 *tcp.Peer, data []tuple.Tuple, done func()) {
	t.Helper()
	gcfg := gen.DefaultConfig(400, 2, gen.Independent, 3)
	data = gen.Generate(gcfg)
	half := len(data) / 2
	dir := tcp.NewDirectory()
	router := NewRouter(dir, plan, opts)
	mk := func(id core.DeviceID, ts []tuple.Tuple) *tcp.Peer {
		p, err := tcp.NewPeer(id, ts, gcfg.Schema(), core.Under, true,
			tuple.Point{X: 500, Y: 500}, router.View(id), cfg)
		if err != nil {
			t.Fatalf("NewPeer %d: %v", id, err)
		}
		return p
	}
	p0 = mk(0, data[:half])
	p1 = mk(1, data[half:])
	p0.AddNeighbor(1)
	p1.AddNeighbor(0)
	return p0, p1, data, func() {
		p0.Close()
		p1.Close()
		router.Close()
	}
}

// A query issued into an active partition must not fail — the frames stall
// at the proxy like they would in a severed TCP path and the query completes
// once the window heals.
func TestProxyPartitionStallsAndHeals(t *testing.T) {
	defer leaktest.Check(t)()
	plan := &faults.Plan{Partitions: []faults.Partition{{
		Window: faults.Window{Start: 0, End: 0.6},
		Groups: [][]int{{0}, {1}},
	}}}
	p0, _, data, done := twoPeers(t, plan, Options{}, tcp.DefaultConfig())
	defer done()

	res, err := p0.Query(core.Unconstrained(), 2)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !res.Complete {
		t.Fatalf("query across a healed partition incomplete: %d results", res.Results)
	}
	if res.Elapsed < 300*time.Millisecond {
		t.Errorf("query finished in %v; the partition should have stalled it ~600ms", res.Elapsed)
	}
	want := skyline.Constrained(data, p0.Pos(), core.Unconstrained())
	if !skyline.SetEqual(res.Skyline, want) {
		t.Errorf("skyline after heal: got %d tuples, want %d", len(res.Skyline), len(want))
	}
}

// A fully lossy link silently eats every frame: the sender's writes succeed
// (as they would into a dead radio) and the query times out incomplete.
func TestProxyLossyLinkDropsFrames(t *testing.T) {
	defer leaktest.Check(t)()
	plan := &faults.Plan{LinkLoss: []faults.LinkLoss{{
		Window: faults.Window{Start: 0, End: 100},
		From:   0, To: 1, Bidirectional: true, Prob: 1,
	}}}
	cfg := tcp.DefaultConfig()
	cfg.QueryTimeout = 300 * time.Millisecond
	p0, _, _, done := twoPeers(t, plan, Options{}, cfg)
	defer done()

	res, err := p0.Query(core.Unconstrained(), 2)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Complete || res.Results != 0 {
		t.Errorf("query over a 100%% lossy link: complete=%v results=%d, want an empty timeout",
			res.Complete, res.Results)
	}
}

// ResetProb=1 tears the connection down after every forwarded frame. No
// frame is lost, so every query must still complete — riding entirely on
// the pool's write-retry and reconnect machinery.
func TestProxyResetChurnStillCompletes(t *testing.T) {
	defer leaktest.Check(t)()
	reg := telemetry.NewRegistry()
	cfg := tcp.DefaultConfig()
	cfg.Registry = reg
	plan := &faults.Plan{}
	p0, _, data, done := twoPeers(t, plan, Options{Extras: Extras{ResetProb: 1}}, cfg)
	defer done()

	for i := 0; i < 3; i++ {
		res, err := p0.Query(core.Unconstrained(), 2)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !res.Complete {
			t.Fatalf("query %d incomplete under reset churn: %d results", i, res.Results)
		}
		want := skyline.Constrained(data, p0.Pos(), core.Unconstrained())
		if !skyline.SetEqual(res.Skyline, want) {
			t.Errorf("query %d skyline mismatch", i)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["tcp_send_retries_total"] == 0 {
		t.Errorf("reset churn should have forced write retries, counter is 0")
	}
	if snap.Counters["tcp_dead_letters_total"] != 0 {
		t.Errorf("reset churn dead-lettered %d frames; resets lose no data",
			snap.Counters["tcp_dead_letters_total"])
	}
}

// Trickled delivery (a few bytes at a time) must not confuse the framed
// reader or trip deadlines on healthy-but-slow links.
func TestProxyTrickleDelivery(t *testing.T) {
	defer leaktest.Check(t)()
	opts := Options{Extras: Extras{TrickleChunk: 7, TrickleDelay: 100 * time.Microsecond}}
	p0, _, data, done := twoPeers(t, &faults.Plan{}, opts, tcp.DefaultConfig())
	defer done()

	res, err := p0.Query(core.Unconstrained(), 2)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !res.Complete {
		t.Fatalf("trickled query incomplete: %d results", res.Results)
	}
	want := skyline.Constrained(data, p0.Pos(), core.Unconstrained())
	if !skyline.SetEqual(res.Skyline, want) {
		t.Errorf("trickled skyline: got %d tuples, want %d", len(res.Skyline), len(want))
	}
}

// soakPeerConfig is the transport tuning the live soaks run under: leases
// short enough that a crashed peer decays out of the flood within the run,
// and a query timeout long enough to span the partition heal.
func soakPeerConfig(reg *telemetry.Registry) tcp.Config {
	return tcp.Config{
		QueryTimeout: 2200 * time.Millisecond,
		Quorum:       1.0,
		DialTimeout:  time.Second,
		LeaseTTL:     250 * time.Millisecond,
		Registry:     reg,
	}
}

// completeCount counts the soak's queries that reached their quorum before
// timing out.
func completeCount(res *SoakResult) int {
	n := 0
	for _, q := range res.Queries {
		if q.Complete {
			n++
		}
	}
	return n
}

// The golden-replay plan against live sockets: two permanent crashes and a
// middle-third partition over a 9-peer grid. Queries issued into the
// partition must complete after the heal, crashed peers must decay out of
// the quorum, and mean recall against the liveness-aware oracle must hold
// the same ≥0.9 floor the simulator's recall gate enforces.
func TestSoakCrashPartition(t *testing.T) {
	defer leaktest.Check(t)()
	plan, err := faults.Named("crash+partition", 9, 3.0)
	if err != nil {
		t.Fatalf("Named: %v", err)
	}
	res, err := Soak(SoakConfig{
		Grid: 3, Tuples: 1800, Seed: 1,
		Plan: plan, Horizon: 3.0, Wall: 3 * time.Second,
		QueryEvery: 150 * time.Millisecond,
		Peer:       soakPeerConfig(nil),
	})
	if err != nil {
		t.Fatalf("Soak: %v", err)
	}
	if len(res.Queries) < 10 {
		t.Fatalf("only %d queries issued", len(res.Queries))
	}
	for _, q := range res.Queries {
		if q.Err != nil {
			t.Errorf("query from %d at %v failed: %v", q.Org, q.Issued, q.Err)
		}
	}
	mean := res.MeanRecall()
	completed := completeCount(res)
	t.Logf("crash+partition soak: %d queries, %d complete, mean recall %.3f",
		len(res.Queries), completed, mean)
	if mean < 0.9 {
		t.Errorf("mean recall %.3f under crash+partition, want >= 0.9", mean)
	}
	if completed < len(res.Queries)/2 {
		t.Errorf("only %d/%d queries completed", completed, len(res.Queries))
	}
}

// The same crash+partition plan with every query running the SF strategy:
// the sampling round, filter flood, and survivor collection must ride the
// same self-healing transport to the same recall floor. SFSampleWait is kept
// small so the filter flood still fits inside the query timeout after the
// partition heals.
func TestSoakSF(t *testing.T) {
	defer leaktest.Check(t)()
	plan, err := faults.Named("crash+partition", 9, 3.0)
	if err != nil {
		t.Fatalf("Named: %v", err)
	}
	cfg := soakPeerConfig(nil)
	cfg.SFSampleWait = 100 * time.Millisecond
	res, err := Soak(SoakConfig{
		Grid: 3, Tuples: 1800, Seed: 3,
		Plan: plan, Horizon: 3.0, Wall: 3 * time.Second,
		QueryEvery: 150 * time.Millisecond,
		Peer:       cfg,
		SF:         true,
	})
	if err != nil {
		t.Fatalf("Soak: %v", err)
	}
	if len(res.Queries) < 10 {
		t.Fatalf("only %d queries issued", len(res.Queries))
	}
	for _, q := range res.Queries {
		if q.Err != nil {
			t.Errorf("SF query from %d at %v failed: %v", q.Org, q.Issued, q.Err)
		}
	}
	mean := res.MeanRecall()
	completed := completeCount(res)
	t.Logf("SF crash+partition soak: %d queries, %d complete, mean recall %.3f",
		len(res.Queries), completed, mean)
	if mean < 0.9 {
		t.Errorf("SF mean recall %.3f under crash+partition, want >= 0.9", mean)
	}
	if completed < len(res.Queries)/2 {
		t.Errorf("only %d/%d SF queries completed", completed, len(res.Queries))
	}
}

// The chaos plan (10%% duplication, 10%% reordering up to 2s) against live
// sockets: duplicated result frames must not double-count the quorum (the
// shared registry's dedupe counter proves they arrived) and recall stays at
// the floor.
func TestSoakChaosDupReorder(t *testing.T) {
	defer leaktest.Check(t)()
	plan, err := faults.Named("chaos", 9, 2.0)
	if err != nil {
		t.Fatalf("Named: %v", err)
	}
	reg := telemetry.NewRegistry()
	res, err := Soak(SoakConfig{
		Grid: 3, Tuples: 1800, Seed: 2,
		Plan: plan, Horizon: 2.0, Wall: 2 * time.Second,
		QueryEvery: 150 * time.Millisecond,
		Peer:       soakPeerConfig(reg),
	})
	if err != nil {
		t.Fatalf("Soak: %v", err)
	}
	if len(res.Queries) < 8 {
		t.Fatalf("only %d queries issued", len(res.Queries))
	}
	mean := res.MeanRecall()
	completed := completeCount(res)
	snap := reg.Snapshot()
	t.Logf("chaos soak: %d queries, %d complete, mean recall %.3f, dup results ignored %d",
		len(res.Queries), completed, mean, snap.Counters["tcp_dup_results_total"])
	if mean < 0.9 {
		t.Errorf("mean recall %.3f under chaos, want >= 0.9", mean)
	}
	if completed < len(res.Queries)*2/3 {
		t.Errorf("only %d/%d queries completed under chaos", completed, len(res.Queries))
	}
}
