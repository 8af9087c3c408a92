package tcp

import (
	"io"
	"testing"
	"time"

	"manetskyline/internal/core"
	"manetskyline/internal/gen"
	"manetskyline/internal/telemetry"
	"manetskyline/internal/wire"
)

// TestTracingDisabledZeroAllocs pins the disabled tracing path at zero
// allocations: with Config.Spans and Config.Flight nil, every per-frame
// tracing hook is one branch, and a nil trace context keeps frame writes on
// the v1 format with no extra work. The CI allocation-gate step runs this
// by name.
func TestTracingDisabledZeroAllocs(t *testing.T) {
	p := &Peer{cfg: Config{}} // tracing and flight both disabled
	tc := &wire.TraceContext{Org: 1, Cnt: 2, Hop: 3, Parent: 4}
	msg := []byte("payload")
	cases := []struct {
		name string
		op   func()
	}{
		{"traceCtx disabled", func() {
			if p.traceCtx(core.QueryKey{Org: 1, Cnt: 2}, 1) != nil {
				t.Fatal("traceCtx must be nil with Spans unset")
			}
		}},
		{"traceStage nil ctx", func() { p.traceStage(nil, telemetry.StageWrite, 2, 40) }},
		{"traceStage disabled", func() { p.traceStage(tc, telemetry.StageWrite, 2, 40) }},
		{"flightEvent disabled", func() { p.flightEvent("dead_letter", tc, "to %d", 2) }},
	}
	for _, c := range cases {
		if avg := testing.AllocsPerRun(1000, c.op); avg != 0 {
			t.Errorf("%s allocates %.1f times per op, want 0", c.name, avg)
		}
	}
	// A nil-context frame write must cost exactly what the legacy v1 write
	// cost — the one header-escape allocation Go charges for writing a
	// stack buffer through an io.Writer interface, and nothing more.
	legacy := testing.AllocsPerRun(1000, func() { _ = wire.WriteFrame(io.Discard, msg) })
	nilCtx := testing.AllocsPerRun(1000, func() { _ = wire.WriteFrameCtx(io.Discard, msg, nil) })
	if nilCtx > legacy {
		t.Errorf("WriteFrameCtx(nil) allocates %.1f/op vs legacy %.1f/op", nilCtx, legacy)
	}
}

// tracedPeers builds a 0—1—2 line of peers, each with its own span log and
// a shared flight recorder, the way a live deployment would run them.
func tracedPeers(t *testing.T, flight *telemetry.FlightRecorder) ([]*Peer, []*telemetry.SpanLog, func()) {
	t.Helper()
	c := gen.DefaultConfig(300, 2, gen.Independent, 11)
	data := gen.Generate(c)
	parts := gen.GridPartition(data, 3, c.Space) // 9 cells; we use 3
	dir := NewDirectory()
	peers := make([]*Peer, 3)
	logs := make([]*telemetry.SpanLog, 3)
	for i := 0; i < 3; i++ {
		cfg := DefaultConfig()
		logs[i] = telemetry.NewSpanLog()
		cfg.Spans = logs[i]
		cfg.Flight = flight
		pos := gen.CellRect(i, i, 3, c.Space).Center()
		p, err := NewPeer(core.DeviceID(i), parts[i*3+i], c.Schema(), core.Under, true, pos, dir, cfg)
		if err != nil {
			t.Fatalf("NewPeer %d: %v", i, err)
		}
		peers[i] = p
	}
	peers[0].AddNeighbor(1)
	peers[1].AddNeighbor(0)
	peers[1].AddNeighbor(2)
	peers[2].AddNeighbor(1)
	return peers, logs, func() {
		for _, p := range peers {
			p.Close()
		}
	}
}

// stageCount tallies stages of one kind across a span.
func stageCount(sp *telemetry.Span, kind string) int {
	n := 0
	for _, st := range sp.Stages {
		if st.Kind == kind {
			n++
		}
	}
	return n
}

func findStage(sp *telemetry.Span, kind string) (telemetry.Stage, bool) {
	for _, st := range sp.Stages {
		if st.Kind == kind {
			return st, true
		}
	}
	return telemetry.Stage{}, false
}

// TestPerHopSpansEndToEnd drives one query across two real TCP hops and
// checks every peer recorded its half of each hop with consistent keys, hop
// numbers, parents, and byte counts — the raw material internal/trace
// merges into a causal timeline.
func TestPerHopSpansEndToEnd(t *testing.T) {
	peers, logs, cleanup := tracedPeers(t, nil)
	defer cleanup()
	res, err := peers[0].Query(core.Unconstrained(), 3)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !res.Complete {
		t.Fatalf("query incomplete: %d results", res.Results)
	}

	// Originator: issue, enqueue+write of the query, two results, complete.
	osp := logs[0].Spans()
	if len(osp) != 1 {
		t.Fatalf("originator spans = %d, want 1", len(osp))
	}
	sp0 := osp[0]
	if sp0.Org != 0 || !sp0.Done {
		t.Fatalf("originator span = %+v", sp0)
	}
	if n := stageCount(sp0, telemetry.StageWrite); n < 1 {
		t.Errorf("originator write stages = %d, want ≥ 1", n)
	}
	if n := stageCount(sp0, telemetry.StageResult); n != 2 {
		t.Errorf("originator result stages = %d, want 2", n)
	}
	wst, ok := findStage(sp0, telemetry.StageWrite)
	if !ok || wst.Bytes <= wire.TraceContextSize {
		t.Errorf("originator write stage lacks wire bytes: %+v", wst)
	}
	if wst.Hops != 1 || wst.Peer != 1 {
		t.Errorf("originator write = %+v, want hop 1 to peer 1", wst)
	}

	// Relay (peer 1): auto-opened span with decode(hop 1, parent 0),
	// handle, reply, and a hop-2 forward write to peer 2.
	rsp := logs[1].Spans()
	if len(rsp) != 1 {
		t.Fatalf("relay spans = %d, want 1", len(rsp))
	}
	sp1 := rsp[0]
	if sp1.Org != 0 || sp1.Cnt != sp0.Cnt {
		t.Fatalf("relay span keyed %d/%d, want originator key %d/%d", sp1.Org, sp1.Cnt, sp0.Org, sp0.Cnt)
	}
	dst, ok := findStage(sp1, telemetry.StageDecode)
	if !ok || dst.Hops != 1 || dst.Peer != 0 {
		t.Errorf("relay decode = %+v (ok=%v), want hop 1 from peer 0", dst, ok)
	}
	if _, ok := findStage(sp1, telemetry.StageHandle); !ok {
		t.Error("relay recorded no handle stage")
	}
	if _, ok := findStage(sp1, telemetry.StageReply); !ok {
		t.Error("relay recorded no reply stage")
	}
	fwd := telemetry.Stage{}
	for _, st := range sp1.Stages {
		if st.Kind == telemetry.StageWrite && st.Peer == 2 {
			fwd = st
		}
	}
	if fwd.Hops != 2 {
		t.Errorf("relay forward to peer 2 = %+v, want hop 2", fwd)
	}

	// Far peer (peer 2): decode at hop 2 with parent 1.
	fsp := logs[2].Spans()
	if len(fsp) != 1 {
		t.Fatalf("far spans = %d, want 1", len(fsp))
	}
	dst2, ok := findStage(fsp[0], telemetry.StageDecode)
	if !ok || dst2.Hops != 2 || dst2.Peer != 1 {
		t.Errorf("far decode = %+v (ok=%v), want hop 2 from peer 1", dst2, ok)
	}

	// Causality within the shared clock: the relay decoded after the
	// originator wrote.
	if dst.T < wst.T {
		t.Errorf("relay decode at %.6f before originator write at %.6f", dst.T, wst.T)
	}
}

// TestTracedBytesLedger checks the byte counters account the 10-byte trace
// context: what one peer counts out, its neighbour counts in.
func TestTracedBytesLedger(t *testing.T) {
	c := gen.DefaultConfig(200, 2, gen.Independent, 13)
	data := gen.Generate(c)
	parts := gen.GridPartition(data, 2, c.Space)
	dir := NewDirectory()
	regs := make([]*telemetry.Registry, 2)
	peers := make([]*Peer, 2)
	for i := 0; i < 2; i++ {
		cfg := DefaultConfig()
		regs[i] = telemetry.NewRegistry()
		cfg.Registry = regs[i]
		cfg.Spans = telemetry.NewSpanLog()
		p, err := NewPeer(core.DeviceID(i), parts[i], c.Schema(), core.Under, true,
			gen.CellRect(i, i, 2, c.Space).Center(), dir, cfg)
		if err != nil {
			t.Fatalf("NewPeer: %v", err)
		}
		peers[i] = p
	}
	defer peers[1].Close()
	defer peers[0].Close()
	peers[0].AddNeighbor(1)
	peers[1].AddNeighbor(0)
	if _, err := peers[0].Query(core.Unconstrained(), 2); err != nil {
		t.Fatal(err)
	}
	// A frame is counted sent after its write returns, and the receiver may
	// count it first: poll until every byte counter stops changing.
	ledger := func() [4]int64 {
		l0, l1 := regs[0].Bytes().Layers["tcp"], regs[1].Bytes().Layers["tcp"]
		return [4]int64{l0.Sent, l0.Received, l1.Sent, l1.Received}
	}
	last := ledger()
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		now := ledger()
		if now == last && now[0] > 0 && now[1] > 0 && now[2] > 0 && now[3] > 0 {
			break
		}
		last = now
	}
	out0, in1 := last[0], last[3]
	if out0 == 0 || in1 == 0 {
		t.Fatalf("byte ledger empty: out0=%d in1=%d", out0, in1)
	}
	if out0 != in1 {
		t.Errorf("peer 0 sent %d bytes but peer 1 received %d", out0, in1)
	}
	// Traced frames carry the context: the wire total must exceed payload
	// + 4-byte headers by exactly TraceContextSize per message.
	msgs := int64(0)
	for k, v := range regs[0].Snapshot().Counters {
		if k == "tcp_messages_out_total" {
			msgs = v
		}
	}
	if msgs == 0 {
		t.Fatal("no messages counted")
	}
	// Each traced frame's accounted size includes the 10-byte context; the
	// cheapest check without re-decoding is that bytes/message exceeds the
	// legacy minimum frame overhead.
	if out0 < msgs*(4+wire.TraceContextSize) {
		t.Errorf("accounted bytes %d too small for %d traced frames", out0, msgs)
	}
}

// TestLinkStatsAndGauges checks the conn pool's internal state surfaces
// both through Peer.LinkStats and as labelled registry gauges.
func TestLinkStatsAndGauges(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := DefaultConfig()
	cfg.Registry = reg
	peers, _, cleanup := buildPeers(t, cfg, 500, 2, 2, 21)
	defer cleanup()
	if _, err := peers[0].Query(core.Unconstrained(), len(peers)); err != nil {
		t.Fatal(err)
	}
	stats := peers[0].LinkStats()
	if len(stats) == 0 {
		t.Fatal("originator has no managed links after a query")
	}
	for i := 1; i < len(stats); i++ {
		if stats[i].To <= stats[i-1].To {
			t.Errorf("LinkStats not sorted: %v", stats)
		}
	}
	snap := reg.Snapshot()
	foundDepth := false
	for k := range snap.Gauges {
		if len(k) >= len("tcp_send_queue_depth") && k[:len("tcp_send_queue_depth")] == "tcp_send_queue_depth" {
			foundDepth = true
		}
	}
	if !foundDepth {
		t.Errorf("no tcp_send_queue_depth gauge registered: %v", snap.Gauges)
	}
}

// TestDirLeaseGauges checks the directory server's lease-state gauges track
// live → suspect decay through the exposition hook.
func TestDirLeaseGauges(t *testing.T) {
	srv, err := NewDirectoryServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := telemetry.NewRegistry()
	srv.SetRegistry(reg)
	srv.Directory().RegisterLease(1, "127.0.0.1:1111", 300*time.Millisecond)
	srv.Directory().Register(2, "127.0.0.1:2222") // permanent ⇒ always live
	snap := reg.Snapshot()
	if got := snap.Gauges[`tcp_dir_leases{state="live"}`]; got != 2 {
		t.Errorf("live leases = %d, want 2", got)
	}
	time.Sleep(400 * time.Millisecond) // lease lapses into suspect (grace = one TTL)
	snap = reg.Snapshot()
	if got := snap.Gauges[`tcp_dir_leases{state="suspect"}`]; got != 1 {
		t.Errorf("suspect leases = %d, want 1 (snapshot %v)", got, snap.Gauges)
	}
	if got := snap.Gauges[`tcp_dir_leases{state="live"}`]; got != 1 {
		t.Errorf("live leases after decay = %d, want 1", got)
	}
}

// TestUntracedPeersInteroperate runs a traced originator against an
// untraced relay: the traced peer's frames carry contexts the untraced
// build ignores... except the untraced build here is the same binary with
// Spans nil, so what this actually pins is config-level mixing: a fleet
// where only some peers trace still completes queries.
func TestUntracedPeersInteroperate(t *testing.T) {
	c := gen.DefaultConfig(200, 2, gen.Independent, 17)
	data := gen.Generate(c)
	parts := gen.GridPartition(data, 2, c.Space)
	dir := NewDirectory()
	tracedCfg := DefaultConfig()
	tracedCfg.Spans = telemetry.NewSpanLog()
	p0, err := NewPeer(0, parts[0], c.Schema(), core.Under, true,
		gen.CellRect(0, 0, 2, c.Space).Center(), dir, tracedCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p0.Close()
	p1, err := NewPeer(1, parts[1], c.Schema(), core.Under, true,
		gen.CellRect(1, 1, 2, c.Space).Center(), dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()
	p0.AddNeighbor(1)
	p1.AddNeighbor(0)
	res, err := p0.Query(core.Unconstrained(), 2)
	if err != nil || !res.Complete {
		t.Fatalf("mixed-fleet query failed: %v complete=%v", err, res.Complete)
	}
	// The untraced relay replied with a v1 frame; the traced originator
	// still recorded its own stages and completed its span.
	sp := tracedCfg.Spans.Spans()
	if len(sp) != 1 || !sp[0].Done {
		t.Fatalf("traced originator span = %+v", sp)
	}
}
