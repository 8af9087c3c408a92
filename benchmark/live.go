package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"manetskyline/internal/core"
	"manetskyline/internal/gen"
	"manetskyline/internal/skyline"
	"manetskyline/internal/tcp"
	"manetskyline/internal/telemetry"
	"manetskyline/internal/trace"
	"manetskyline/internal/tuple"
)

// errStorm is what the live driver reports when the fleet stops answering
// or draining. Peers remember only the last query counter per originator
// (ROADMAP item 0), so a late flood copy of query k that meets query k+1 of
// the same originator is processed and re-flooded again, k+1 after it, and
// the two chase each other for ever. A storm must surface as a failed
// benchmark, not as a slow one.
var errStorm = errors.New("the fleet is re-flooding stale queries (ROADMAP item 0: the per-originator query log keeps one counter)")

// fleet is a g×g grid of tcp.Peers on loopback driven by one closed-loop
// client: one query in flight fleet-wide, and the next one issued only when
// every frame the previous one caused has been received. A peer replies
// before it forwards, so a query can complete while copies of it are still
// being enqueued; sizing runs without the drain melted into a storm about
// once per 30 000 queries.
type fleet struct {
	peers []*tcp.Peer
	spans *telemetry.SpanLog // nil unless the fleet is traced
	reg   *telemetry.Registry
	// in and out count frames received and written fleet-wide.
	in, out *telemetry.Counter
	// frames[org] is how many frames one query from org puts on the wire;
	// it is a property of the topology and the protocol, learned by learn.
	frames []int64

	busy    atomic.Bool
	seq     int
	lastUse []int // seq of each originator's latest query
}

// startFleet builds the peers over the partitions and links 4-neighbours.
// Every peer shares one metrics registry: its frame counters are the only
// public signal that the fleet has drained, and a deployed skypeer runs
// with them on. Spans are the tracing this benchmark turns on and off.
func startFleet(parts [][]tuple.Tuple, c gen.Config, g int, traced bool) (*fleet, error) {
	f := &fleet{reg: telemetry.NewRegistry(), lastUse: make([]int, len(parts))}
	cfg := tcp.DefaultConfig()
	cfg.Registry = f.reg
	if traced {
		f.spans = telemetry.NewSpanLog()
		cfg.Spans = f.spans
	}
	dir := tcp.NewDirectory()
	for i, part := range parts {
		pos := gen.CellRect(i/g, i%g, g, c.Space).Center()
		p, err := tcp.NewPeer(core.DeviceID(i), part, c.Schema(), core.Under, true, pos, dir, cfg)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("start peer %d: %w", i, err)
		}
		f.peers = append(f.peers, p)
	}
	for r := 0; r < g; r++ {
		for col := 0; col < g; col++ {
			i := r*g + col
			if col < g-1 {
				f.peers[i].AddNeighbor(f.peers[i+1].ID())
				f.peers[i+1].AddNeighbor(f.peers[i].ID())
			}
			if r < g-1 {
				f.peers[i].AddNeighbor(f.peers[i+g].ID())
				f.peers[i+g].AddNeighbor(f.peers[i].ID())
			}
		}
	}
	f.in = f.reg.Counter("tcp_messages_in_total", "")
	f.out = f.reg.Counter("tcp_messages_out_total", "")
	for i := range f.lastUse {
		f.lastUse[i] = -len(parts)
	}
	return f, nil
}

func (f *fleet) close() {
	for _, p := range f.peers {
		p.Close()
	}
}

// counter reads one of the fleet's tcp_* counters.
func (f *fleet) counter(name string) float64 {
	return float64(f.reg.Counter(name, "").Value())
}

// learn measures how many frames one query from each originator causes, by
// issuing queries one at a time and waiting until the frame counters have
// stood still for 10 ms. Three rounds must agree.
func (f *fleet) learn() error {
	f.frames = make([]int64, len(f.peers))
	for round := 0; round < 3; round++ {
		for org := range f.peers {
			in0 := f.in.Value()
			res, err := f.issue(org)
			if err != nil || !res.Complete {
				return fmt.Errorf("warm-up query from peer %d: complete=%v err=%v", org, res.Complete, err)
			}
			deadline := time.Now().Add(2 * time.Second)
			for still := 0; still < 10; {
				before := f.in.Value()
				time.Sleep(time.Millisecond)
				if f.in.Value() == before && before == f.out.Value() {
					still++
				} else {
					still = 0
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("peer %d: %w", org, errStorm)
				}
			}
			n := f.in.Value() - in0
			if round > 0 && n != f.frames[org] {
				return fmt.Errorf("a query from peer %d caused %d frames, then %d: the flood is not deterministic", org, f.frames[org], n)
			}
			f.frames[org] = n
		}
	}
	return nil
}

// issue runs one query from org under the driver guard: one query in flight
// fleet-wide, and every other originator in between two queries of one peer.
func (f *fleet) issue(org int) (tcp.QueryResult, error) {
	if !f.busy.CompareAndSwap(false, true) {
		panic("live driver: a second query in flight")
	}
	defer f.busy.Store(false)
	if gap := f.seq - f.lastUse[org]; gap < len(f.peers) {
		panic(fmt.Sprintf("live driver: peer %d queried again after %d other queries, fewer than %d", org, gap-1, len(f.peers)-1))
	}
	f.lastUse[org] = f.seq
	f.seq++
	return f.peers[org].Query(core.Unconstrained(), len(f.peers))
}

// query runs one query from org and then waits until the fleet has received
// every frame that query causes. It returns the query's own latency.
func (f *fleet) query(org int) (tcp.QueryResult, time.Duration, error) {
	target := f.in.Value() + f.frames[org]
	t0 := time.Now()
	res, err := f.issue(org)
	lat := time.Since(t0)
	if derr := f.drain(target, t0); derr != nil {
		return res, lat, derr
	}
	return res, lat, err
}

// drain waits until the fleet has received target frames in all; since
// bounds the wait. The last copies usually land within microseconds of the
// query's completion, so the driver first yields the processor a hundred
// times and only then sleeps between looks. Sizing runs on two cores: a
// driver that only sleeps pays a timer wake-up per query (1 000-1 150
// cycles/s, p50 flipping between 0.34 and 0.48 ms from run to run); one
// that only yields takes a processor from the peers (1 270-1 470 cycles/s,
// a fifth more CPU per query); this one ran 2 300-2 420 cycles/s with p50
// within 2 %.
func (f *fleet) drain(target int64, since time.Time) error {
	for spin := 0; f.in.Value() < target; spin++ {
		if spin < 100 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
		if spin%1024 == 1023 && time.Since(since) > 5*time.Second {
			return errStorm
		}
	}
	return nil
}

// liveRunner is live_rr_9: one operation is one live query; a block is one
// unit of perOrg queries from every originator in turn.
type liveRunner struct {
	seed      int64
	g         int
	n         int
	perOrg    int // queries per originator in one block
	warmup    int // checked warm-up queries per originator
	tracedMax int // queries per originator one traced fleet may serve
	rec       *spanRecorder

	cfg   gen.Config
	parts [][]tuple.Tuple
	truth []tuple.Tuple
	fl    *fleet
}

func newLiveRunner(seed int64, smoke bool, rec *spanRecorder) runner {
	// A traced fleet serves 250 timed queries per originator: span keys are
	// (originator, one-byte counter), so a longer run would fold distinct
	// queries into one span.
	r := &liveRunner{seed: seed, g: 3, n: 9000, perOrg: 700, warmup: 250, tracedMax: 250, rec: rec}
	if smoke {
		r.n, r.perOrg, r.warmup, r.tracedMax = 900, 20, 5, 10
	}
	return r
}

func (r *liveRunner) setup() error {
	r.close()
	sp := r.rec.begin("gen.Generate", 0, "")
	r.cfg = gen.DefaultConfig(r.n, 2, gen.Independent, r.seed)
	data := gen.Generate(r.cfg)
	r.parts = gen.GridPartition(data, r.g, r.cfg.Space)
	r.rec.end(sp)
	sp = r.rec.begin("oracle.SFS", 0, "")
	r.truth = skyline.SFS(data)
	r.rec.end(sp)

	sp = r.rec.begin("tcp.NewPeer*", 0, "")
	fl, err := startFleet(r.parts, r.cfg, r.g, false)
	r.rec.end(sp)
	if err != nil {
		return err
	}
	r.fl = fl
	sp = r.rec.begin("setup.learn_frames", 0, "")
	err = fl.learn()
	r.rec.end(sp)
	if err != nil {
		return err
	}
	sp = r.rec.begin("setup.warmup", 0, "")
	defer r.rec.end(sp)
	var res blockResult
	if err := r.drive(fl, r.warmup, &res); err != nil {
		return err
	}
	if res.failed > 0 {
		return fmt.Errorf("live_rr_9: %d of %d warm-up queries failed or differ from the centralized skyline", res.failed, res.ops())
	}
	return nil
}

// drive issues perOrg queries from every originator round-robin as one
// unit of res, and checks each result against the centralized skyline
// afterwards. The unit times the queries and the drains between them.
func (r *liveRunner) drive(fl *fleet, perOrg int, res *blockResult) error {
	n := perOrg * len(fl.peers)
	var err error
	lat := make([]float64, 0, n)
	results := make([]tcp.QueryResult, 0, n)
	failed := 0
	u := res.timeUnit(n, func() {
		for i := 0; i < n; i++ {
			qr, d, qerr := fl.query(i % len(fl.peers))
			if errors.Is(qerr, errStorm) {
				err = qerr
				return
			}
			lat = append(lat, d.Seconds()*1e3)
			if qerr != nil {
				failed++
				continue
			}
			results = append(results, qr)
		}
	})
	u.latMs = lat
	if err != nil {
		return fmt.Errorf("live_rr_9: after %d queries: %w", len(lat), err)
	}
	for _, qr := range results {
		if !qr.Complete || !skyline.SetEqual(qr.Skyline, r.truth) {
			failed++
		}
	}
	res.failed += failed
	if failed*100 > n {
		return fmt.Errorf("live_rr_9: %d of %d queries failed: %w", failed, n, errStorm)
	}
	return nil
}

func (r *liveRunner) block(traced bool) (blockResult, error) {
	bsp := r.rec.begin("block", 0, "")
	defer r.rec.end(bsp)
	res := blockResult{counts: map[string]float64{}}
	if !traced {
		before := r.fl.counter("tcp_bytes_out_total")
		if err := r.drive(r.fl, r.perOrg, &res); err != nil {
			return res, err
		}
		res.airBytes = r.fl.counter("tcp_bytes_out_total") - before
		return res, nil
	}
	// A traced block is the same queries served by fresh traced fleets.
	for done := 0; done < r.perOrg; done += r.tracedMax {
		fl, err := startFleet(r.parts, r.cfg, r.g, true)
		if err != nil {
			return res, err
		}
		fl.frames = r.fl.frames
		// One untimed round opens the fleet's connections, as the untraced
		// fleet's warm-up did.
		for org := 0; org < len(fl.peers) && err == nil; org++ {
			_, _, err = fl.query(org)
		}
		if err == nil {
			err = r.drive(fl, min(r.tracedMax, r.perOrg-done), &res)
		}
		if err == nil {
			r.countTraced(res.counts, fl)
		}
		fl.close()
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// countTraced folds one traced fleet's counters and merged spans into the
// block's counts.
func (r *liveRunner) countTraced(c map[string]float64, fl *fleet) {
	c["queries"] += fl.counter("tcp_queries_issued_total")
	c["tcp.frames"] += fl.counter("tcp_messages_out_total")
	c["tcp.bytes"] += fl.counter("tcp_bytes_out_total")
	c["tcp.dup_results"] += fl.counter("tcp_dup_results_total")
	c["tcp.send_retries"] += fl.counter("tcp_send_retries_total")
	c["tcp.dead_letters"] += fl.counter("tcp_dead_letters_total")
	c["tcp.dials"] += fl.counter("tcp_dials_total")
	for _, tl := range trace.Merge(fl.spans.Spans()) {
		for _, st := range tl.Stages {
			switch st.Kind {
			case telemetry.StageEnqueue, telemetry.StageWrite, telemetry.StageDecode,
				telemetry.StageHandle, telemetry.StageReply:
				c["tcp.stage_us."+st.Kind] += (st.T - tl.Start) * 1e6
				c["tcp.stage_n."+st.Kind]++
			}
		}
	}
}

func (r *liveRunner) layers(plain, traced []blockResult, out map[string]float64) {
	c := sumCounts(traced)
	q := c["queries"]
	out["tcp.trace_overhead_share"] = traceOverhead(plain, traced)
	out["tcp.frames_per_query"] = c["tcp.frames"] / q
	out["tcp.bytes_per_query"] = c["tcp.bytes"] / q
	out["tcp.dup_results_per_query"] = c["tcp.dup_results"] / q
	out["tcp.send_retries"] = c["tcp.send_retries"]
	out["tcp.dead_letters"] = c["tcp.dead_letters"]
	out["tcp.dials"] = c["tcp.dials"]
	// Each stage time is the mean offset from the query's start at which
	// peers recorded that stage: when frames were queued, written, decoded,
	// handled and replied to, over every hop of every traced query.
	for _, kind := range []string{telemetry.StageEnqueue, telemetry.StageWrite,
		telemetry.StageDecode, telemetry.StageHandle, telemetry.StageReply} {
		out["tcp."+kind+"_us"] = ratio(c["tcp.stage_us."+kind], c["tcp.stage_n."+kind])
	}
}

func (r *liveRunner) close() {
	if r.fl != nil {
		r.fl.close()
		r.fl = nil
	}
}
