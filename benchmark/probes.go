package main

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"runtime"
	"time"

	"manetskyline/internal/aodv"
	"manetskyline/internal/core"
	"manetskyline/internal/gateway"
	"manetskyline/internal/gen"
	"manetskyline/internal/localsky"
	"manetskyline/internal/manet"
	"manetskyline/internal/mobility"
	"manetskyline/internal/radio"
	"manetskyline/internal/sim"
	"manetskyline/internal/storage"
	"manetskyline/internal/tuple"
	"manetskyline/internal/wire"
)

// Layer probes time one public function of one layer in a fixed-count loop,
// for the layers manet.Run and tcp.Peer hide from driver spans. Their inputs
// are made from the seed and shaped like the workloads' own: the 2 000-tuple
// anti-correlated relations of local_ac_25, the 100-node waypoint medium of
// sim_*_100, the 30 000-node field of sim_bf_30k, the 8- and 512-tuple
// result messages of the live and static tiers.

// perCall is the median over three repetitions of the time one call of f
// takes in a loop of n, in nanoseconds.
func perCall(n int, f func(i int)) float64 {
	reps := make([]float64, 3)
	for r := range reps {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		reps[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(reps)
}

// allocsPerCall is the number of heap allocations one call of f makes.
func allocsPerCall(n int, f func(i int)) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// sized stands in for any radio payload of a given wire size.
type sized int

func (s sized) SizeBytes() int { return int(s) }

// runProbes fills out with every probe metric; the smoke test runs a
// fiftieth of each loop.
func runProbes(seed int64, smoke bool, rec *spanRecorder, out map[string]float64) error {
	scale := func(n int) int {
		if smoke {
			return max(n/50, 2)
		}
		return n
	}
	span := func(name string, f func() error) error {
		sp := rec.begin("probe."+name, 0, "")
		defer rec.end(sp)
		return f()
	}
	steps := []struct {
		name string
		f    func() error
	}{
		{"local", func() error { return probeLocal(seed, smoke, scale, out) }},
		{"sim", func() error { probeSim(seed, scale, out); return nil }},
		{"radio_mobility", func() error { probeRadio(seed, smoke, scale, out); return nil }},
		{"aodv", func() error { return probeAodv(seed, scale, out) }},
		{"manet_sf", func() error { return probeSF(seed, smoke, out) }},
		{"wire", func() error { return probeWire(seed, scale, out) }},
		{"tcp_gateway", func() error { return probeGateway(seed, scale, out) }},
	}
	for _, s := range steps {
		if err := span(s.name, s.f); err != nil {
			return fmt.Errorf("probe %s: %w", s.name, err)
		}
	}
	return nil
}

// probeLocal covers gen, storage, localsky and core on local_ac_25's inputs.
func probeLocal(seed int64, smoke bool, scale func(int) int, out map[string]float64) error {
	n, g := 50000, 5
	if smoke {
		n, g = 1800, 3
	}
	cfg := gen.DefaultConfig(n, 3, gen.AntiCorrelated, seed)
	var data []tuple.Tuple
	out["gen.generate_ms"] = perCall(1, func(int) { data = gen.Generate(cfg) }) / 1e6
	parts := gen.GridPartition(data, g, cfg.Space)

	rels := make([]*storage.Hybrid, len(parts))
	out["storage.new_hybrid_us"] = perCall(len(parts), func(i int) { rels[i] = storage.NewHybrid(parts[i]) }) / 1e3
	memBytes := 0
	for _, h := range rels {
		memBytes += h.MemBytes()
	}
	out["storage.mem_bytes_per_tuple"] = float64(memBytes) / float64(n)
	rel := rels[len(rels)/2]
	centre := rel.MBR().Center()
	out["storage.range_candidates_ns"] = perCall(scale(2000), func(int) { rel.RangeCandidates(centre, 50) })

	sc := localsky.GetScratch()
	defer localsky.PutScratch(sc)
	q := localsky.Query{D: math.Inf(1)}
	var res localsky.Result
	evaluate := func(int) { res = localsky.HybridSkylineScratch(rel, q, nil, nil, sc) }
	ns := perCall(scale(50), evaluate)
	cmp := float64(res.Stats.IDCmp + res.Stats.ValCmp)
	out["localsky.hybrid_scratch_us"] = ns / 1e3
	out["localsky.comparisons_per_call"] = cmp
	out["localsky.ns_per_comparison"] = ns / cmp
	out["localsky.allocs_per_call"] = allocsPerCall(scale(50), evaluate)

	// core: the traced static driver's spans over three originators (a
	// corner, the centre, the far corner).
	devs := make([]*core.Device, len(parts))
	for i, p := range parts {
		devs[i] = core.NewDevice(core.DeviceID(i), p, cfg.Schema(), core.Under, true)
	}
	rec := newSpanRecorder()
	for _, org := range []int{0, len(devs) / 2, len(devs) - 1} {
		var traced, plain core.StaticOutcome
		call(func() { traced = tracedStatic(devs, g, org, rec, 0) })
		for _, d := range devs {
			d.Log.Reset()
		}
		call(func() { plain = core.RunStatic(devs, g, core.DeviceID(org)) })
		if err := sameStaticOutcome(plain, traced); err != nil {
			return fmt.Errorf("traced static driver differs from core.RunStatic at originator %d: %w", org, err)
		}
	}
	out["core.originate_us"] = rec.meanUs("core.Originate")
	out["core.process_us"] = rec.meanUs("core.Process")
	out["core.merge_us"] = rec.meanUs("core.Merge")
	dev := devs[len(devs)/2]
	sky := localsky.CloneTuples(res.Skyline)
	vdr := dev.VDRFunc()
	out["core.select_filter_ns"] = perCall(scale(2000), func(int) { core.SelectFilter(sky, vdr) })
	return nil
}

// probeSim times the bare event loop: one AtKind and one Step with a no-op
// handler, against a queue holding 10 000 pending events.
func probeSim(seed int64, scale func(int) int, out map[string]float64) {
	eng := sim.NewEngine(seed)
	kind := eng.RegisterKind(func(uint32, uint64) {})
	for i := 0; i < 10000; i++ {
		eng.AtKind(eng.RNG().Float64()*100, kind, 0, 0)
	}
	cycle := func(i int) {
		eng.ScheduleKind(float64(i%97)+1, kind, 0, 0)
		eng.Step()
	}
	out["sim.ns_per_event_bare"] = perCall(scale(500000), cycle)
	out["sim.allocs_per_event"] = allocsPerCall(scale(100000), cycle)
}

// probeRadio covers radio and mobility on the two media the sim workloads
// use: 100 waypoint nodes in the paper's 1 km field, and 30 000 compact
// field nodes at the scale harness's density.
func probeRadio(seed int64, smoke bool, scale func(int) int, out map[string]float64) {
	mcfg := mobility.DefaultConfig()
	// 100 nodes, as manet.DefaultParams places them.
	eng := sim.NewEngine(seed)
	rcfg := radio.DefaultConfig()
	rcfg.MaxSpeed = mcfg.SpeedMax
	med := radio.New(eng, rcfg)
	way := make([]*mobility.Waypoint, 100)
	for i := range way {
		way[i] = mobility.NewWaypoint(mcfg, seed+int64(i))
		med.AddNode(way[i], func(radio.NodeID, radio.Payload) {})
	}
	buf := make([]radio.NodeID, 0, 128)
	out["radio.neighbors_into_ns_100"] = perCall(scale(200000), func(i int) {
		buf = med.NeighborsInto(radio.NodeID(i%100), buf)
	})
	// A transmission probe times the send call alone, a hundred at a time;
	// the deliveries they schedule run between the timed stretches.
	frame := sized(64)
	sendNs := func(send func(from radio.NodeID)) float64 {
		n := scale(20000)
		reps := make([]float64, 3)
		for r := range reps {
			var total time.Duration
			for done := 0; done < n; done += 100 {
				t0 := time.Now()
				for from := radio.NodeID(0); from < 100; from++ {
					send(from)
				}
				total += time.Since(t0)
				eng.RunAll()
			}
			reps[r] = float64(total.Nanoseconds()) / float64(n)
		}
		return median(reps)
	}
	out["radio.broadcast_ns"] = sendNs(func(from radio.NodeID) { med.Broadcast(from, frame) })
	nearest := make([]radio.NodeID, 100)
	for i := range nearest {
		nearest[i] = radio.NodeID((i + 1) % 100) // out of range: Unicast declines
		if nb := med.NeighborsInto(radio.NodeID(i), buf); len(nb) > 0 {
			nearest[i] = nb[0]
		}
	}
	out["radio.unicast_ns"] = sendNs(func(from radio.NodeID) { med.Unicast(from, nearest[from], frame) })
	out["mobility.waypoint_pos_ns"] = perCall(scale(500000), func(i int) {
		way[i%100].Pos(float64(i) * 0.01)
	})

	// 30 000 nodes, as bench.ScenarioLarge places them.
	nodes, cell := 30000, 125.0
	if smoke {
		nodes = 900
	}
	side := math.Ceil(math.Sqrt(float64(nodes)))
	mcfg.Space = cell * side
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	field := mobility.NewField(mcfg)
	for i := 0; i < nodes; i++ {
		field.AddRandom(seed + int64(i))
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	out["mobility.bytes_per_node"] = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(nodes)
	out["mobility.field_pos_ns"] = perCall(scale(500000), func(i int) {
		field.Pos(i%nodes, float64(i)*0.0001)
	})
	eng = sim.NewEngine(seed)
	rcfg.Range = 250
	med = radio.New(eng, rcfg)
	// The medium gets a field of its own: the loop above has walked the
	// first one forward in time, and field positions are forward-only.
	field = mobility.NewField(mcfg)
	for i := 0; i < nodes; i++ {
		med.AddNode(field.Model(field.AddRandom(seed+int64(i))), func(radio.NodeID, radio.Payload) {})
	}
	out["radio.neighbors_into_ns_30k"] = perCall(scale(200000), func(i int) {
		buf = med.NeighborsInto(radio.NodeID(i%nodes), buf)
	})
}

// probeAodv times one route discovery across a static 10×10 grid, corner to
// corner, run to quiescence, on a fresh network each time.
func probeAodv(seed int64, scale func(int) int, out map[string]float64) error {
	n := scale(60)
	nets := make([]*aodv.Network, n)
	engs := make([]*sim.Engine, n)
	delivered := 0
	for k := range nets {
		engs[k] = sim.NewEngine(seed + int64(k))
		rcfg := radio.DefaultConfig()
		rcfg.Range, rcfg.MaxSpeed = 150, -1
		nets[k] = aodv.New(engs[k], radio.New(engs[k], rcfg), aodv.DefaultConfig())
		for i := 0; i < 100; i++ {
			pos := mobility.Static(tuple.Point{X: float64(i%10) * 100, Y: float64(i/10) * 100})
			nets[k].AddNode(pos, func(radio.NodeID, int, radio.Payload) { delivered++ }, nil)
		}
	}
	t0 := time.Now()
	for k := range nets {
		nets[k].Send(0, 99, sized(64))
		engs[k].RunAll()
	}
	out["aodv.discovery_us"] = float64(time.Since(t0).Microseconds()) / float64(n)
	if delivered != n {
		return fmt.Errorf("%d of %d corner-to-corner packets arrived", delivered, n)
	}
	return nil
}

// probeSF runs the sampling-filter strategy once on sim_bf_100's scenario:
// its host profile equals BF's, so it has no workload of its own.
func probeSF(seed int64, smoke bool, out map[string]float64) error {
	p := small100(manet.SamplingFilter, smoke)(seed*1000 + 10)
	var o *manet.Outcome
	out["manet.sf_run_ms"] = perCall(1, func(int) { call(func() { o = manet.Run(p) }) }) / 1e6
	if o.CompletionRate() == 0 {
		return fmt.Errorf("no SF query of %d completed", len(o.Queries))
	}
	return nil
}

// probeWire times the codec on a query and on results of 8 and 512 tuples,
// and the framing on the 8-tuple result.
func probeWire(seed int64, scale func(int) int, out map[string]float64) error {
	cfg := gen.DefaultConfig(2000, 2, gen.Independent, seed)
	data := gen.Generate(cfg)
	dev := core.NewDevice(1, data, cfg.Schema(), core.Under, true)
	q, _ := dev.Originate(tuple.Point{X: 500, Y: 500}, 250)
	n := scale(200000)

	encQ := wire.EncodeQuery(q)
	out["wire.encode_query_ns"] = perCall(n, func(int) { wire.EncodeQuery(q) })
	var err error
	out["wire.decode_query_ns"] = perCall(n, func(int) { _, err = wire.DecodeQuery(encQ) })
	if err != nil {
		return err
	}
	for _, size := range []int{8, 512} {
		r := wire.Result{Key: q.Key(), From: 1, Tuples: data[:size]}
		enc := wire.EncodeResult(r)
		loops := n * 8 / size
		out[fmt.Sprintf("wire.encode_result_%d_ns", size)] = perCall(loops, func(int) { wire.EncodeResult(r) })
		out[fmt.Sprintf("wire.decode_result_%d_ns", size)] = perCall(loops, func(int) { _, err = wire.DecodeResult(enc) })
		if err != nil {
			return err
		}
	}

	r8 := wire.Result{Key: q.Key(), From: 1, Tuples: data[:8]}
	enc8 := wire.EncodeResult(r8)
	var frame bytes.Buffer
	out["wire.write_frame_ns"] = perCall(n, func(int) {
		frame.Reset()
		err = wire.WriteFrame(&frame, enc8)
	})
	if err != nil {
		return err
	}
	framed := append([]byte(nil), frame.Bytes()...)
	rd := bytes.NewReader(framed)
	out["wire.read_frame_ns"] = perCall(n, func(int) {
		rd.Reset(framed)
		_, err = wire.ReadFrame(rd)
	})
	if err != nil {
		return err
	}
	out["wire.allocs_per_roundtrip"] = allocsPerCall(scale(20000), func(int) {
		frame.Reset()
		err = wire.WriteFrame(&frame, wire.EncodeResult(r8))
		rd.Reset(frame.Bytes())
		msg, _ := wire.ReadFrame(rd)
		_, err = wire.DecodeResult(msg)
	})
	return err
}

// probeGateway starts a nine-peer fleet (tcp.fleet_start_ms) and times the
// gateway in front of its centre peer: a cache hit, a miss that runs a live
// query, and a cached round trip through the front door's socket. Misses
// are back-to-back queries from one originator, the regime that storms, so
// each waits for the fleet to drain before the next.
func probeGateway(seed int64, scale func(int) int, out map[string]float64) error {
	const g = 3
	cfg := gen.DefaultConfig(900, 2, gen.Independent, seed)
	parts := gen.GridPartition(gen.Generate(cfg), g, cfg.Space)
	var fl *fleet
	var err error
	out["tcp.fleet_start_ms"] = perCall(1, func(int) {
		if fl != nil {
			fl.close()
		}
		if err == nil {
			fl, err = startFleet(parts, cfg, g, false)
		}
	}) / 1e6
	if err != nil {
		return err
	}
	defer fl.close()
	if err := fl.learn(); err != nil {
		return err
	}

	const centre = g * g / 2
	gw, err := gateway.New(gateway.PeerBackend(fl.peers[centre], nil, g*g),
		gateway.Config{CacheTTL: time.Minute})
	if err != nil {
		return err
	}
	defer gw.Close()
	// Distinct region cells (250 units by default) make distinct cache keys.
	region := func(i int) gateway.Request {
		return gateway.Request{Pos: tuple.Point{X: float64(i) * 300, Y: 0}}
	}
	misses := scale(60)
	t0 := time.Now()
	var drained time.Duration
	for i := 0; i < misses; i++ {
		target := fl.in.Value() + fl.frames[centre]
		resp, err := gw.Do(region(i))
		if err != nil || resp.Source != gateway.SourceLive || !resp.Complete {
			return fmt.Errorf("gateway miss %d: source %v complete %v err %v", i, resp.Source, resp.Complete, err)
		}
		d0 := time.Now()
		if err := fl.drain(target, d0); err != nil {
			return err
		}
		drained += time.Since(d0)
	}
	out["gateway.do_miss_us"] = float64((time.Since(t0) - drained).Microseconds()) / float64(misses)

	out["gateway.do_hit_ns"] = perCall(scale(100000), func(int) { _, err = gw.Do(region(0)) })
	if err != nil {
		return err
	}

	srv, err := gateway.NewServer(gw, gateway.ServerConfig{})
	if err != nil {
		return err
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		return err
	}
	defer conn.Close()
	ask := wire.EncodeQuery(core.Query{Org: 99, Pos: region(0).Pos})
	out["gateway.server_hit_us"] = perCall(scale(5000), func(int) {
		if err == nil {
			err = wire.WriteFrame(conn, ask)
		}
		if err == nil {
			_, err = wire.ReadFrame(conn)
		}
	}) / 1e3
	return err
}
