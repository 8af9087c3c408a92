package main

import (
	"fmt"

	"manetskyline/internal/core"
	"manetskyline/internal/gen"
	"manetskyline/internal/skyline"
	"manetskyline/internal/tuple"
	"manetskyline/internal/wire"
)

// localRunner is local_ac_25: one operation, and one unit, is one static
// distributed query (core.RunStatic) over a g×g grid of devices; a block is
// one query from every originator. Storage, the local skyline and core.Merge do all the
// work; no simulator event fires and no socket opens.
type localRunner struct {
	seed       int64
	n, g, dim  int
	warmStride int // the warm-up checks every warmStride-th originator
	rec        *spanRecorder

	devs  []*core.Device
	truth []tuple.Tuple
	// tupleBytes and headerBytes price a result message as the live tier
	// would put it on a socket.
	tupleBytes, headerBytes int
	// plain holds the outcomes of the latest untraced block; the traced
	// driver must reproduce them before its spans are trusted.
	plain []core.StaticOutcome
}

func newLocalRunner(seed int64, smoke bool, rec *spanRecorder) runner {
	r := &localRunner{seed: seed, n: 50000, g: 5, dim: 3, warmStride: 3, rec: rec}
	if smoke {
		r.n, r.g = 1800, 3
	}
	return r
}

// buildStaticDevices generates an anti-correlated relation and partitions it
// over a g×g grid of devices, the paper's static pre-test set-up.
func buildStaticDevices(n, dim, g int, seed int64, rec *spanRecorder) ([]*core.Device, []tuple.Tuple) {
	sp := rec.begin("gen.Generate", 0, "")
	cfg := gen.DefaultConfig(n, dim, gen.AntiCorrelated, seed)
	data := gen.Generate(cfg)
	rec.end(sp)
	sp = rec.begin("core.NewDevice*", 0, "")
	parts := gen.GridPartition(data, g, cfg.Space)
	devs := make([]*core.Device, len(parts))
	for i, p := range parts {
		devs[i] = core.NewDevice(core.DeviceID(i), p, cfg.Schema(), core.Under, true)
	}
	rec.end(sp)
	return devs, data
}

func (r *localRunner) setup() error {
	var data []tuple.Tuple
	r.devs, data = buildStaticDevices(r.n, r.dim, r.g, r.seed, r.rec)
	sp := r.rec.begin("oracle.SFS", 0, "")
	r.truth = skyline.SFS(data)
	r.rec.end(sp)

	empty := len(wire.EncodeResult(wire.Result{}))
	r.headerBytes = empty
	r.tupleBytes = len(wire.EncodeResult(wire.Result{Tuples: data[:1]})) - empty

	sp = r.rec.begin("setup.warmup", 0, "")
	defer r.rec.end(sp)
	for org := 0; org < len(r.devs); org += r.warmStride {
		out := r.runPlain(org)
		if !skyline.SetEqual(out.Skyline, r.truth) {
			return fmt.Errorf("local_ac_25: originator %d assembled %d tuples, the centralized skyline has %d and they differ",
				org, len(out.Skyline), len(r.truth))
		}
	}
	return nil
}

// runPlain is one iteration of core.RunStaticAll.
func (r *localRunner) runPlain(org int) (out core.StaticOutcome) {
	for _, d := range r.devs {
		d.Log.Reset()
	}
	call(func() { out = core.RunStatic(r.devs, r.g, core.DeviceID(org)) })
	return out
}

func (r *localRunner) block(traced bool) (blockResult, error) {
	res := blockResult{counts: map[string]float64{}}
	bsp := r.rec.begin("block", 0, "")
	defer r.rec.end(bsp)
	outs := make([]core.StaticOutcome, len(r.devs))
	for org := range r.devs {
		u := res.timeUnit(1, func() {
			if traced {
				call(func() { outs[org] = tracedStatic(r.devs, r.g, org, r.rec, bsp) })
			} else {
				outs[org] = r.runPlain(org)
			}
		})
		u.latMs = []float64{u.wall * 1e3}
	}
	for org, out := range outs {
		if !skyline.SetEqual(out.Skyline, r.truth) {
			res.failed++
		}
		res.airBytes += float64(out.Acc.Reduced*r.tupleBytes + out.Acc.Devices*r.headerBytes)
		res.counts["queries"]++
		res.counts["core.shipped"] += float64(out.Acc.Reduced)
		res.counts["core.drr_saved"] += float64(out.Acc.Unreduced - out.Acc.Reduced - out.Acc.Filters)
		res.counts["core.drr_base"] += float64(out.Acc.Unreduced)
		if traced && r.plain != nil {
			if err := sameStaticOutcome(r.plain[org], out); err != nil {
				return res, fmt.Errorf("local_ac_25: traced driver differs from core.RunStatic at originator %d: %w", org, err)
			}
		}
	}
	if !traced {
		r.plain = outs
	}
	return res, nil
}

func (r *localRunner) layers(_, traced []blockResult, out map[string]float64) {
	c := sumCounts(traced)
	out["core.tuples_shipped_per_query"] = c["core.shipped"] / c["queries"]
	out["core.drr"] = ratio(c["core.drr_saved"], c["core.drr_base"])
}

func (r *localRunner) close() {}

// tracedStatic is core.RunStatic written out over the same public calls
// (Originate, Process, Forwardable, Merge), so that a driver span can wrap
// each of them. The query's spans hang under parent and share its query ID.
func tracedStatic(devs []*core.Device, g, org int, rec *spanRecorder, parent int) core.StaticOutcome {
	for _, d := range devs {
		d.Log.Reset()
	}
	qid := fmt.Sprintf("static-org-%d", org)
	qsp := rec.begin("static.query", parent, qid)
	defer rec.end(qsp)

	dev := devs[org]
	sp := rec.begin("core.Originate", qsp, qid)
	q, orgRes := dev.Originate(dev.Rel.MBR().Center(), core.Unconstrained())
	rec.end(sp)
	out := core.StaticOutcome{Skyline: orgRes.Skyline}
	out.Stats.Add(orgRes.Stats)

	type hop struct {
		dev int
		q   core.Query
	}
	visited := make([]bool, len(devs))
	visited[org] = true
	var queue []hop
	enqueue := func(from int, fq core.Query) {
		r, c := from/g, from%g
		for _, d := range [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
			nr, nc := r+d[0], c+d[1]
			if nr < 0 || nr >= g || nc < 0 || nc >= g || visited[nr*g+nc] {
				continue
			}
			visited[nr*g+nc] = true
			queue = append(queue, hop{nr*g + nc, fq})
		}
	}
	enqueue(org, q)
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		if !devs[h.dev].Log.FirstTime(h.q.Key()) {
			continue
		}
		sp := rec.begin("core.Process", qsp, qid)
		res := devs[h.dev].Process(h.q)
		rec.end(sp)
		out.Acc.ObserveFilters(res, h.q.NumFilters())
		out.Stats.Add(res.Stats)
		sp = rec.begin("core.Merge", qsp, qid)
		out.Skyline = core.Merge(out.Skyline, res.Skyline)
		rec.end(sp)
		enqueue(h.dev, core.Forwardable(h.q, res))
	}
	return out
}

// sameStaticOutcome reports how two executions of one static query differ.
func sameStaticOutcome(a, b core.StaticOutcome) error {
	if a.Acc != b.Acc {
		return fmt.Errorf("reduction sums %+v and %+v", a.Acc, b.Acc)
	}
	if !skyline.SetEqual(a.Skyline, b.Skyline) {
		return fmt.Errorf("skylines of %d and %d tuples", len(a.Skyline), len(b.Skyline))
	}
	return nil
}
