package main

import (
	"fmt"

	"manetskyline/internal/bench"
	"manetskyline/internal/manet"
	"manetskyline/internal/skyline"
	"manetskyline/internal/telemetry"
	"manetskyline/internal/tuple"
)

// simRunner drives manet.Run. One operation is one simulated query, one
// unit one scenario, and a block the same few scenarios every time. Their
// seeds are made from the benchmark seed. A scenario's host cost varies by
// about 10 % from one scenario seed to the next, so a workload runs as many
// scenarios per block as its time allows.
type simRunner struct {
	name string
	seed int64
	// params builds the scenario for one scenario seed.
	params func(scenarioSeed int64) manet.Params
	// scenarios is how many scenarios one block runs.
	scenarios int
	// maxPartial is the largest share of deadline-finalized queries, and
	// minPrecision and minRecall the lowest means against the centralized
	// skyline, that the checked run may show before the workload fails: a
	// protocol that stops completing its queries or loses replies wholesale
	// must surface as a failed benchmark, not as a fast one. They are set
	// well clear of what mobility does to a healthy run: depth-first showed
	// up to 4 stranded traversals in 100 and means down to 0.97 and 0.95.
	maxPartial, minPrecision, minRecall float64
	// large selects the 30 000-node probe costs for the budget.
	large bool
	rec   *spanRecorder
}

// scenarioSeed spreads benchmark seeds a thousand apart so that no two of
// them share a scenario.
func (r *simRunner) scenarioSeed(i int) int64 { return r.seed*1000 + 10 + int64(i) }

// small100 is the paper's largest network as BenchmarkScenarioSmall runs it:
// 100 devices, 10 000 tuples, 600 simulated seconds, one query per device,
// waypoint mobility and on-demand AODV. The deadline is the repository's own
// degradation knob; it ends the few depth-first traversals that mobility
// strands, so that every query is accounted for when the run ends.
func small100(strategy manet.Forwarding, smoke bool) func(int64) manet.Params {
	return func(seed int64) manet.Params {
		p := manet.DefaultParams()
		p.Grid, p.GlobalN, p.SimTime = 10, 10000, 600
		if smoke {
			p.Grid, p.GlobalN, p.SimTime = 4, 800, 300
		}
		p.MinQueries, p.MaxQueries = 1, 1
		p.QueryDeadline = 0.09 * p.SimTime
		p.Strategy = strategy
		p.Seed = seed
		return p
	}
}

// large30k is bench.ScenarioLarge at 30 000 devices with two originators.
// Queries are issued in the first 90 s of 100 and finalized by a 9 s
// deadline, so every flood runs to its end inside the run; with the
// harness's 300 s default, late floods are cut off by the end of the run
// and the work per seed varies twofold.
func large30k(smoke bool) func(int64) manet.Params {
	return func(seed int64) manet.Params {
		cfg := bench.LargeConfig{Nodes: 30000, Strategy: manet.BreadthFirst,
			SimTime: 100, Originators: 2, Seed: seed}
		if smoke {
			cfg.Nodes = 400
		}
		p := bench.ScenarioLarge(cfg)
		p.QueryDeadline = 0.09 * p.SimTime
		return p
	}
}

func (r *simRunner) setup() error {
	sp := r.rec.begin("setup.checked_run", 0, "")
	defer r.rec.end(sp)
	p := r.params(r.scenarioSeed(0))
	p.Recall = true
	var out *manet.Outcome
	call(func() { out = manet.Run(p) })
	if err := checkSimOutcome(out, r.minPrecision, r.minRecall); err != nil {
		return fmt.Errorf("%s: scenario seed %d: %w", r.name, p.Seed, err)
	}
	partial := 0
	for _, q := range out.Queries {
		if q.Partial {
			partial++
		}
	}
	if share := float64(partial) / float64(len(out.Queries)); share > r.maxPartial {
		return fmt.Errorf("%s: %d of %d queries ended by deadline, above the %.0f%% this scenario tolerates",
			r.name, partial, len(out.Queries), 100*r.maxPartial)
	}
	return nil
}

// checkSimOutcome compares a run with the centralized oracle manet.Run
// computed under Params.Recall. A query merges the replies of the devices
// its flood or traversal reached before it ended, and under mobility that
// is not always all of them, so each result is held to what the protocol
// promises of any subset: real tuples, inside the query range, none
// dominating another. Completeness is checked over the run, against the
// given floors.
func checkSimOutcome(out *manet.Outcome, minPrecision, minRecall float64) error {
	if !out.RecallComputed || len(out.Queries) == 0 {
		return fmt.Errorf("no oracle-checked queries")
	}
	type site [2]float64
	union := map[site]tuple.Tuple{}
	for _, part := range out.DeviceTuples {
		for _, t := range part {
			union[site{t.X, t.Y}] = t
		}
	}
	for _, q := range out.Queries {
		for _, t := range q.Skyline {
			if u, ok := union[site{t.X, t.Y}]; !ok || !u.Equal(t) {
				return fmt.Errorf("query %v: result tuple %v is in no device's relation", q.Key, t)
			}
			if !t.Pos().WithinDist(q.Pos, q.D) {
				return fmt.Errorf("query %v: result tuple %v lies outside the query range", q.Key, t)
			}
		}
		if !skyline.Verify(q.Skyline, q.Skyline) {
			return fmt.Errorf("query %v: a result tuple dominates another", q.Key)
		}
	}
	if p, _ := out.MeanPrecision(); p < minPrecision {
		return fmt.Errorf("mean precision %.4f against the centralized skyline, below %.2f", p, minPrecision)
	}
	if r, _ := out.MeanRecall(); r < minRecall {
		return fmt.Errorf("mean recall %.4f against the centralized skyline, below %.2f", r, minRecall)
	}
	return nil
}

func (r *simRunner) block(traced bool) (blockResult, error) {
	res := blockResult{counts: map[string]float64{}}
	bsp := r.rec.begin("block", 0, "")
	defer r.rec.end(bsp)
	for i := 0; i < r.scenarios; i++ {
		p := r.params(r.scenarioSeed(i))
		var reg *telemetry.Registry
		if traced {
			reg = telemetry.NewRegistry()
			p.Metrics = reg
			p.Spans = telemetry.NewSpanLog()
		}
		var out *manet.Outcome
		sp := r.rec.begin("manet.Run", bsp, fmt.Sprintf("scenario-%d", p.Seed))
		u := res.timeUnit(0, func() { call(func() { out = manet.Run(p) }) })
		r.rec.end(sp)

		n := len(out.Queries)
		if n == 0 {
			return res, fmt.Errorf("%s: scenario seed %d issued no query", r.name, p.Seed)
		}
		u.ops = n
		res.airBytes += float64(out.Radio.BytesSent)
		r.count(res.counts, out, reg)
		for _, q := range out.Queries {
			if !q.Done {
				res.failed++
			}
		}
	}
	return res, nil
}

// count adds one run's layer counters; reg is nil on an untraced run, whose
// counts then come from the Outcome alone.
func (r *simRunner) count(c map[string]float64, out *manet.Outcome, reg *telemetry.Registry) {
	c["runs"]++
	c["queries"] += float64(len(out.Queries))
	c["events"] += float64(out.Events)
	c["radio.frames"] += float64(out.Radio.FramesSent)
	c["radio.receptions"] += float64(out.Radio.Receptions)
	c["radio.bytes"] += float64(out.Radio.BytesSent)
	c["radio.drops"] += float64(out.Radio.DroppedRange + out.Radio.DroppedLoss +
		out.Radio.DroppedFault + out.Radio.DroppedQueue)
	c["aodv.rreq"] += float64(out.Aodv.RREQSent)
	c["aodv.rrep"] += float64(out.Aodv.RREPSent)
	c["aodv.data_forwarded"] += float64(out.Aodv.DataForwarded)
	c["aodv.data_dropped"] += float64(out.Aodv.DataDropped)
	for _, q := range out.Queries {
		c["manet.messages"] += float64(q.Messages)
		c["core.shipped"] += float64(q.Acc.Reduced)
		c["core.drr_saved"] += float64(q.Acc.Unreduced - q.Acc.Reduced - q.Acc.Filters)
		c["core.drr_base"] += float64(q.Acc.Unreduced)
		if q.Done && !q.Partial {
			c["manet.completed"]++
			c["manet.response_s"] += q.ResponseTime
		}
	}
	if reg == nil {
		return
	}
	for name, metric := range map[string]string{
		"radio.neighbor_lookups": "radio_neighbor_queries_total",
		"radio.neighbor_scanned": "radio_neighbor_scanned_total",
		"radio.broadcasts":       "radio_broadcasts_total",
		"radio.unicasts":         "radio_unicasts_total",
		"aodv.control_bytes":     "aodv_control_bytes_sent_total",
	} {
		c[name] += float64(reg.Counter(metric, "").Value())
	}
}

func (r *simRunner) layers(plain, traced []blockResult, out map[string]float64) {
	// Every block runs the same scenarios, so per-block counts are the sums
	// over the traced blocks divided by their number.
	c := sumCounts(traced)
	for k := range c {
		c[k] /= float64(len(traced))
	}
	q := c["queries"]
	out["sim.events_per_query"] = c["events"] / q
	out["radio.frames_per_query"] = c["radio.frames"] / q
	out["radio.receptions_per_query"] = c["radio.receptions"] / q
	out["radio.bytes_per_query"] = c["radio.bytes"] / q
	out["radio.drops_per_query"] = c["radio.drops"] / q
	out["radio.neighbor_scanned_per_lookup"] = ratio(c["radio.neighbor_scanned"], c["radio.neighbor_lookups"])
	out["aodv.rreq_per_query"] = c["aodv.rreq"] / q
	out["aodv.rrep_per_query"] = c["aodv.rrep"] / q
	out["aodv.data_forwarded_per_query"] = c["aodv.data_forwarded"] / q
	out["aodv.data_dropped_per_query"] = c["aodv.data_dropped"] / q
	out["aodv.control_bytes_per_query"] = c["aodv.control_bytes"] / q
	out["manet.messages_per_query"] = c["manet.messages"] / q
	out["manet.completion_share"] = c["manet.completed"] / q
	out["manet.sim_response_s_mean"] = ratio(c["manet.response_s"], c["manet.completed"])
	out["core.tuples_shipped_per_query"] = c["core.shipped"] / q
	out["core.drr"] = ratio(c["core.drr_saved"], c["core.drr_base"])

	// Host times come from the untraced blocks, which ran the same
	// scenarios as the traced ones.
	var wall float64
	for _, u := range fastest(plain) {
		wall += u.wall
	}
	out["sim.events_per_s"] = c["events"] / wall
	out["manet.run_ms"] = wall * 1e3 / c["runs"]
	out["manet.trace_overhead_share"] = traceOverhead(plain, traced)
	// The budget prices what the run did at the bare cost the probes
	// measured for it: event dispatch, transmissions (each does one
	// neighbour lookup of its own) and the remaining neighbour lookups.
	// What it leaves unexplained is reception handling and the protocol
	// logic inside the handlers (aodv, manet, core).
	lookup := out["radio.neighbors_into_ns_100"]
	if r.large {
		lookup = out["radio.neighbors_into_ns_30k"]
	}
	explained := c["events"]*out["sim.ns_per_event_bare"] +
		(c["radio.neighbor_lookups"]-c["radio.broadcasts"])*lookup +
		c["radio.broadcasts"]*out["radio.broadcast_ns"] +
		c["radio.unicasts"]*out["radio.unicast_ns"]
	out["manet.budget_explained_share"] = explained / 1e9 / wall
}

func (r *simRunner) close() {}

// ratio is a/b, 0 when there is no base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
