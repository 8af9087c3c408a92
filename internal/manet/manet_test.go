package manet

import (
	"math"
	"strings"
	"testing"

	"manetskyline/internal/core"
	"manetskyline/internal/gen"
	"manetskyline/internal/skyline"
	"manetskyline/internal/telemetry"
	"manetskyline/internal/tuple"
)

// smallParams returns a fast, fully connected, static scenario for
// correctness tests: 3×3 devices in a 1000² space with 2 km radio range so
// every device hears every other.
func smallParams(strategy Forwarding) Params {
	p := DefaultParams()
	p.Grid = 3
	p.GlobalN = 3000
	p.Strategy = strategy
	p.SimTime = 3600
	p.MinQueries, p.MaxQueries = 1, 2
	p.Static = true
	p.KeepSkylines = true
	p.Radio.Range = 2000
	p.Seed = 42
	return p
}

func TestValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := DefaultParams()
	bad.Grid = 0
	if bad.Validate() == nil {
		t.Errorf("zero grid should be invalid")
	}
	bad2 := DefaultParams()
	bad2.BFQuorum = 1.5
	if bad2.Validate() == nil {
		t.Errorf("quorum > 1 should be invalid")
	}
	bad3 := DefaultParams()
	bad3.MaxQueries = 0
	if bad3.Validate() == nil {
		t.Errorf("max < min queries should be invalid")
	}
}

// TestValidateRejectsNonFiniteTimes checks every time field for NaN and
// infinity: a NaN AckTimeout, say, would become a NaN lane delay.
func TestValidateRejectsNonFiniteTimes(t *testing.T) {
	fields := []struct {
		name string
		set  func(p *Params, v float64)
	}{
		{"SimTime", func(p *Params, v float64) { p.SimTime = v }},
		{"SampleWait", func(p *Params, v float64) { p.SampleWait = v }},
		{"AckTimeout", func(p *Params, v float64) { p.AckTimeout = v }},
		{"SubtreeTimeout", func(p *Params, v float64) { p.SubtreeTimeout = v }},
		{"RetryBackoff", func(p *Params, v float64) { p.QueryRetries, p.RetryBackoff = 2, v }},
		{"RetryBackoffMax", func(p *Params, v float64) { p.QueryRetries, p.RetryBackoffMax = 2, v }},
		{"QueryDeadline", func(p *Params, v float64) { p.QueryDeadline = v }},
		{"RedistributePeriod", func(p *Params, v float64) { p.Redistribute, p.RedistributePeriod = true, v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1)} {
			p := DefaultParams()
			f.set(&p, v)
			if err := p.Validate(); err == nil || !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %g: Validate returned %v, want an error naming the field", f.name, v, err)
			}
		}
	}
}

func TestForwardingString(t *testing.T) {
	if BreadthFirst.String() != "BF" || DepthFirst.String() != "DF" || SamplingFilter.String() != "SF" {
		t.Errorf("unexpected names")
	}
	if Forwarding(9).String() == "" {
		t.Errorf("unknown strategy should render")
	}
}

// groundTruth computes the centralized constrained skyline over the union
// of all device relations for one query.
func groundTruth(out *Outcome, q *QueryMetrics, pos tuple.Point, d float64) []tuple.Tuple {
	var all []tuple.Tuple
	for _, ts := range out.DeviceTuples {
		all = append(all, ts...)
	}
	// Duplicates from overlap partitioning collapse by site.
	var dedup []tuple.Tuple
	seen := map[[2]float64]bool{}
	for _, tp := range all {
		k := [2]float64{tp.X, tp.Y}
		if !seen[k] {
			seen[k] = true
			dedup = append(dedup, tp)
		}
	}
	return skyline.Constrained(dedup, pos, d)
}

// In a static, fully connected, loss-free network, every completed query's
// result must equal the centralized constrained skyline — for both
// forwarding strategies and all estimation modes. This is the end-to-end
// correctness invariant of the whole system.
func TestDistributedEqualsCentralizedStatic(t *testing.T) {
	for _, strategy := range []Forwarding{BreadthFirst, DepthFirst} {
		for _, mode := range []core.Estimation{core.Exact, core.Over, core.Under} {
			p := smallParams(strategy)
			p.Mode = mode
			p.BFQuorum = 1.0 // demand every device's result for exactness
			out := Run(p)
			if len(out.Queries) == 0 {
				t.Fatalf("%v/%v: no queries issued", strategy, mode)
			}
			checked := 0
			for _, q := range out.Queries {
				if !q.Done {
					continue
				}
				checked++
				orgStart := gen.CellRect(int(q.Org)/p.Grid, int(q.Org)%p.Grid, p.Grid, p.Space).Center()
				want := groundTruth(out, q, orgStart, p.QueryDist)
				if !skyline.SetEqual(q.Skyline, want) {
					t.Errorf("%v/%v query %v: result %d tuples, centralized %d",
						strategy, mode, q.Key, len(q.Skyline), len(want))
				}
			}
			if checked == 0 {
				t.Errorf("%v/%v: no queries completed", strategy, mode)
			}
		}
	}
}

func TestOverlapPartitionDuplicatesHandled(t *testing.T) {
	p := smallParams(BreadthFirst)
	p.Overlap = 0.4
	p.BFQuorum = 1.0
	out := Run(p)
	for _, q := range out.Queries {
		if !q.Done {
			continue
		}
		orgStart := gen.CellRect(int(q.Org)/p.Grid, int(q.Org)%p.Grid, p.Grid, p.Space).Center()
		want := groundTruth(out, q, orgStart, p.QueryDist)
		if !skyline.SetEqual(q.Skyline, want) {
			t.Fatalf("query %v with overlap: result %d, want %d", q.Key, len(q.Skyline), len(want))
		}
		// No duplicate sites may survive in the final skyline.
		seen := map[[2]float64]bool{}
		for _, tp := range q.Skyline {
			k := [2]float64{tp.X, tp.Y}
			if seen[k] {
				t.Fatalf("duplicate site %v in final skyline", tp.Pos())
			}
			seen[k] = true
		}
	}
}

func TestQueriesPerDeviceBounds(t *testing.T) {
	p := smallParams(BreadthFirst)
	p.MinQueries, p.MaxQueries = 2, 5
	out := Run(p)
	perDevice := map[core.DeviceID]int{}
	for _, q := range out.Queries {
		perDevice[q.Org]++
	}
	for dev, n := range perDevice {
		if n > 5 {
			t.Errorf("device %d issued %d queries, max 5", dev, n)
		}
	}
	// Issues + skips must equal planned issues (2..5 each).
	total := len(out.Queries) + out.SkippedIssues
	if total < 2*p.NumDevices() || total > 5*p.NumDevices() {
		t.Errorf("planned issues %d outside [%d,%d]", total, 2*p.NumDevices(), 5*p.NumDevices())
	}
}

func TestBFResponseTimeQuorum(t *testing.T) {
	p := smallParams(BreadthFirst)
	out := Run(p)
	for _, q := range out.Queries {
		if q.Done {
			if q.ResponseTime <= 0 {
				t.Errorf("completed query %v has response time %v", q.Key, q.ResponseTime)
			}
			if q.Results < out.quorumOf(p) {
				t.Errorf("query %v done with %d results, quorum %d", q.Key, q.Results, out.quorumOf(p))
			}
		}
	}
}

// quorumOf recomputes the BF quorum for assertions.
func (o *Outcome) quorumOf(p Params) int {
	others := p.NumDevices() - 1
	q := int(float64(others)*p.BFQuorum + 0.999999)
	return q
}

func TestDFCompletesAndVisitsDevices(t *testing.T) {
	p := smallParams(DepthFirst)
	out := Run(p)
	done := 0
	for _, q := range out.Queries {
		if q.Done {
			done++
			// In a fully connected static 9-device network, DF must visit
			// all 8 other devices (they all have in-range data: d=250 from
			// a cell centre still overlaps neighbours' cells... not
			// necessarily all; at least one).
			if q.Acc.Devices == 0 {
				t.Errorf("query %v completed without visiting any device", q.Key)
			}
		}
	}
	if done == 0 {
		t.Fatalf("no DF queries completed")
	}
}

func TestMessagesCounted(t *testing.T) {
	for _, strategy := range []Forwarding{BreadthFirst, DepthFirst} {
		p := smallParams(strategy)
		out := Run(p)
		total := 0
		for _, q := range out.Queries {
			total += q.Messages
		}
		if total == 0 {
			t.Errorf("%v: no messages attributed to queries", strategy)
		}
	}
}

func TestMobileScenarioRuns(t *testing.T) {
	p := DefaultParams()
	p.Grid = 4
	p.GlobalN = 8000
	p.SimTime = 1800
	p.MinQueries, p.MaxQueries = 1, 1
	p.Seed = 7
	out := Run(p)
	if len(out.Queries) == 0 {
		t.Fatalf("no queries issued")
	}
	if out.Events == 0 {
		t.Fatalf("no events executed")
	}
	// With movement some queries may not complete; the rate must still be
	// meaningful.
	t.Logf("mobile: %d queries, completion %.2f, pooled DRR %.3f, mean msgs %.1f",
		len(out.Queries), out.CompletionRate(), out.PooledDRR(), out.MeanMessages())
	if out.CompletionRate() == 0 {
		t.Errorf("no queries completed in a 4×4 mobile scenario")
	}
}

func TestDFvsBFResponseTime(t *testing.T) {
	// The paper's headline simulation finding (Figures 10-11): BF
	// completes faster than DF thanks to parallelism.
	var rt [2]float64
	for i, strategy := range []Forwarding{BreadthFirst, DepthFirst} {
		p := DefaultParams()
		p.Grid = 4
		p.GlobalN = 16000
		p.Strategy = strategy
		p.SimTime = 7200
		p.MinQueries, p.MaxQueries = 1, 2
		p.Static = true
		p.Radio.Range = 400 // multi-hop grid
		p.Seed = 3
		out := Run(p)
		mean, ok := out.MeanResponseTime()
		if !ok {
			t.Fatalf("%v: no completed queries", strategy)
		}
		rt[i] = mean
	}
	t.Logf("response time: BF=%.3fs DF=%.3fs", rt[0], rt[1])
	if rt[0] >= rt[1] {
		t.Errorf("BF (%.3fs) should beat DF (%.3fs)", rt[0], rt[1])
	}
}

func TestOutcomeAggregates(t *testing.T) {
	out := &Outcome{}
	if _, ok := out.MeanResponseTime(); ok {
		t.Errorf("no queries: MeanResponseTime should report not-ok")
	}
	if out.MeanMessages() != 0 || out.CompletionRate() != 0 || out.PooledDRR() != 0 {
		t.Errorf("empty outcome aggregates should be zero")
	}
	out.Queries = []*QueryMetrics{
		{Done: true, ResponseTime: 2, Messages: 10},
		{Done: false, Messages: 20},
	}
	if m, ok := out.MeanResponseTime(); !ok || m != 2 {
		t.Errorf("MeanResponseTime = %v %v", m, ok)
	}
	if out.MeanMessages() != 15 {
		t.Errorf("MeanMessages = %v", out.MeanMessages())
	}
	if out.CompletionRate() != 0.5 {
		t.Errorf("CompletionRate = %v", out.CompletionRate())
	}
}

// TestTelemetryDoesNotPerturbRun pins the instrumentation contract: a run
// with the full telemetry stack attached is bit-identical to one without.
// Metrics and spans only read simulation state — they never draw from the
// RNG, change event scheduling, or alter message sizes.
func TestTelemetryDoesNotPerturbRun(t *testing.T) {
	plain := Run(goldenParams())

	p := goldenParams()
	p.Metrics = telemetry.NewRegistry()
	p.Spans = telemetry.NewSpanLog()
	instr := Run(p)

	if instr.Events != plain.Events {
		t.Fatalf("event count changed: %d with telemetry, %d without", instr.Events, plain.Events)
	}
	if len(instr.Queries) != len(plain.Queries) {
		t.Fatalf("query count changed: %d vs %d", len(instr.Queries), len(plain.Queries))
	}
	for i, q := range instr.Queries {
		wq := plain.Queries[i]
		if q.Key != wq.Key || q.Done != wq.Done || q.ResponseTime != wq.ResponseTime ||
			q.Messages != wq.Messages || q.ResultTuples != wq.ResultTuples {
			t.Errorf("query %d diverged: %+v vs %+v", i, q, wq)
		}
	}
	if instr.Radio != plain.Radio {
		t.Errorf("radio counters diverged: %+v vs %+v", instr.Radio, plain.Radio)
	}
	if instr.Aodv != plain.Aodv {
		t.Errorf("aodv counters diverged: %+v vs %+v", instr.Aodv, plain.Aodv)
	}
}

// TestTraceDisabledByDefault runs a scenario without a span log: nothing is
// recorded and nothing panics.
func TestTraceDisabledByDefault(t *testing.T) {
	out := Run(smallParams(DepthFirst))
	if len(out.Queries) == 0 {
		t.Fatalf("sanity: queries should run")
	}
	if out.Spans != nil {
		t.Errorf("spans recorded without a span log: %d", len(out.Spans))
	}
}

// TestDFReHandoffBounded runs DF on a mobile 5×5 network with loss,
// retries, a deadline and several queries per device. A QueryLog keeps one
// counter per originator, so a walk of an older query that reaches a device
// after a newer one is accepted and processed again. The device then holds
// one walk for that query, the newest, and the run stays small; were the
// replaced walk to go on walking on its own timers, walks would multiply
// with every such hand-off. The run takes 39 388 events; the bound keeps
// the headroom it had when the run took 49 145, before DF's cancelled
// timers stopped counting as events.
func TestDFReHandoffBounded(t *testing.T) {
	p := smallParams(DepthFirst)
	p.Static = false
	p.Grid, p.GlobalN, p.SimTime = 5, 5000, 900
	p.QueryRetries, p.RetryBackoff, p.RetryBackoffMax = 2, 10, 60
	p.QueryDeadline = 120
	p.Radio.Range = 380
	p.Radio.Loss = 0.05
	if out := Run(p); out.Events > 160000 {
		t.Errorf("%d events, want at most 160000", out.Events)
	}
}
