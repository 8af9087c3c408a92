package manet

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"manetskyline/internal/core"
	"manetskyline/internal/faults"
	"manetskyline/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite the scenario digests and full-text goldens")

// digestFile holds one line per TestScenarioDigests row.
const digestFile = "testdata/scenarios.digest"

const digestHeader = `# One line per TestScenarioDigests row, sorted by name: the run's Events and
# nonzero radio, aodv and faults counters, then the sha256 of its per-query
# metrics, span JSONL and Prometheus exposition. Regenerate the lines of the
# rows that run with: go test ./internal/manet -run TestScenarioDigests -update
`

// goldenParams is a tiny deterministic scenario whose whole trace fits in
// testdata: 4 static devices, all in range, one query each.
func goldenParams() Params {
	p := DefaultParams()
	p.Grid, p.GlobalN, p.SimTime = 2, 400, 600
	p.MinQueries, p.MaxQueries = 1, 1
	p.Static = true
	p.Radio.Range = 2000
	p.Seed = 7
	return p
}

// withRetries turns on the originator's retry budget.
func withRetries(p Params, retries int) Params {
	p.QueryRetries = retries
	p.RetryBackoff = 10
	p.RetryBackoffMax = 60
	return p
}

// allDrawsPlan exercises every clause of a fault plan on a 4×4 network over
// 1800 s, including each one that draws from the evaluator's random stream:
// two link-loss windows (one bidirectional), region loss, two duplicate
// windows (one with the default copy spread), reorder, an outage and a
// partition.
func allDrawsPlan() *faults.Plan {
	return &faults.Plan{
		Name: "all-draws",
		LinkLoss: []faults.LinkLoss{
			{Window: faults.Window{Start: 100, End: 1500}, From: 5, To: 6, Prob: 0.3},
			{Window: faults.Window{Start: 0}, From: 9, To: 10, Bidirectional: true, Prob: 0.5},
		},
		RegionLoss: []faults.RegionLoss{
			{Window: faults.Window{Start: 200, End: 1200}, MinX: 0, MinY: 0, MaxX: 400, MaxY: 400, Prob: 0.2},
		},
		Outages: []faults.Outage{
			{Window: faults.Window{Start: 400, End: 900}, Node: 3},
		},
		Partitions: []faults.Partition{{
			Window: faults.Window{Start: 600, End: 1000},
			Groups: [][]int{{0, 1, 2, 3, 4, 5, 6, 7}, {8, 9, 10, 11, 12, 13, 14, 15}},
		}},
		Duplicate: []faults.Chaos{
			{Window: faults.Window{Start: 0, End: 1800}, Prob: 0.1, MaxExtra: 3, MaxDelay: 0.5},
			{Window: faults.Window{Start: 300, End: 900}, Prob: 0.2, MaxExtra: 2},
		},
		Reorder: []faults.Chaos{
			{Window: faults.Window{Start: 0, End: 1800}, Prob: 0.1, MaxDelay: 1},
		},
	}
}

// allDrawsParams is the fault matrix's scenario: a mobile 4×4 run with the
// retry/deadline policy and the recall oracle, under allDrawsPlan.
func allDrawsParams(s Forwarding) Params {
	p := withRetries(DefaultParams(), 2)
	p.QueryDeadline = 600
	p.Grid, p.GlobalN, p.SimTime = 4, 1600, 1800
	p.Strategy = s
	p.MinQueries, p.MaxQueries = 1, 2
	p.Recall = true
	p.Seed = 5
	p.Faults = allDrawsPlan()
	return p
}

// pinnedDF100Params is the sim_df_100 benchmark scenario shrunk to run in
// well under a second: 100 waypoint devices on the 1 km² field, one query
// each, the same 9 % deadline. At the default 380 m range a device near the
// field's edge probes a ring that does not cover the occupied grid, so DF's
// next-hop choice runs on the gathered-grid path as well as on the
// full-coverage scan.
func pinnedDF100Params() Params {
	p := DefaultParams()
	p.Grid, p.GlobalN, p.SimTime = 10, 2000, 300
	p.MinQueries, p.MaxQueries = 1, 1
	p.QueryDeadline = 0.09 * p.SimTime
	p.Strategy = DepthFirst
	p.Seed = 1010
	return p
}

// knobAxes are the knobs that change a run's output, each a row over a base
// row where the knob moves the per-query metrics, not only the spans;
// TestKnobRowsMove checks that the row differs from its base.
var knobAxes = []struct {
	name, base string
	set        func(*Params)
}{
	// The static 4×4 grid is multi-hop, so a two-hop sample reaches devices
	// a one-hop sample does not.
	{"knob_sample_ttl2", "sf_static_none", func(p *Params) { p.SampleTTL = 2 }},
	{"knob_filters3", "bf_static_none", func(p *Params) { p.NumFilters = 3 }},
	{"knob_dim4", "bf_static_none", func(p *Params) { p.Dim = 4 }},
	{"knob_overlap", "bf_static_none", func(p *Params) { p.Overlap = 0.2 }},
	// SF's originator picks its filter set by the estimated VDR.
	{"knob_exact", "sf_static_none", func(p *Params) { p.Mode = core.Exact }},
	{"knob_over", "sf_static_none", func(p *Params) { p.Mode = core.Over }},
	// A DF walk carries its filter from device to device.
	{"knob_static_filter", "df_static_none", func(p *Params) { p.Dynamic = false }},
}

// digestRow is one row of TestScenarioDigests: a named simulator input whose
// whole output is pinned by one line of digestFile.
type digestRow struct {
	name string
	p    Params
}

// scenarios is the corpus: the small goldens, the runs earlier fixes were
// measured on, 100-device BF and DF runs, the benchmark's 100-device
// scenario and its scale path, every strategy, static and mobile, under no
// faults, each built-in plan and allDrawsPlan, and the knob axes.
func scenarios() []digestRow {
	set := func(p Params, f func(*Params)) Params {
		f(&p)
		return p
	}
	rows := []digestRow{
		{name: "golden_bf", p: goldenParams()},
		{name: "golden_df", p: set(goldenParams(), func(p *Params) { p.Strategy = DepthFirst })},
		{name: "golden_sf", p: set(goldenParams(), func(p *Params) { p.Strategy = SamplingFilter })},
		// An empty plan must leave the run as if no fault wiring existed.
		{name: "golden_empty_plan", p: set(goldenParams(), func(p *Params) { p.Faults = &faults.Plan{Name: "empty"} })},
		{name: "small_bf", p: smallParams(BreadthFirst)},
		// A static multi-hop 3×3 grid: two crashes and a split mid-run, with
		// the retry/deadline policy and the recall oracle.
		{name: "fault_crash_partition", p: set(withRetries(goldenParams(), 2), func(p *Params) {
			p.Grid, p.GlobalN, p.SimTime = 3, 900, 1800
			p.QueryDeadline = 600
			p.Radio.Range = 600
			p.Recall = true
			p.Seed = 11
			p.Faults = namedPlan("crash+partition", *p)
		})},
		// A mobile 6×6 DF run under 5 % loss: walks restart, partial queries
		// close on the deadline and AODV repairs broken routes.
		{name: "mobile_df", p: set(withRetries(DefaultParams(), 3), func(p *Params) {
			p.Grid, p.GlobalN, p.SimTime = 6, 3600, 1800
			p.QueryDeadline = 300
			p.MinQueries, p.MaxQueries = 1, 2
			p.Strategy = DepthFirst
			p.Radio.Loss = 0.05
			p.Seed = 23
		})},
		// A mobile 4×4 BF run with §7 redistribution and bounded link queues.
		{name: "redistribute_bf", p: set(DefaultParams(), func(p *Params) {
			p.Grid, p.GlobalN, p.SimTime = 4, 4000, 3600
			p.MinQueries, p.MaxQueries = 1, 2
			p.Redistribute = true
			p.RedistributePeriod = 300
			p.Radio.LinkQueue = 1
			p.Seed = 11
		})},
		{name: "df100_lossless", p: pinnedDF100Params()},
		// Lost hand-offs, acks and subtree results end walks through the
		// ack and subtree timers.
		{name: "df100_loss_retries", p: set(withRetries(pinnedDF100Params(), 3), func(p *Params) {
			p.Radio.Loss = 0.05
		})},
		// A sparse network: walks exhaust small components early, so
		// originators restart them, and stragglers return while a restart
		// is pending.
		{name: "df100_sparse_retries", p: set(withRetries(pinnedDF100Params(), 3), func(p *Params) {
			p.Radio.Loss = 0.05
			p.QueryDeadline = 0.3 * p.SimTime
			p.Radio.Range = 120
			p.SubtreeTimeout = 10
		})},
		{name: "bf100", p: set(pinnedDF100Params(), func(p *Params) { p.Strategy = BreadthFirst })},
		// Mobility breaks enough links here for devices to lose several
		// routes at once, so a route-error order taken from a map shows.
		{name: "bench_bf", p: benchScenarioParams(BreadthFirst)},
		{name: "bench_df", p: benchScenarioParams(DepthFirst)},
		{name: "bench_sf", p: benchScenarioParams(SamplingFilter)},
		{name: "scale_bf", p: ScaleParams(ScaleConfig{Nodes: 225, SimTime: 120, Strategy: BreadthFirst})},
		{name: "scale_df", p: ScaleParams(ScaleConfig{Nodes: 225, SimTime: 120, Strategy: DepthFirst})},
	}
	slug := strings.NewReplacer("+", "_", "-", "_")
	for _, s := range allStrategies {
		for _, mode := range []string{"static", "mobile"} {
			for _, plan := range append(append([]string{"none"}, faults.PlanNames()...), "all-draws") {
				p := allDrawsParams(s)
				p.Static = mode == "static"
				if plan == "none" {
					p.Faults = nil
				} else if plan != "all-draws" {
					p.Faults = namedPlan(plan, p)
				}
				name := fmt.Sprintf("%s_%s_%s", strings.ToLower(s.String()), mode, slug.Replace(plan))
				rows = append(rows, digestRow{name: name, p: p})
			}
		}
	}
	for _, k := range knobAxes {
		i := slices.IndexFunc(rows, func(r digestRow) bool { return r.name == k.base })
		rows = append(rows, digestRow{name: k.name, p: set(rows[i].p, k.set)})
	}
	return rows
}

// namedPlan is the built-in plan name sized for p. It panics on an error,
// so a fault row never runs, and is never pinned, without its faults.
func namedPlan(name string, p Params) *faults.Plan {
	plan, err := faults.Named(name, p.NumDevices(), p.SimTime)
	if err != nil {
		panic(fmt.Sprintf("plan %q: %v", name, err))
	}
	return plan
}

// scenarioRun is one row's output: its digest line, its outcome, and the
// span JSONL and exposition its line hashes.
type scenarioRun struct {
	row         digestRow
	line        string
	out         *Outcome
	spans, prom []byte
}

// scenarioCache holds the current run of each row, which every test that
// looks at the row shares. A run feeds at most one rowRun with digest set,
// TestScenarioDigests', so -count=N runs every row N times.
var scenarioCache = struct {
	sync.Mutex
	runs     map[string]func() scenarioRun
	digested map[string]bool
}{runs: map[string]func() scenarioRun{}, digested: map[string]bool{}}

// rowRun returns the current run of the row called name; see scenarioCache.
func rowRun(t *testing.T, name string, digest bool) scenarioRun {
	t.Helper()
	rows := scenarios()
	i := slices.IndexFunc(rows, func(r digestRow) bool { return r.name == name })
	if i < 0 {
		t.Fatalf("no scenario row %q", name)
	}
	c := &scenarioCache
	c.Lock()
	if c.runs[name] == nil || digest && c.digested[name] {
		c.runs[name] = sync.OnceValue(func() scenarioRun { return runScenario(rows[i]) })
	}
	run := c.runs[name]
	c.digested[name] = c.digested[name] || digest
	c.Unlock()
	return run()
}

// TestScenarioDigests runs every scenario once, in parallel, with a
// registry and a span log attached, and compares its digest line with
// digestFile, naming each field and section that moved. Under -update it
// rewrites the lines of the rows that ran, and drops lines of rows the table
// no longer has.
func TestScenarioDigests(t *testing.T) {
	t.Parallel()
	rows := scenarios()
	want := readDigests(t)
	for name := range want {
		if !slices.ContainsFunc(rows, func(r digestRow) bool { return r.name == name }) {
			if !*updateGolden {
				t.Errorf("%s has a line for %q, which is not a row", digestFile, name)
			}
			delete(want, name)
		}
	}
	var mu sync.Mutex
	got := map[string]string{}
	t.Cleanup(func() {
		if *updateGolden {
			for name, line := range got {
				want[name] = line
			}
			writeDigests(t, want)
		}
	})
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			run := rowRun(t, r.name, true)
			mu.Lock()
			got[r.name] = run.line
			mu.Unlock()
			checkScenario(t, r, run.out)
			if *updateGolden {
				return
			}
			if w, ok := want[r.name]; !ok {
				t.Errorf("no line in %s (run with -update to add it)", digestFile)
			} else if moved := digestDiff(w, run.line); moved != "" {
				t.Errorf("moved: %s\n got %s\nwant %s", moved, run.line, w)
			}
		})
	}
}

// runScenario runs r with a fresh registry and span log and returns its
// digest line: the name, Events and the nonzero substrate counters in plain
// text, then a sha256 of each output section.
func runScenario(r digestRow) scenarioRun {
	p := r.p
	p.Metrics = telemetry.NewRegistry()
	p.Spans = telemetry.NewSpanLog()
	out := Run(p)
	var spans, prom, queries bytes.Buffer
	if err := errors.Join(p.Spans.WriteJSONL(&spans), p.Metrics.WritePrometheus(&prom)); err != nil {
		panic(err) // a bytes.Buffer does not fail a write
	}
	for _, q := range out.Queries {
		fmt.Fprintf(&queries, "%+v\n", *q)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s events=%d", r.name, out.Events)
	for _, c := range []struct {
		prefix string
		v      any
	}{{"radio", out.Radio}, {"aodv", out.Aodv}, {"faults", out.Faults}} {
		v := reflect.ValueOf(c.v)
		for i := range v.NumField() {
			if n := v.Field(i).Int(); n != 0 {
				fmt.Fprintf(&b, " %s.%s=%d", c.prefix, v.Type().Field(i).Name, n)
			}
		}
	}
	for _, s := range []struct {
		name string
		b    []byte
	}{{"queries", queries.Bytes()}, {"spans", spans.Bytes()}, {"prom", prom.Bytes()}} {
		sum := sha256.Sum256(s.b)
		fmt.Fprintf(&b, " %s=%s", s.name, hex.EncodeToString(sum[:]))
	}
	return scenarioRun{row: r, line: b.String(), out: out, spans: spans.Bytes(), prom: prom.Bytes()}
}

// checkScenario applies the checks that are more than bytes to every row:
// every span narrates its query, and SF runs every phase of its protocol.
func checkScenario(t *testing.T, r digestRow, out *Outcome) {
	t.Helper()
	checkSpans(t, r.p, out)
	if r.p.Strategy == SamplingFilter {
		kinds := map[string]bool{}
		for _, sp := range out.Spans {
			for _, st := range sp.Stages {
				kinds[st.Kind] = true
			}
		}
		for _, kind := range []string{telemetry.StageIssue, telemetry.StageSample,
			telemetry.StageFilterSet, telemetry.StageResult, telemetry.StageComplete} {
			if !kinds[kind] {
				t.Errorf("SF spans have no %q stage", kind)
			}
		}
	}
}

// The tests below hold rows to what -update cannot rewrite: full text,
// properties each row is in the corpus for, and repeat runs.

// checkRerun runs each named row once more in the same process and demands
// the shared run's whole digest line again. TestScenarioDigests holds each
// row to its checked-in line; together they are the simulator's one
// determinism gate, so an event order taken from a map fails one or both.
func checkRerun(t *testing.T, rows ...string) {
	t.Helper()
	for _, name := range rows {
		run := rowRun(t, name, false)
		if again := runScenario(run.row); again.line != run.line {
			t.Errorf("%s: a second run in the same process diverged: %s", name, digestDiff(run.line, again.line))
		}
	}
}

// TestDeterministicRuns reruns the small_bf row in the same process.
func TestDeterministicRuns(t *testing.T) {
	t.Parallel()
	checkRerun(t, "small_bf")
}

// TestRunIsBitDeterministic reruns the cheapest BF and DF rows whose
// devices lose routes to mobility and send route errors. The RERR order out
// of aodv's route table once came from map iteration; with that order
// restored, the df100_sparse_retries rerun disagreed with its first run in
// 10 of 10 tries (bench_df's, at four times the cost, in 3 of 10), and the
// rows' checked-in lines catch it every time.
func TestRunIsBitDeterministic(t *testing.T) {
	t.Parallel()
	checkRerun(t, "bf_mobile_lossy_center", "df100_sparse_retries")
}

// TestTraceGolden checks that the span JSONL skytrace reads decodes to the
// run's spans, and keeps golden_bf's as full text in trace_small.spans.jsonl.
// Regenerate with: go test ./internal/manet -run TraceGolden -update
func TestTraceGolden(t *testing.T) {
	t.Parallel()
	for name, row := range map[string]string{"golden": "golden_bf", "small-bf": "small_bf"} {
		t.Run(name, func(t *testing.T) {
			run := rowRun(t, row, false)
			if row == "golden_bf" {
				checkGolden(t, "trace_small.spans.jsonl", run.spans)
			}
			var got []*telemetry.Span
			for dec := json.NewDecoder(bytes.NewReader(run.spans)); dec.More(); {
				sp := new(telemetry.Span)
				if err := dec.Decode(sp); err != nil {
					t.Fatal(err)
				}
				got = append(got, sp)
			}
			if !reflect.DeepEqual(got, run.out.Spans) {
				t.Errorf("span JSONL decodes to %d spans that differ from the run's %d", len(got), len(run.out.Spans))
			}
		})
	}
}

// TestSFTraceGolden reruns the golden_sf row in the same process: filter
// selection, sampling and scheduling draw only from seeded state.
func TestSFTraceGolden(t *testing.T) {
	t.Parallel()
	checkRerun(t, "golden_sf")
}

// TestBFGoldensUnchangedBySF pins the span hashes of two BF rows in source,
// so that no -update can absorb a change to a BF run. After an intended
// protocol change, copy the new values from the rows' digest lines.
func TestBFGoldensUnchangedBySF(t *testing.T) {
	t.Parallel()
	for row, want := range map[string]string{
		"golden_bf":             "ffd492218d66b350c299c5db0896afc2402c1214198fa4cc4ad2dbfedb17856b",
		"fault_crash_partition": "d33b55b856a998166c814d1381a08724f73594be1ca7bfe67b6721aa4769d2b9",
	} {
		if line := rowRun(t, row, false).line; !strings.Contains(line, " spans="+want+" ") {
			t.Errorf("span digest changed:\n got %s\nwant spans=%s", line, want)
		}
	}
}

// TestFaultGoldenCrashPartition checks that the fault_crash_partition row's
// plan both crashed devices and split the network.
func TestFaultGoldenCrashPartition(t *testing.T) {
	t.Parallel()
	if f := rowRun(t, "fault_crash_partition", false).out.Faults; f.OutageDrops == 0 || f.PartitionDrops == 0 {
		t.Errorf("crash+partition plan dropped too little: %+v", f)
	}
}

// TestFaultGoldenDeterministic reruns the fault_crash_partition row in the
// same process: the schedule and the fault evaluator's stream must replay.
func TestFaultGoldenDeterministic(t *testing.T) {
	t.Parallel()
	checkRerun(t, "fault_crash_partition")
}

// TestFaultFreePlanIsByteIdentical demands that an empty fault plan leaves
// the run as it is: golden_empty_plan digests like golden_bf but for its name.
func TestFaultFreePlanIsByteIdentical(t *testing.T) {
	t.Parallel()
	golden, empty := rowRun(t, "golden_bf", false).line, rowRun(t, "golden_empty_plan", false).line
	if strings.TrimPrefix(golden, "golden_bf") != strings.TrimPrefix(empty, "golden_empty_plan") {
		t.Errorf("an empty fault plan perturbed the golden run:\n%s\n%s", golden, empty)
	}
}

// TestFaultGoldenAllDraws checks that every clause of allDrawsPlan fires in
// the static and the mobile all-draws row of each strategy.
func TestFaultGoldenAllDraws(t *testing.T) {
	t.Parallel()
	for _, s := range []string{"bf", "df", "sf"} {
		t.Run(s, func(t *testing.T) {
			for _, row := range []string{s + "_static_all_draws", s + "_mobile_all_draws"} {
				f := rowRun(t, row, false).out.Faults
				if f.OutageDrops == 0 || f.PartitionDrops == 0 || f.LinkDrops == 0 ||
					f.RegionDrops == 0 || f.Duplicated == 0 || f.Reordered == 0 {
					t.Errorf("%s: a plan clause never fired: %+v", row, f)
				}
			}
		})
	}
}

// TestKnobRowsMove checks that each knob row's per-query metrics or spans
// differ from its base row's: a row whose knob no longer takes effect pins
// nothing its base does not.
func TestKnobRowsMove(t *testing.T) {
	t.Parallel()
	for _, k := range knobAxes {
		got := digestFields(rowRun(t, k.name, false).line)
		base := digestFields(rowRun(t, k.base, false).line)
		if got["queries"] == base["queries"] && got["spans"] == base["spans"] {
			t.Errorf("%s: queries and spans equal %s's", k.name, k.base)
		}
	}
}

// TestMetricsGolden checks that each row's exposition shows the counters the
// row is in the corpus for, and keeps golden_bf's as full text in
// golden_bf.metrics.prom. Regenerate with: go test ./internal/manet -run MetricsGolden -update
func TestMetricsGolden(t *testing.T) {
	t.Parallel()
	for row, nonzero := range map[string][]string{
		"golden_bf": {"radio_broadcasts_total", "core_filter_replacements_total"},
		// DF hands the query on by unicast, over routes AODV finds.
		"golden_df":             {"radio_unicasts_total", "aodv_route_discoveries_total"},
		"golden_sf":             {"radio_broadcasts_total", "manet_queries_completed_total"},
		"fault_crash_partition": {"radio_drops_fault_total", "manet_query_recall_count"},
		"mobile_df": {"radio_drops_loss_total", "aodv_rerr_sent_total",
			"aodv_route_failures_total", "manet_queries_partial_total", "manet_query_retries_total"},
		// The two counters the other rows leave at zero.
		"redistribute_bf": {"manet_transfers_total", "radio_drops_queue_total"},
	} {
		t.Run(row, func(t *testing.T) {
			run := rowRun(t, row, false)
			if row == "golden_bf" {
				checkGolden(t, "golden_bf.metrics.prom", run.prom)
			}
			for _, name := range nonzero {
				if prom := string(run.prom); !strings.Contains(prom, "\n"+name+" ") || strings.Contains(prom, "\n"+name+" 0\n") {
					t.Errorf("%s is zero or missing", name)
				}
			}
		})
	}
}

// TestDFPinned100 checks that each 100-device DF row takes its path.
func TestDFPinned100(t *testing.T) {
	t.Parallel()
	retried := func(out *Outcome, n int) (c int) {
		for _, q := range out.Queries {
			if q.Retries >= n {
				c++
			}
		}
		return c
	}
	for name, ok := range map[string]func(*Outcome) bool{
		// No frame is lost and no query retried.
		"lossless": func(o *Outcome) bool { return o.Radio.DroppedLoss == 0 && retried(o, 1) == 0 },
		// Lost frames end some walks with nothing gathered.
		"loss_retries": func(o *Outcome) bool {
			return o.Radio.DroppedLoss > 0 && slices.ContainsFunc(o.Queries, func(q *QueryMetrics) bool { return q.ResultTuples == 0 })
		},
		// Most originators restart their walk at least twice.
		"sparse_retries": func(o *Outcome) bool { return 2*retried(o, 2) > len(o.Queries) },
	} {
		t.Run(name, func(t *testing.T) {
			if out := rowRun(t, "df100_"+name, false).out; !ok(out) {
				t.Errorf("missed the path it is pinned for: %d of %d queries retried, radio %+v", retried(out, 1), len(out.Queries), out.Radio)
			}
		})
	}
}

// digestFields maps each field of a digest line to its value.
func digestFields(line string) map[string]string {
	m := map[string]string{}
	for _, f := range strings.Fields(line)[1:] {
		k, v, _ := strings.Cut(f, "=")
		m[k] = v
	}
	return m
}

// digestDiff names every field of two digest lines whose value differs.
func digestDiff(want, got string) string {
	w, g := digestFields(want), digestFields(got)
	var moved []string
	for k, gv := range g {
		if wv := w[k]; wv != gv {
			moved = append(moved, fmt.Sprintf("%s %s→%s", k, cmp.Or(short(wv), "none"), short(gv)))
		}
	}
	for k, wv := range w {
		if _, ok := g[k]; !ok {
			moved = append(moved, fmt.Sprintf("%s %s→none", k, wv))
		}
	}
	slices.Sort(moved)
	return strings.Join(moved, ", ")
}

// short abbreviates a section hash.
func short(v string) string {
	if len(v) == sha256.Size*2 {
		return v[:12]
	}
	return v
}

// readDigests loads digestFile as row name → line.
func readDigests(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile(digestFile)
	if os.IsNotExist(err) && *updateGolden {
		err = nil
	}
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	lines := map[string]string{}
	for _, line := range strings.Split(string(b), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			lines[strings.Fields(line)[0]] = line
		}
	}
	return lines
}

// writeDigests rewrites digestFile from lines, sorted by row name.
func writeDigests(t *testing.T, lines map[string]string) {
	t.Helper()
	var b strings.Builder
	b.WriteString(digestHeader)
	sorted := make([]string, 0, len(lines))
	for _, line := range lines {
		sorted = append(sorted, line)
	}
	slices.Sort(sorted)
	for _, line := range sorted {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkGolden compares got byte for byte with testdata/name, rewriting the
// file first under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output diverged from golden %s\n(re-run with -update if the change is intended)\ngot %d bytes, want %d",
			path, len(got), len(want))
	}
}

// checkSpans demands one span per issued query, each a timeline of known
// stage kinds that starts with its issue, never goes back in time, and has
// one complete stage, stamped at the span's end, exactly when the query is
// done. Results that arrive after the quorum may follow the complete stage.
func checkSpans(t *testing.T, p Params, out *Outcome) {
	t.Helper()
	if len(out.Spans) != len(out.Queries) {
		t.Fatalf("%d spans for %d queries", len(out.Spans), len(out.Queries))
	}
	for i, sp := range out.Spans {
		q := out.Queries[i]
		if sp.Org != int32(q.Key.Org) || sp.Cnt != int32(q.Key.Cnt) {
			t.Fatalf("span %d is (%d,%d), query is %v", i, sp.Org, sp.Cnt, q.Key)
		}
		if len(sp.Stages) < 2 {
			t.Fatalf("span (%d,%d) has only %d stages", sp.Org, sp.Cnt, len(sp.Stages))
		}
		if sp.Stages[0].Kind != telemetry.StageIssue {
			t.Errorf("span (%d,%d) does not start with issue: %q", sp.Org, sp.Cnt, sp.Stages[0].Kind)
		}
		prev, completes := -1.0, 0
		for i, st := range sp.Stages {
			if st.T < prev {
				t.Errorf("span (%d,%d) stage %d goes back in time", sp.Org, sp.Cnt, i)
			}
			prev = st.T
			switch st.Kind {
			case telemetry.StageComplete:
				completes++
				if st.T != sp.End || st.Tuples != sp.ResultTuples {
					t.Errorf("span (%d,%d) complete stage %+v disagrees with end %g, %d tuples",
						sp.Org, sp.Cnt, st, sp.End, sp.ResultTuples)
				}
			case telemetry.StageIssue, telemetry.StageProcess, telemetry.StageFilterUpdate,
				telemetry.StageResult, telemetry.StageRetry,
				telemetry.StageSample, telemetry.StageFilterSet:
			default:
				t.Errorf("span (%d,%d) has unknown stage kind %q", sp.Org, sp.Cnt, st.Kind)
			}
		}
		if sp.Done != q.Done {
			t.Errorf("span (%d,%d) done=%v, query done=%v", sp.Org, sp.Cnt, sp.Done, q.Done)
		}
		if !sp.Done {
			if completes != 0 {
				t.Errorf("open span (%d,%d) has %d complete stages", sp.Org, sp.Cnt, completes)
			}
			continue
		}
		if completes != 1 {
			t.Errorf("completed span (%d,%d) has %d complete stages", sp.Org, sp.Cnt, completes)
		}
		if sp.Duration() < 0 {
			t.Errorf("span (%d,%d) has negative duration", sp.Org, sp.Cnt)
		}
		// Only a fault plan can cut an originator off from every device.
		// Then its deadline closes the query as partial, or its DF walk,
		// with no neighbour to hand off to, ends at the originator.
		cutOff := !p.Faults.Empty() && (q.Partial || p.Strategy == DepthFirst)
		if sp.Devices == 0 && !cutOff {
			t.Errorf("completed span (%d,%d) reached no devices", sp.Org, sp.Cnt)
		}
	}
}
