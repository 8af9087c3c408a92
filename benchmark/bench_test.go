package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"manetskyline/internal/core"
	"manetskyline/internal/gen"
	"manetskyline/internal/manet"
	"manetskyline/internal/tuple"
)

// smoke runs one workload at the test scale.
func smoke(t *testing.T, name string, seed int64, traced bool) result {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	res, err := runWorkload(w, options{seed: seed, seconds: runSeconds, traced: traced,
		smoke: true, traceDir: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func names(ms []metricSpec) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]metricValue) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// BENCHMARK.json is the spec this package prints, and the spec stays inside
// the limits the driver refuses a file for.
func TestSpecIsBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, specJSON()) {
		t.Error("BENCHMARK.json differs from `manetbench -spec`; regenerate it")
	}
	var spec struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(specJSON()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) < 2 || len(spec.Workloads) > 8 || len(spec.Workloads) != len(registry) {
		t.Errorf("%d workloads in the spec, %d in the registry", len(spec.Workloads), len(registry))
	}
	for i, w := range spec.Workloads {
		check(w.Name)
		if w.Name != registry[i].name {
			t.Errorf("workload %d is %q in the spec and %q in the registry", i, w.Name, registry[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		check(m.Name)
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound missing or outside [0, 0.25]", m.Name)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(spec.PerLayer) < 1 || len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(spec.PerLayer))
	}
	for _, m := range append(spec.PerLayer, spec.EndToEnd...) {
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range spec.PerLayer {
		check(m.Name)
		if m.Bound != nil {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(specJSON()) > 64<<10 {
		t.Error("run_seconds or file size out of range")
	}
}

// Every workload emits every named metric and nothing unnamed, in both
// modes, and fails no operation.
func TestWorkloadsEmitExactlyTheSpec(t *testing.T) {
	for _, w := range registry {
		for _, traced := range []bool{false, true} {
			res := smoke(t, w.name, 1, traced)
			want := names(endToEnd)
			if traced {
				want = names(perLayer)
			}
			if got := keys(res.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s traced=%v: metrics %v, want %v", w.name, traced, got, want)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			for name, v := range res.Metrics {
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (!traced && v.Value <= 0) {
					t.Errorf("%s traced=%v: %s = %v", w.name, traced, name, v.Value)
				}
			}
		}
	}
}

// The seed is the only input: the same seed repeats the program's counts
// exactly, another seed changes the generated data.
func TestSeedFixesInputs(t *testing.T) {
	air := func(seed int64) float64 {
		return smoke(t, "local_ac_25", seed, false).Metrics["air_bytes_per_op"].Value
	}
	if a, b := air(3), air(3); a != b {
		t.Errorf("seed 3 shipped %v bytes per query, then %v", a, b)
	}
	if a, b := air(3), air(4); a == b {
		t.Errorf("seeds 3 and 4 both shipped %v bytes per query", a)
	}
	s1 := &simRunner{seed: 1}
	s2 := &simRunner{seed: 2}
	if s1.scenarioSeed(4) >= s2.scenarioSeed(0) {
		t.Error("benchmark seeds 1 and 2 share scenario seeds")
	}
}

// The traced static driver is core.RunStatic with spans around its calls.
func TestTracedDriverIsRunStatic(t *testing.T) {
	const g = 3
	devs, _ := buildStaticDevices(1800, 3, g, 7, nil)
	rec := newSpanRecorder()
	for org := range devs {
		traced := tracedStatic(devs, g, org, rec, 0)
		for _, d := range devs {
			d.Log.Reset()
		}
		if err := sameStaticOutcome(core.RunStatic(devs, g, core.DeviceID(org)), traced); err != nil {
			t.Errorf("originator %d: %v", org, err)
		}
	}
	if n := rec.meanUs("core.Process"); n <= 0 {
		t.Errorf("no core.Process span recorded (mean %v us)", n)
	}
	self := rec.selfUs()
	if self["static.query"] < 0 || self["core.Merge"] <= 0 {
		t.Errorf("self times %v", self)
	}
}

// The correctness checks reject a deliberately corrupted skyline.
func TestChecksRejectCorruptedSkyline(t *testing.T) {
	p := small100(manet.BreadthFirst, true)(1010)
	p.Recall = true
	out := manet.Run(p)
	if err := checkSimOutcome(out, 0.9, 0.85); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}
	var q *manet.QueryMetrics
	for _, c := range out.Queries {
		if len(c.Skyline) > 0 {
			q = c
			break
		}
	}
	if q == nil {
		t.Fatal("no query returned a tuple")
	}
	clean := q.Skyline

	worse := clean[0].Clone()
	for i := range worse.Attrs {
		worse.Attrs[i]++
	}
	q.Skyline = append(append([]tuple.Tuple(nil), clean...), worse)
	if checkSimOutcome(out, 0.9, 0.85) == nil {
		t.Error("a result holding a tuple that exists nowhere, and is dominated, passed")
	}
	q.Skyline = clean

	c := gen.DefaultConfig(1800, 3, gen.AntiCorrelated, 7)
	devs, _ := buildStaticDevices(c.N, c.Dim, 3, c.Seed, nil)
	good := core.RunStatic(devs, 3, 0)
	bad := good
	bad.Skyline = good.Skyline[1:]
	if sameStaticOutcome(good, bad) == nil {
		t.Error("a skyline missing a tuple compared equal")
	}
}

// The live driver guard refuses a second query from a peer before every
// other peer has had its turn.
func TestLiveGuard(t *testing.T) {
	c := gen.DefaultConfig(90, 2, gen.Independent, 1)
	fl, err := startFleet(gen.GridPartition(gen.Generate(c), 3, c.Space), c, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.close()
	if _, err := fl.issue(0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("peer 0 was queried twice in a row")
		}
	}()
	fl.issue(0)
}

func TestStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartile spread %v, want 1", got)
	}
	if median(v) != 5.5 || percentile(v, 99) != 10 || percentile(v, 50) != 5 {
		t.Errorf("median %v p99 %v p50 %v", median(v), percentile(v, 99), percentile(v, 50))
	}
	blocks := []blockResult{
		{units: []unit{{ops: 1, wall: 3}, {ops: 1, wall: 1}}},
		{units: []unit{{ops: 1, wall: 2}, {ops: 1, wall: 4}}},
	}
	if best := fastest(blocks); best[0].wall != 2 || best[1].wall != 1 || throughput(best) != 2.0/3 {
		t.Errorf("fastest units %+v", best)
	}
}
