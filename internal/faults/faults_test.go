package faults

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"manetskyline/internal/tuple"
)

// pt shortens the position arguments of CutLink in assertions.
func pt() tuple.Point { return tuple.Point{} }

func TestWindowActive(t *testing.T) {
	cases := []struct {
		w    Window
		now  float64
		want bool
	}{
		{Window{Start: 10, End: 20}, 5, false},
		{Window{Start: 10, End: 20}, 10, true},
		{Window{Start: 10, End: 20}, 19.9, true},
		{Window{Start: 10, End: 20}, 20, false},
		{Window{Start: 10}, 1e9, true}, // open end: a crash never recovers
		{Window{Start: 10}, 9.9, false},
	}
	for _, c := range cases {
		if got := c.w.Active(c.now); got != c.want {
			t.Errorf("window %+v at %g: active=%v, want %v", c.w, c.now, got, c.want)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	good := &Plan{
		LinkLoss:   []LinkLoss{{Window: Window{Start: 0, End: 10}, From: 0, To: 1, Prob: 0.5}},
		RegionLoss: []RegionLoss{{Window: Window{Start: 0}, MinX: 0, MinY: 0, MaxX: 10, MaxY: 10, Prob: 1}},
		Outages:    []Outage{{Window: Window{Start: 5}, Node: 2}},
		Partitions: []Partition{{Window: Window{Start: 1, End: 2}, Groups: [][]int{{0, 1}, {2}}}},
		Duplicate:  []Chaos{{Window: Window{Start: 0, End: 1}, Prob: 0.1, MaxExtra: 2}},
	}
	if err := good.Validate(3); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if (*Plan)(nil).Validate(3) != nil {
		t.Errorf("nil plan should validate")
	}
	bad := []*Plan{
		{LinkLoss: []LinkLoss{{Window: Window{Start: 0}, From: 0, To: 9, Prob: 0.5}}},       // node out of range
		{LinkLoss: []LinkLoss{{Window: Window{Start: 0}, From: 0, To: 1, Prob: 0}}},         // zero probability
		{LinkLoss: []LinkLoss{{Window: Window{Start: 5, End: 5}, From: 0, To: 1, Prob: 1}}}, // empty window
		{Outages: []Outage{{Window: Window{Start: -1}, Node: 0}}},                           // negative start
		{Partitions: []Partition{{Window: Window{Start: 0}, Groups: [][]int{{0, 1}, {1}}}}}, // duplicate member
		{Partitions: []Partition{{Window: Window{Start: 0}}}},                               // no groups
		{RegionLoss: []RegionLoss{{Window: Window{Start: 0}, MinX: 5, MaxX: 1, Prob: 1}}},   // inverted rect
		{Reorder: []Chaos{{Window: Window{Start: 0}, Prob: 0.5, MaxDelay: -1}}},             // negative delay
	}
	for i, p := range bad {
		if p.Validate(3) == nil {
			t.Errorf("bad plan %d accepted: %+v", i, p)
		}
	}
}

func TestEmpty(t *testing.T) {
	if !(&Plan{Name: "noop", Seed: 9}).Empty() {
		t.Errorf("plan with only name/seed should be empty")
	}
	if (&Plan{Outages: []Outage{{Node: 0}}}).Empty() {
		t.Errorf("plan with an outage is not empty")
	}
	if !(*Plan)(nil).Empty() {
		t.Errorf("nil plan is empty")
	}
}

func TestNamedPlansValidate(t *testing.T) {
	for _, name := range PlanNames() {
		p, err := Named(name, 9, 3600)
		if err != nil {
			t.Fatalf("builtin %q: %v", name, err)
		}
		if p.Empty() {
			t.Errorf("builtin %q is empty", name)
		}
		if err := p.Validate(9); err != nil {
			t.Errorf("builtin %q does not validate: %v", name, err)
		}
	}
	if _, err := Named("no-such-plan", 9, 3600); err == nil {
		t.Errorf("unknown plan name accepted")
	}
}

func TestChurnPlanDeterministic(t *testing.T) {
	a := ChurnPlan(16, 3600, 2, 0.1, 7)
	b := ChurnPlan(16, 3600, 2, 0.1, 7)
	if len(a.Outages) != len(b.Outages) {
		t.Fatalf("churn outage counts differ: %d vs %d", len(a.Outages), len(b.Outages))
	}
	for i := range a.Outages {
		if a.Outages[i] != b.Outages[i] {
			t.Fatalf("churn outage %d differs: %+v vs %+v", i, a.Outages[i], b.Outages[i])
		}
	}
	for _, o := range a.Outages {
		if o.Node == 0 {
			t.Errorf("churn must spare node 0 (the conventional originator)")
		}
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	p, err := Named("crash+partition", 9, 1800)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != p.Name || len(got.Outages) != len(p.Outages) ||
		len(got.Partitions) != len(p.Partitions) {
		t.Fatalf("round trip changed the plan:\n%+v\n%+v", p, got)
	}
	// Load resolves a path to the file and a bare word to a builtin.
	fromFile, err := Load(path, 9, 1800)
	if err != nil {
		t.Fatal(err)
	}
	if fromFile.Name != p.Name {
		t.Errorf("Load(path) name %q, want %q", fromFile.Name, p.Name)
	}
	if _, err := Load("chaos", 9, 1800); err != nil {
		t.Errorf("Load(builtin name): %v", err)
	}
	if _, err := Load("definitely-missing", 9, 1800); err == nil {
		t.Errorf("Load of unknown spec should fail")
	}
}

// The TestInjector tests check Eval in its role as the simulator's
// radio.FaultInjector.

func TestInjectorOutageWindows(t *testing.T) {
	p := &Plan{Outages: []Outage{
		{Window: Window{Start: 100, End: 200}, Node: 3},
		{Window: Window{Start: 300}, Node: 3}, // crash for good
	}}
	in := NewEval(p, 1)
	cases := []struct {
		now  float64
		want bool
	}{{50, false}, {150, true}, {250, false}, {350, true}, {1e6, true}}
	for _, c := range cases {
		if got := in.NodeDown(3, c.now); got != c.want {
			t.Errorf("NodeDown(3, %g) = %v, want %v", c.now, got, c.want)
		}
		if in.NodeDown(2, c.now) {
			t.Errorf("node 2 has no outages but is down at %g", c.now)
		}
	}
}

func TestInjectorPartitionDeterministic(t *testing.T) {
	p := &Plan{Partitions: []Partition{{
		Window: Window{Start: 0, End: 100},
		Groups: [][]int{{0, 1}, {2, 3}},
	}}}
	in := NewEval(p, 1)
	cut := func(a, b int, now float64) bool {
		return in.CutLink(a, b, now, pt(), pt())
	}
	if cut(0, 1, 50) {
		t.Errorf("same-group link severed")
	}
	if !cut(0, 2, 50) || !cut(3, 1, 50) {
		t.Errorf("cross-group link survived the partition")
	}
	if cut(0, 2, 150) {
		t.Errorf("partition outlived its window")
	}
	// Unlisted nodes share the implicit group -1: connected to each other,
	// cut from every listed group.
	if cut(4, 5, 50) {
		t.Errorf("two unlisted nodes were severed")
	}
	if !cut(4, 0, 50) {
		t.Errorf("unlisted node still reaches group 0")
	}
	if in.Stats.PartitionDrops == 0 {
		t.Errorf("partition drops not tallied")
	}
}

func TestInjectorLossSeedDeterminism(t *testing.T) {
	p := &Plan{LinkLoss: []LinkLoss{{
		Window: Window{Start: 0}, From: 0, To: 1, Bidirectional: true, Prob: 0.5,
	}}}
	run := func(seed int64) []bool {
		in := NewEval(p, seed)
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.CutLink(0, 1, float64(i), pt(), pt())
		}
		return out
	}
	a, b := run(3), run(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := run(4)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Errorf("different scenario seeds produced identical loss patterns")
	}
	// Bidirectional: the reverse direction is also lossy (statistically).
	in := NewEval(p, 9)
	drops := 0
	for i := 0; i < 64; i++ {
		if in.CutLink(1, 0, float64(i), pt(), pt()) {
			drops++
		}
	}
	if drops == 0 {
		t.Errorf("bidirectional loss never dropped the reverse direction")
	}
}

func TestTxEffects(t *testing.T) {
	p := &Plan{
		Duplicate: []Chaos{{Window: Window{Start: 0}, Prob: 1, MaxExtra: 3}},
		Reorder:   []Chaos{{Window: Window{Start: 0}, Prob: 1, MaxDelay: 2}},
	}
	in := NewEval(p, 5)
	sawDup := false
	for i := 0; i < 32; i++ {
		extra, dups := in.TxEffects(float64(i))
		if extra < 0 || extra > 2 {
			t.Fatalf("reorder delay %g outside [0,2]", extra)
		}
		if len(dups) > 0 {
			sawDup = true
		}
		if len(dups) > 3 {
			t.Fatalf("%d duplicate copies exceed MaxExtra", len(dups))
		}
	}
	if !sawDup {
		t.Errorf("Prob=1 duplication never duplicated")
	}
	if in.Stats.Duplicated == 0 || in.Stats.Reordered == 0 {
		t.Errorf("chaos stats not tallied: %+v", in.Stats)
	}
	// Outside every window the evaluator is a no-op that draws nothing.
	quiet := NewEval(&Plan{
		Duplicate: []Chaos{{Window: Window{Start: 100, End: 200}, Prob: 1}},
	}, 5)
	if extra, dups := quiet.TxEffects(50); extra != 0 || len(dups) != 0 {
		t.Errorf("inactive window perturbed a transmission")
	}
}

// TestPlanValidateJSON runs Validate over plans as they arrive from a
// -faults file, and checks each error names the offending entry.
func TestPlanValidateJSON(t *testing.T) {
	for _, c := range []struct {
		name, json string
		wantErr    string // "" means the plan must validate
	}{
		{"dup max_extra at the bound", `{"duplicate":[{"start":0,"prob":1,"max_extra":7}]}`, ""},
		{"dup max_extra zero", `{"duplicate":[{"start":0,"prob":0.5}]}`, ""},
		{"dup max_extra huge", `{"name":"huge","duplicate":[{"start":0,"prob":1,"max_extra":1000000}]}`, "duplicate[0] max_extra 1000000"},
		{"dup max_extra above the bound", `{"duplicate":[{"start":0,"prob":1,"max_extra":8}]}`, "duplicate[0] max_extra 8"},
		{"dup max_extra negative", `{"duplicate":[{"start":0,"prob":1,"max_extra":-1}]}`, "duplicate[0] max_extra -1"},
		{"second dup window", `{"duplicate":[{"start":0,"prob":1},{"start":0,"prob":2}]}`, "duplicate[1] probability 2"},
		{"reorder after a dup window", `{"duplicate":[{"start":0,"prob":1}],"reorder":[{"start":0,"prob":0.5,"max_delay":-1}]}`, "reorder[0] negative max delay"},
		{"reorder empty window", `{"reorder":[{"start":5,"end":5,"prob":0.5}]}`, "reorder[0] window [5,5) is empty"},
		{"reorder zero prob", `{"reorder":[{"start":0,"max_delay":1}]}`, "reorder[0] probability 0"},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, err := ParseJSON([]byte(c.json))
			if err != nil {
				t.Fatal(err)
			}
			err = p.Validate(9)
			switch {
			case c.wantErr == "" && err != nil:
				t.Errorf("valid plan rejected: %v", err)
			case c.wantErr != "" && err == nil:
				t.Errorf("plan accepted, want error containing %q", c.wantErr)
			case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
				t.Errorf("error %q does not contain %q", err, c.wantErr)
			}
		})
	}
}

// FuzzPlanJSON feeds any plan that parses and validates to the evaluator
// and calls both drawing methods at every window edge: nothing may panic,
// and no duplicate window may add more than maxCopies copies.
func FuzzPlanJSON(f *testing.F) {
	f.Add([]byte(`{"name":"huge","duplicate":[{"start":0,"prob":1,"max_extra":1000000}]}`))
	for _, name := range PlanNames() {
		p, err := Named(name, 9, 1800)
		if err != nil {
			f.Fatal(err)
		}
		b, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := ParseJSON(b)
		if err != nil || p.Validate(9) != nil {
			return
		}
		var windows []Window
		for _, l := range p.LinkLoss {
			windows = append(windows, l.Window)
		}
		for _, r := range p.RegionLoss {
			windows = append(windows, r.Window)
		}
		for _, o := range p.Outages {
			windows = append(windows, o.Window)
		}
		for _, pt := range p.Partitions {
			windows = append(windows, pt.Window)
		}
		for _, c := range append(append([]Chaos(nil), p.Duplicate...), p.Reorder...) {
			windows = append(windows, c.Window)
		}
		e := NewEval(p, 1)
		for _, w := range windows {
			for _, now := range []float64{w.Start, w.End} {
				for n := 0; n < 9; n++ {
					e.CutLink(n, (n+1)%9, now, tuple.Point{X: now}, tuple.Point{Y: now})
				}
				if _, dups := e.TxEffects(now); len(dups) > maxCopies*len(p.Duplicate) {
					t.Fatalf("%d copies from %d duplicate windows", len(dups), len(p.Duplicate))
				}
			}
		}
	})
}
