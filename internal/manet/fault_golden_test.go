package manet

import (
	"bytes"
	"encoding/json"
	"testing"

	"manetskyline/internal/faults"
)

// faultGoldenParams is the pinned crash+partition replay scenario: a static
// multi-hop 3×3 grid where the fault plan crashes two devices and splits the
// network in half mid-run, with the retry/deadline policy and the recall
// oracle enabled.
func faultGoldenParams() Params {
	p := DefaultParams()
	p.Grid = 3
	p.GlobalN = 900
	p.SimTime = 1800
	p.MinQueries, p.MaxQueries = 1, 1
	p.Static = true
	p.Radio.Range = 600 // multi-hop: partitions and crashes actually bite
	p.QueryRetries = 2
	p.RetryBackoff = 10
	p.RetryBackoffMax = 60
	p.QueryDeadline = 600
	p.Recall = true
	p.Seed = 11
	plan, err := faults.Named("crash+partition", p.NumDevices(), p.SimTime)
	if err != nil {
		panic(err)
	}
	p.Faults = plan
	return p
}

// faultSummary is the pinned per-run recall accounting.
type faultSummary struct {
	Queries []faultQuerySummary `json:"queries"`
	Faults  faults.Stats        `json:"faults"`
}

type faultQuerySummary struct {
	Org     int     `json:"org"`
	Cnt     int     `json:"cnt"`
	Done    bool    `json:"done"`
	Partial bool    `json:"partial,omitempty"`
	Retries int     `json:"retries,omitempty"`
	Tuples  int     `json:"tuples"`
	Truth   int     `json:"truth"`
	Recall  float64 `json:"recall"`
}

// TestFaultGoldenCrashPartition pins a faulty run end to end: the span
// JSONL and the recall summary must replay byte-for-byte. Regenerate with:
// go test ./internal/manet -run FaultGolden -update
func TestFaultGoldenCrashPartition(t *testing.T) {
	got, out := runSpans(t, faultGoldenParams())

	sum := faultSummary{Faults: out.Faults}
	for _, q := range out.Queries {
		sum.Queries = append(sum.Queries, faultQuerySummary{
			Org: int(q.Org), Cnt: int(q.Key.Cnt), Done: q.Done,
			Partial: q.Partial, Retries: q.Retries,
			Tuples: q.ResultTuples, Truth: q.TruthTuples, Recall: q.Recall,
		})
	}
	var sumBuf bytes.Buffer
	enc := json.NewEncoder(&sumBuf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fault_crash_partition.spans.jsonl", got)
	checkGolden(t, "fault_crash_partition.summary.json", sumBuf.Bytes())

	// The plan must actually have perturbed the run, or the golden pins
	// nothing interesting.
	if out.Faults.OutageDrops == 0 && out.Faults.PartitionDrops == 0 {
		t.Errorf("crash+partition plan dropped nothing: %+v", out.Faults)
	}
}

// sameRun fails unless two runs recorded identical spans and substrate
// counters.
func sameRun(t *testing.T, what string, p1, p2 Params) {
	t.Helper()
	a, outA := runSpans(t, p1)
	b, outB := runSpans(t, p2)
	if !bytes.Equal(a, b) {
		t.Errorf("%s: spans diverged: %d vs %d bytes", what, len(a), len(b))
	}
	if outA.Events != outB.Events {
		t.Errorf("%s: events diverged: %d vs %d", what, outA.Events, outB.Events)
	}
	if outA.Radio != outB.Radio {
		t.Errorf("%s: radio counters diverged: %+v vs %+v", what, outA.Radio, outB.Radio)
	}
	if outA.Aodv != outB.Aodv {
		t.Errorf("%s: aodv counters diverged: %+v vs %+v", what, outA.Aodv, outB.Aodv)
	}
}

// TestFaultGoldenDeterministic re-runs the pinned scenario and demands an
// identical run — the schedule and the injector RNG must be fully
// reproducible regardless of host or worker.
func TestFaultGoldenDeterministic(t *testing.T) {
	sameRun(t, "faulty runs", faultGoldenParams(), faultGoldenParams())
}

// TestFaultFreePlanIsByteIdentical pins the tentpole's no-perturbation
// contract directly: attaching an empty plan leaves the run identical to
// one with no fault wiring at all.
func TestFaultFreePlanIsByteIdentical(t *testing.T) {
	empty := goldenParams()
	empty.Faults = &faults.Plan{Name: "empty"}
	sameRun(t, "empty fault plan", goldenParams(), empty)
}

// TestRecallFloorDF is the CI recall gate: on the pinned 5%-loss scenario,
// depth-first forwarding with the retry policy must keep mean recall at or
// above 0.9.
func TestRecallFloorDF(t *testing.T) {
	p := DefaultParams()
	p.Grid = 3
	p.GlobalN = 3000
	p.Strategy = DepthFirst
	p.SimTime = 3600
	p.MinQueries, p.MaxQueries = 1, 1
	p.Static = true
	p.Radio.Range = 2000
	p.Radio.Loss = 0.05
	p.QueryRetries = 3
	p.RetryBackoff = 10
	p.RetryBackoffMax = 60
	p.Recall = true
	p.Seed = 21
	out := Run(p)
	r, ok := out.MeanRecall()
	if !ok {
		t.Fatalf("recall not computed")
	}
	t.Logf("DF at 5%% loss: mean recall %.3f over %d queries (completion %.0f%%)",
		r, len(out.Queries), out.CompletionRate()*100)
	if r < 0.9 {
		t.Errorf("mean recall %.3f below the 0.9 floor", r)
	}
}
