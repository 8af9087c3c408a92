package manet

import (
	"bytes"
	"encoding/json"
	"testing"

	"manetskyline/internal/faults"
	"manetskyline/internal/radio"
)

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

// allDrawsParams is a mobile 4×4 run under allDrawsPlan with the
// retry/deadline policy and the recall oracle enabled.
func allDrawsParams(s Forwarding) Params {
	p := DefaultParams()
	p.Grid = 4
	p.GlobalN = 1600
	p.Strategy = s
	p.SimTime = 1800
	p.MinQueries, p.MaxQueries = 1, 2
	p.QueryRetries = 2
	p.RetryBackoff = 10
	p.RetryBackoffMax = 60
	p.QueryDeadline = 600
	p.Recall = true
	p.Seed = 5
	p.Faults = allDrawsPlan()
	return p
}

// allDrawsSummary is the pinned record of one all-draws run.
type allDrawsSummary struct {
	Events  uint64              `json:"events"`
	Radio   radio.Counters      `json:"radio"`
	Faults  faults.Stats        `json:"faults"`
	Queries []faultQuerySummary `json:"queries"`
}

// TestFaultGoldenAllDraws pins a run under a plan whose link loss, region
// loss, duplication and reorder all draw from the fault evaluator's stream,
// once per strategy: any change to the draw order or the seed derivation
// shows up here. Regenerate with:
// go test ./internal/manet -run FaultGoldenAllDraws -update
func TestFaultGoldenAllDraws(t *testing.T) {
	for _, tc := range []struct {
		name string
		s    Forwarding
	}{{"bf", BreadthFirst}, {"df", DepthFirst}, {"sf", SamplingFilter}} {
		t.Run(tc.name, func(t *testing.T) {
			out := Run(allDrawsParams(tc.s))
			sum := allDrawsSummary{Events: out.Events, Radio: out.Radio, Faults: out.Faults}
			for _, q := range out.Queries {
				sum.Queries = append(sum.Queries, faultQuerySummary{
					Org: int(q.Org), Cnt: int(q.Key.Cnt), Done: q.Done,
					Partial: q.Partial, Retries: q.Retries,
					Tuples: q.ResultTuples, Truth: q.TruthTuples, Recall: q.Recall,
				})
			}
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(sum); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "fault_all_draws_"+tc.name+".summary.json", buf.Bytes())

			f := out.Faults
			if f.OutageDrops == 0 || f.PartitionDrops == 0 || f.LinkDrops == 0 ||
				f.RegionDrops == 0 || f.Duplicated == 0 || f.Reordered == 0 {
				t.Errorf("a plan clause never fired: %+v", f)
			}
		})
	}
}
