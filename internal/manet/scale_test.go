package manet

import (
	"slices"
	"testing"
)

// TestScaleKnobs checks that the scale_bf and scale_df rows, which open every
// scale gate (capped originators, struct-of-arrays mobility and
// route-installing floods), still answer queries, and that scale_bf takes
// the path the scale workload does: flood routes replace AODV discovery, and
// the bounded link queues drop frames.
func TestScaleKnobs(t *testing.T) {
	t.Parallel()
	for _, row := range []string{"scale_bf", "scale_df"} {
		run := rowRun(t, row, false)
		out, origs := run.out, run.row.p.originators
		if len(out.Queries) == 0 || len(out.Queries) > origs {
			t.Errorf("%s: %d queries from %d originators", row, len(out.Queries), origs)
		}
		if !slices.ContainsFunc(out.Queries, func(q *QueryMetrics) bool { return q.Done }) {
			t.Errorf("%s: none of %d queries completed", row, len(out.Queries))
		}
		if out.Radio.FramesSent == 0 || out.Aodv.DataDelivered == 0 {
			t.Errorf("%s: substrate idle: radio=%+v aodv=%+v", row, out.Radio, out.Aodv)
		}
		if row == "scale_bf" && (out.Aodv.RREQSent != 0 || out.Radio.DroppedQueue == 0) {
			t.Errorf("scale_bf: %d RREQs and %d queue drops, want none and some", out.Aodv.RREQSent, out.Radio.DroppedQueue)
		}
	}
}

// TestScaleKnobsValidation pins the originators bounds check.
func TestScaleKnobsValidation(t *testing.T) {
	p := DefaultParams()
	p.originators = -1
	if err := p.Validate(); err == nil {
		t.Error("negative originators should fail validation")
	}
	p.originators = p.NumDevices() + 1
	if err := p.Validate(); err == nil {
		t.Error("originators above device count should fail validation")
	}
	p.originators = p.NumDevices()
	if err := p.Validate(); err != nil {
		t.Errorf("originators == device count should validate: %v", err)
	}
}

// TestFloodRoutesInstallReverseRoutes checks the piggybacked route
// installation end to end: on the scale path, a BF flood must leave the
// non-originator devices holding routes back to the originator.
func TestFloodRoutesInstallReverseRoutes(t *testing.T) {
	p := DefaultParams()
	p.Grid = 3
	p.GlobalN = 500
	p.SimTime = 600
	p.MinQueries, p.MaxQueries = 1, 1
	p.originators = 1
	p.scalePath = true
	p.Static = true     // so scalePath engages the flood routes, not mobility.Field
	p.Radio.Range = 600 // multi-hop over the 1000m field
	p.Seed = 2

	out := Run(p)
	if len(out.Queries) != 1 {
		t.Fatalf("want 1 query, got %d", len(out.Queries))
	}
	if !out.Queries[0].Done {
		t.Fatal("query did not complete")
	}
	// With the flood installing reverse routes, result returns need no
	// discovery from the responding devices.
	if out.Aodv.DataDelivered == 0 {
		t.Fatal("no results delivered")
	}
}
