package manet

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"manetskyline/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenParams is a tiny deterministic scenario small enough that its whole
// trace fits comfortably in testdata: 4 static devices, one query each.
func goldenParams() Params {
	p := DefaultParams()
	p.Grid = 2
	p.GlobalN = 400
	p.SimTime = 600
	p.MinQueries, p.MaxQueries = 1, 1
	p.Static = true
	p.Radio.Range = 2000
	p.Seed = 7
	return p
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

// runSpans runs p with a fresh span log and returns the log's JSONL, the
// format skytrace reads, together with the outcome.
func runSpans(t *testing.T, p Params) ([]byte, *Outcome) {
	t.Helper()
	p.Spans = telemetry.NewSpanLog()
	out := Run(p)
	var buf bytes.Buffer
	if err := p.Spans.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), out
}

// checkGolden compares got byte for byte with testdata/name, rewriting the
// file first under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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

// TestTraceGolden pins the span JSONL of a small deterministic run
// byte-for-byte, so any change to event ordering, timing, or encoding shows
// up in review, and checks that the spans of each input narrate its run
// coherently. Regenerate with: go test ./internal/manet -run TraceGolden -update
func TestTraceGolden(t *testing.T) {
	for _, tc := range []struct {
		name, golden string
		p            Params
	}{
		{"golden", "trace_small.spans.jsonl", goldenParams()},
		{"small-bf", "", smallParams(BreadthFirst)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, out := runSpans(t, tc.p)
			if tc.golden != "" {
				checkGolden(t, tc.golden, got)
			}
			checkSpans(t, out)
		})
	}
}

// checkSpans demands one span per issued query, each a timeline of known
// stage kinds that starts with its issue, never goes back in time, and has
// one complete stage, stamped at the span's end, exactly when the query is
// done. Results that arrive after the quorum may follow the complete stage.
func checkSpans(t *testing.T, out *Outcome) {
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
		if sp.Devices == 0 {
			t.Errorf("completed span (%d,%d) reached no devices", sp.Org, sp.Cnt)
		}
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
